"""Deterministic SVG figures: 2D grids, box wireframes, nested-cube view.

One fixed color convention ties every element to the axis it belongs to:
l yellow, r red, j blue, i green; drawn paths are near-black and generic
scaffolding grey.  The canvas metrics and view directions below are module
constants, so identical inputs always produce identical bytes.

View directions (4D -> 2D, orthographic):
    x' = l + 0.45 j + 0.22 i        y' = r + 0.35 j + 0.62 i
chosen so that no two corners of the enclosing box project to the same
point for any n >= 1.  The nested-cube view instead scales the j/l/r cube
about its center by 1 - i/(4n) (outer cell at scale 1, inner at 1/2) and
then applies the same j-oblique 3D part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import WrongArity
from .geometry import DoubleTesseract, Side, triangle
from .projections import AxisSet, ProjectedPath
from .words import Axis

ROLE_COLORS = {
    "yellow-l": "#E8C547",
    "red-r": "#C0392B",
    "blue-j": "#2E6DA4",
    "green-i": "#27AE60",
    "path": "#111111",
    "neutral": "#888888",
}

AXIS_ROLES = {Axis.I: "green-i", Axis.J: "blue-j", Axis.L: "yellow-l", Axis.R: "red-r"}

SIDE_ROLES = {Side.BLUE: "blue-j", Side.RED: "red-r", Side.YELLOW: "yellow-l"}

PIXELS_PER_UNIT = 40
MARGIN = 20

#: Oblique (x, y) drift per unit of j in the 3D part of both views.
VIEW_J = (0.45, 0.35)
#: Oblique drift per unit of i in the plain orthographic view.
VIEW_I = (0.22, 0.62)
#: Scale of the inner cell relative to the outer one in the nested-cube view.
SCHLEGEL_INNER_SCALE = 0.5


@dataclass(frozen=True)
class Segment:
    start: tuple
    end: tuple
    role: str
    layer: int = 0
    css_class: str = "grid"
    dashed: bool = False
    width: float = 1.0


@dataclass(frozen=True)
class Polyline:
    points: tuple
    role: str
    layer: int = 1
    css_class: str = "path"
    dashed: bool = False
    width: float = 2.0


@dataclass(frozen=True)
class Marker:
    at: tuple
    role: str
    layer: int = 2
    css_class: str = "vertex"
    radius: float = 3.0


@dataclass
class Scene:
    """An ordered list of drawing elements in source (lattice) coordinates."""

    elements: list = field(default_factory=list)

    def add(self, element):
        self.elements.append(element)

    def _coordinates(self):
        for element in self.elements:
            if isinstance(element, Segment):
                yield element.start
                yield element.end
            elif isinstance(element, Polyline):
                yield from element.points
            else:
                yield element.at

    def to_svg(self) -> str:
        """Emit SVG 1.1; the y axis is flipped so larger values draw upward."""
        points = list(self._coordinates())
        if not points:
            points = [(0.0, 0.0)]
        min_x = min(p[0] for p in points)
        max_x = max(p[0] for p in points)
        min_y = min(p[1] for p in points)
        max_y = max(p[1] for p in points)

        def fx(x):
            return _fmt(MARGIN + PIXELS_PER_UNIT * (x - min_x))

        def fy(y):
            return _fmt(MARGIN + PIXELS_PER_UNIT * (max_y - y))

        width = _fmt(2 * MARGIN + PIXELS_PER_UNIT * (max_x - min_x))
        height = _fmt(2 * MARGIN + PIXELS_PER_UNIT * (max_y - min_y))
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        ]
        for element in sorted(self.elements, key=lambda e: e.layer):
            color = ROLE_COLORS[element.role]
            if isinstance(element, Segment):
                dash = ' stroke-dasharray="6,4"' if element.dashed else ""
                lines.append(
                    f'<line class="{element.css_class}" '
                    f'x1="{fx(element.start[0])}" y1="{fy(element.start[1])}" '
                    f'x2="{fx(element.end[0])}" y2="{fy(element.end[1])}" '
                    f'stroke="{color}" stroke-width="{_fmt(element.width)}"{dash}/>')
            elif isinstance(element, Polyline):
                dash = ' stroke-dasharray="6,4"' if element.dashed else ""
                coords = " ".join(f"{fx(x)},{fy(y)}" for x, y in element.points)
                lines.append(
                    f'<polyline class="{element.css_class}" points="{coords}" '
                    f'fill="none" stroke="{color}" stroke-width="{_fmt(element.width)}"{dash}/>')
            else:
                lines.append(
                    f'<circle class="{element.css_class}" '
                    f'cx="{fx(element.at[0])}" cy="{fy(element.at[1])}" '
                    f'r="{_fmt(element.radius)}" fill="{color}"/>')
        lines.append("</svg>")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return f"{float(value):.2f}"


_EXTENT = {Axis.I: 2, Axis.J: 1, Axis.L: 1, Axis.R: 1}  # in units of n


def render_grid_2d(axes: AxisSet, n: int, proj: ProjectedPath | None = None) -> str:
    """A 2-axis grid with its isolines, plus an optional path polyline.

    The first (canonical) axis runs horizontally.  The l x r grid also
    carries the dashed diagonal ray joining the nodes with j = 0.
    """
    if len(axes) != 2:
        raise WrongArity(f"grid rendering needs exactly 2 axes, got {len(axes)}")
    if proj is not None and proj.axis_set != axes:
        raise ValueError("projected path does not match the grid axes")
    ax_x, ax_y = axes.axes
    w = _EXTENT[ax_x] * n
    h = _EXTENT[ax_y] * n
    scene = Scene()
    for x in range(w + 1):  # isolines of the horizontal axis are vertical lines
        scene.add(Segment((x, 0), (x, h), role=AXIS_ROLES[ax_x]))
    for y in range(h + 1):
        scene.add(Segment((0, y), (w, y), role=AXIS_ROLES[ax_y]))
    if {ax_x, ax_y} == {Axis.L, Axis.R}:
        scene.add(Segment((0, 0), (n, n), role="blue-j", layer=1,
                          css_class="diagonal", dashed=True, width=2.0))
    if proj is not None:
        scene.add(Polyline(tuple(proj.points), role="path", layer=2,
                           css_class="path", width=2.5))
    return scene.to_svg()


def _ortho_point(vertex) -> tuple[float, float]:
    i, j, l, r = vertex
    return (l + VIEW_J[0] * j + VIEW_I[0] * i,
            r + VIEW_J[1] * j + VIEW_I[1] * i)


def _schlegel_point(vertex, n: int) -> tuple[float, float]:
    i, j, l, r = vertex
    scale = 1.0 - (i / (2 * n)) * (1.0 - SCHLEGEL_INNER_SCALE)
    center = n / 2
    qj = center + scale * (j - center)
    ql = center + scale * (l - center)
    qr = center + scale * (r - center)
    return (ql + VIEW_J[0] * qj, qr + VIEW_J[1] * qj)


def _edge_role(a, b) -> str:
    for axis, (x, y) in zip((Axis.I, Axis.J, Axis.L, Axis.R), zip(a, b)):
        if x != y:
            return AXIS_ROLES[axis]
    return "neutral"


def render_wireframe(structure, style: str, include_triangle: bool = False):
    """Wireframe of the 4D box or one of its cells; returns (svg, edge_list).

    ``style`` is "orthographic-3d" (fixed oblique projection of the raw
    coordinates) or "schlegel" (two nested cubes: the i = 0 cell outside,
    the i = 2n cell inside at half scale, corresponding vertices joined).
    The nested-cube view also marks the triangle's three anchor nodes;
    ``include_triangle`` overlays the three side polylines in either style.
    The edge list is the exact integer 4D data, independent of the style.
    """
    if style not in ("orthographic-3d", "schlegel"):
        raise ValueError(f"unknown style {style!r}")
    is_box = isinstance(structure, DoubleTesseract)
    if style == "schlegel" and not is_box:
        raise ValueError("the nested-cube view needs the full 4D box")
    if include_triangle and not is_box:
        raise ValueError("the triangle overlay needs the full 4D box")

    if style == "schlegel":
        def mapper(v):
            return _schlegel_point(v, structure.n)
    else:
        mapper = _ortho_point

    positions = [mapper(v) for v in structure.vertices]
    scene = Scene()
    for a, b in structure.edges:
        scene.add(Segment(positions[a], positions[b],
                          role=_edge_role(structure.vertices[a], structure.vertices[b]),
                          layer=0, css_class="edge", width=1.5))
    for position in positions:
        scene.add(Marker(position, role="neutral", layer=2, css_class="vertex"))

    if style == "schlegel":
        n = structure.n
        tri = triangle(n)
        for anchor in (tri.vertex_origin, tri.vertex_apex, tri.vertex_end):
            scene.add(Marker(mapper(anchor), role="path", layer=3,
                             css_class="anchor", radius=4.5))
    if include_triangle:
        for ts in triangle(structure.n).sides:
            scene.add(Polyline(tuple(mapper(node) for node in ts.nodes),
                               role=SIDE_ROLES[ts.side], layer=4,
                               css_class=f"side-{ts.side.value}", width=2.5))

    return scene.to_svg(), edge_list_text(structure)


def edge_list_text(structure) -> str:
    """Plain text wireframe: lines "v i j l r" then "e a b" (0-based indices)."""
    lines = [f"v {v[0]} {v[1]} {v[2]} {v[3]}" for v in structure.vertices]
    lines += [f"e {a} {b}" for a, b in structure.edges]
    return "\n".join(lines) + "\n"
