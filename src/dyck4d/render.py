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

from functools import partial
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

from .errors import WrongArity, _half_length
from .geometry import SIDES, _EXTENTS, DoubleTesseract, _ends, _side_columns
from .projections import ProjectedPath, _canonical
from .words import AXES

ROLE_COLORS = {
    "yellow-l": "#E8C547",
    "red-r": "#C0392B",
    "blue-j": "#2E6DA4",
    "green-i": "#27AE60",
    "path": "#111111",
    "neutral": "#888888",
}

AXIS_ROLES = {"i": "green-i", "j": "blue-j", "l": "yellow-l", "r": "red-r"}

SIDE_ROLES = {"blue": "blue-j", "red": "red-r", "yellow": "yellow-l"}

PIXELS_PER_UNIT = 40
MARGIN = 20

#: Oblique (x, y) drift per unit of j in the 3D part of both views.
VIEW_J = (0.45, 0.35)
#: Oblique drift per unit of i in the plain orthographic view.
VIEW_I = (0.22, 0.62)
#: Scale of the inner cell relative to the outer one in the nested-cube view.
SCHLEGEL_INNER_SCALE = 0.5


class Element(NamedTuple):
    """One or more drawing elements: the x and the y column of their points in
    source coordinates, and their finished SVG text with one ``{}`` per pixel
    coordinate, x then y for each point in column order.  The text may hold
    several lines, joined by newlines, when one set of columns draws them all."""

    xs: tuple
    ys: tuple
    svg: str


def _stroke(role: str, width: float, dashed: bool) -> str:
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'stroke="{ROLE_COLORS[role]}" stroke-width="{_fmt(width)}"{dash}'


def _line(role, css_class="grid", dashed=False, width=1.0) -> str:
    return (f'<line class="{css_class}" x1="{{}}" y1="{{}}" '
            f'x2="{{}}" y2="{{}}" {_stroke(role, width, dashed)}/>')


def _polyline(xs, ys, role, css_class="path") -> Element:
    coords = " ".join(repeat("{},{}", len(xs)))
    return Element(xs, ys, f'<polyline class="{css_class}" points="{coords}" '
                           f'fill="none" {_stroke(role, 2.5, False)}/>')


def _circle(role, css_class="vertex", radius=3.0) -> str:
    return (f'<circle class="{css_class}" cx="{{}}" cy="{{}}" '
            f'r="{_fmt(radius)}" fill="{ROLE_COLORS[role]}"/>')


def _to_svg(elements) -> str:
    """Emit SVG 1.1 of ``Element``s in source (lattice) coordinates, drawn in list
    order; the y axis is flipped so larger values draw upward."""
    xs = list(chain.from_iterable(map(attrgetter("xs"), elements))) or [0.0]
    ys = list(chain.from_iterable(map(attrgetter("ys"), elements))) or [0.0]
    width, px = _pixel_column(xs, flip=False)
    height, py = _pixel_column(ys, flip=True)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        *map(attrgetter("svg"), elements),
        "</svg>\n",
    ]
    pixels = [""] * (2 * len(px))
    pixels[0::2], pixels[1::2] = px, py
    return "\n".join(lines).format(*pixels)


#: An int below this is exact in binary64, so its float formats as its digits + ".00".
_EXACT_INT = 2**53


def _pixel_column(values, flip: bool) -> tuple[str, list[str]]:
    """The canvas extent along one axis and every value's pixel, as ``_fmt`` text.

    A pixel is MARGIN + PIXELS_PER_UNIT * (v - min), or (max - v) when ``flip``,
    computed as -PIXELS_PER_UNIT * (v - max), which is the same float.  An all-int
    column whose extent is below ``_EXACT_INT`` stays in ints and skips float
    formatting: every pixel lies inside the extent, so it is exact.  Each of its
    distinct values is formatted once, so a grid's isolines, which repeat every
    value, format each pixel once.
    """
    lo, hi = min(values), max(values)
    extent = 2 * MARGIN + PIXELS_PER_UNIT * (hi - lo)
    origin, scale = (hi, -PIXELS_PER_UNIT) if flip else (lo, PIXELS_PER_UNIT)
    if extent < _EXACT_INT and set(map(type, values)) == {int}:
        table = {v: f"{MARGIN + scale * (v - origin)}.00" for v in set(values)}
        return f"{extent}.00", list(map(table.__getitem__, values))
    return _fmt(extent), _fmt_all([MARGIN + scale * (v - origin) for v in values])


def _fmt(value) -> str:
    return f"{float(value):.2f}"


def _fmt_all(values) -> list[str]:
    """``_fmt`` of every value of a sequence, with one ``%`` call: ``%.2f`` converts
    an int with ``float`` and formats a float as ``format(value, ".2f")`` does."""
    return ("%.2f\n" * len(values) % tuple(values)).split("\n")[:-1]


def render_grid_2d(axes: str, n: int, proj: ProjectedPath | None = None) -> str:
    """A 2-axis grid with its isolines, plus an optional path polyline.

    The first (canonical) axis runs horizontally.  The l x r grid also
    carries the dashed diagonal ray joining the nodes with j = 0.
    """
    if proj is None:
        return _grid(axes, n)
    return _grid(axes, n, tuple(zip(*proj.points)) or ((), ()), proj.axes)


def _grid(axes: str, n: int, overlay=None, overlay_axes=None) -> str:
    """:func:`render_grid_2d` with the path given as its (x, y) columns, or None,
    projected onto ``overlay_axes``, which must then be ``axes`` when given."""
    if len(_canonical(axes)) != 2:
        raise WrongArity(f"grid rendering needs exactly 2 axes, got {len(axes)}")
    if overlay_axes not in (None, axes):
        raise ValueError("projected path does not match the grid axes")
    ax_x, ax_y = axes
    w = _EXTENTS[AXES.index(ax_x)] * _half_length(n)
    h = _EXTENTS[AXES.index(ax_y)] * n
    # Isolines of the horizontal axis are vertical lines.  Each family is one
    # element: its lines share one text, and its columns hold both ends of each.
    xs, ys = range(w + 1), range(h + 1)
    vertical, horizontal = _line(AXIS_ROLES[ax_x]), _line(AXIS_ROLES[ax_y])
    elements = [Element(tuple(chain.from_iterable(zip(xs, xs))), (0, h) * len(xs),
                        "\n".join(repeat(vertical, len(xs)))),
                Element((0, w) * len(ys), tuple(chain.from_iterable(zip(ys, ys))),
                        "\n".join(repeat(horizontal, len(ys))))]
    if axes == "lr":
        elements.append(Element((0, n), (0, n), _line("blue-j", css_class="diagonal",
                                                      dashed=True, width=2.0)))
    if overlay is not None:
        elements.append(_polyline(*overlay, role="path"))
    return _to_svg(elements)


def _ortho_columns(i, j, l, r) -> tuple[list, list]:
    """The plain orthographic view of points given as (i, j, l, r) columns: their
    x column l + VIEW_J[0] * j + VIEW_I[0] * i and their y column r + VIEW_J[1] * j
    + VIEW_I[1] * i, each point's floats computed in that order."""
    (xj, yj), (xi, yi) = VIEW_J, VIEW_I
    return ([c + xj * b + xi * a for a, b, c in zip(i, j, l)],
            [d + yj * b + yi * a for a, b, d in zip(i, j, r)])


def _schlegel_columns(n: int, i, j, l, r) -> tuple[list, list]:
    """The nested-cube view of points given as (i, j, l, r) columns: j, l and r
    scaled about the centre n / 2 by 1 - (i / (2n)) * (1 - SCHLEGEL_INNER_SCALE),
    then the x column l + VIEW_J[0] * j and the y column r + VIEW_J[1] * j, each
    point's floats computed in that order."""
    center, double_n, shrink = n / 2, 2 * n, 1.0 - SCHLEGEL_INNER_SCALE
    (xj, yj), xs, ys = VIEW_J, [], []
    for a, b, c, d in zip(i, j, l, r):
        scale = 1.0 - (a / double_n) * shrink
        qj = center + scale * (b - center)
        xs.append(center + scale * (c - center) + xj * qj)
        ys.append(center + scale * (d - center) + yj * qj)
    return xs, ys


def _edge_role(a, b) -> str:
    """The role of the axis along which an edge from corner ``a`` to ``b`` runs."""
    return AXIS_ROLES[next(axis for axis, x, y in zip(AXES, a, b) if x != y)]


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

    view = partial(_schlegel_columns, structure.n) if style == "schlegel" else _ortho_columns
    vertices, edges = structure.vertices, structure.edges  # a Cell's edges are computed
    xs, ys = view(*zip(*vertices))
    # All edges are one element, as a grid's isolines: its columns hold both ends of each.
    ends = tuple(chain.from_iterable(edges))
    lines = (_line(_edge_role(vertices[a], vertices[b]), css_class="edge", width=1.5)
             for a, b in edges)
    elements = [Element(tuple(map(xs.__getitem__, ends)), tuple(map(ys.__getitem__, ends)),
                        "\n".join(lines)),
                Element(xs, ys, "\n".join(repeat(_circle("neutral"), len(xs))))]

    if style == "schlegel":
        origin, end, apex = _ends(structure.n)[0]
        anchor = _circle("path", css_class="anchor", radius=4.5)
        elements.append(Element(*view(*zip(origin, apex, end)), "\n".join(repeat(anchor, 3))))
    if include_triangle:
        for side, columns in zip(SIDES, _side_columns(structure.n)):
            elements.append(_polyline(*view(*columns), SIDE_ROLES[side], f"side-{side}"))

    return _to_svg(elements), edge_list_text(structure)


def edge_list_text(structure) -> str:
    """Plain text wireframe: lines "v i j l r" then "e a b" (0-based indices)."""
    lines = [f"v {v[0]} {v[1]} {v[2]} {v[3]}" for v in structure.vertices]
    lines += [f"e {a} {b}" for a, b in structure.edges]
    return "\n".join(lines) + "\n"
