"""The eleven coordinate-grid images of 4D paths, with lossless lifting.

Choosing 2, 3 or all 4 of the axes {i, j, l, r} gives 6 + 4 + 1 = 11
grids.  Because any two coordinates determine the other two, projecting a
path onto any of these grids loses nothing: :func:`lift` reconstructs the
original path exactly, and fails loudly on data no projection could have
produced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import InconsistentProjection, ParityViolation
from .lattice import _complete_pair
from .words import AXES, AXIS_INDEX, Axis, Path4D


@dataclass(frozen=True)
class AxisSet:
    """2, 3 or all 4 distinct axes, kept in canonical i < j < l < r order."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(set(axes)) != len(axes):
            raise ValueError("axis set has a repeated axis")
        if not 2 <= len(axes) <= 4:
            raise ValueError("axis set must have 2, 3 or 4 axes")
        object.__setattr__(self, "axes", tuple(sorted(axes, key=AXIS_INDEX.get)))

    @classmethod
    def of(cls, descriptor: str | Iterable[Axis | str]) -> "AxisSet":
        """Build from e.g. 'lr', 'l,r', ['l', 'r'] or Axis members."""
        if isinstance(descriptor, str):
            descriptor = descriptor.replace(",", "").replace(" ", "")
        axes = tuple(a if isinstance(a, Axis) else Axis(str(a).lower()) for a in descriptor)
        return cls(axes)

    def names(self) -> list[str]:
        return [axis.value for axis in self.axes]

    def __len__(self) -> int:
        return len(self.axes)

    def __iter__(self):
        return iter(self.axes)


def all_modifications() -> tuple[AxisSet, ...]:
    """The 11 axis sets in canonical order: 6 pairs, 4 triples, the full set."""
    sets = []
    for size in (2, 3, 4):
        for combo in itertools.combinations(AXES, size):
            sets.append(AxisSet(combo))
    return tuple(sets)


@dataclass(frozen=True)
class ProjectedPath:
    """The image of a path in one coordinate grid.

    Only the point width is validated here; whether the points form the
    image of an actual path is decided by :func:`lift`.
    """

    axis_set: AxisSet
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        width = len(self.axis_set)
        points = tuple(tuple(point) for point in self.points)
        for point in points:
            if len(point) != width:
                raise ValueError(f"point {point} does not match {width} axes")
        object.__setattr__(self, "points", points)


def project(path: Path4D, axes: AxisSet) -> ProjectedPath:
    """Pointwise coordinate selection; the node order is preserved."""
    columns = tuple(AXIS_INDEX[axis] for axis in axes)
    points = tuple(tuple(node[c] for c in columns) for node in path.nodes)
    return ProjectedPath(axes, points)


def lift(proj: ProjectedPath) -> Path4D:
    """The unique path whose projection onto ``proj.axis_set`` equals ``proj``.

    Raises :class:`InconsistentProjection` for a point whose completion is
    non-integral or whose redundant coordinates contradict the first two,
    and :class:`MalformedPath` when the completed nodes do not form a path.
    Lattice membership is left to the path constructor, so a structurally
    sound but invalid node sequence surfaces as MalformedPath.
    """
    first, second, *rest = proj.axis_set.axes
    nodes = []
    for index, point in enumerate(proj.points):
        a, b = point[0], point[1]
        try:
            node = _complete_pair(first.value, a, second.value, b)
        except ParityViolation:
            raise InconsistentProjection(
                index, f"i={a} and j={b} have different parity") from None
        for axis, value in zip(rest, point[2:]):
            if node[AXIS_INDEX[axis]] != value:
                raise InconsistentProjection(
                    index, f"coordinate {axis.value}={value} contradicts completion {tuple(node)}")
        nodes.append(node)
    return Path4D(tuple(nodes))


def projected_path_as_json(proj: ProjectedPath) -> dict:
    """JSON form: {"axes": ["l", "r"], "points": [[0, 0], ...]}."""
    return {"axes": proj.axis_set.names(), "points": [list(p) for p in proj.points]}


def projected_path_from_json(data: dict) -> ProjectedPath:
    """Rebuild a projected path; the axis set is always taken from the data."""
    axes = AxisSet.of(data["axes"])
    points = tuple(tuple(int(v) for v in point) for point in data["points"])
    return ProjectedPath(axes, points)
