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
from operator import itemgetter, ne
from typing import Iterable

from .errors import InconsistentProjection, InvalidProjection
from .lattice import _complete_pair
from .words import AXES, AXIS_INDEX, Axis, Path4D, _first, _first_bad_row


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

    def select(self) -> itemgetter:
        """Picks this set's coordinates, in order, out of an (i, j, l, r) sequence."""
        return itemgetter(*map(AXIS_INDEX.get, self.axes))

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
        points = tuple(map(tuple, self.points))
        if set(map(len, points)) - {width}:
            wrong = _first(map(ne, map(len, points), itertools.repeat(width)))
            raise ValueError(f"point {points[wrong]} does not match {width} axes")
        object.__setattr__(self, "points", points)


def project(path: Path4D, axes: AxisSet) -> ProjectedPath:
    """Pointwise coordinate selection; the node order is preserved."""
    return ProjectedPath(axes, tuple(map(axes.select(), path.nodes)))


def lift(proj: ProjectedPath) -> Path4D:
    """The unique path whose projection onto ``proj.axis_set`` equals ``proj``.

    Raises :class:`InconsistentProjection` for the first point that its
    completion from its first two coordinates does not project back to, and
    :class:`MalformedPath` when the completed nodes do not form a path.
    Lattice membership is left to the path constructor, so a structurally
    sound but invalid node sequence surfaces as MalformedPath.
    """
    first, second = proj.axis_set.axes[:2]
    columns = tuple(zip(*proj.points)) or ((),) * len(proj.axis_set)
    completion = _complete_pair(first.value, columns[0], second.value, columns[1])
    nodes = tuple(zip(*completion))
    select = proj.axis_set.select()
    if select(completion) != columns:
        index = _first(map(ne, map(select, nodes), proj.points))
        raise InconsistentProjection(
            index, f"completion {nodes[index]} projects back to {select(nodes[index])}")
    return Path4D(nodes)


def projected_path_as_json(proj: ProjectedPath) -> dict:
    """JSON form: {"axes": ["l", "r"], "points": [[0, 0], ...]}."""
    return {"axes": proj.axis_set.names(), "points": [list(p) for p in proj.points]}


def projected_path_from_json(data) -> ProjectedPath:
    """Rebuild a projected path; the axis set is always taken from the data.

    Raises :class:`InvalidProjection` for data of any other shape, and for
    points that are not arrays of one integer per axis.
    """
    try:
        axes = AxisSet.of(data["axes"])
        points = data["points"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidProjection(str(exc)) from None
    bad = _first_bad_row(points, len(axes))
    if bad is not None:
        raise InvalidProjection(f"point {bad} is not {len(axes)} integers")
    return ProjectedPath(axes, points)
