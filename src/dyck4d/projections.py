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

from .errors import InconsistentProjection, InvalidProjection
from .lattice import _complete_pair
from .words import AXES, Path4D, _first, _first_bad_row


#: The 11 axis sets in canonical order: 6 pairs, 4 triples, the full set.
_AXIS_SETS = tuple("".join(combo) for size in (2, 3, 4)
                   for combo in itertools.combinations(AXES, size))


@dataclass(frozen=True)
class AxisSet:
    """2, 3 or all 4 distinct axes: their letters in canonical i, j, l, r order."""

    axes: str

    def __post_init__(self):
        if self.axes not in _AXIS_SETS:
            raise ValueError(f"axis set must be one of {', '.join(_AXIS_SETS)}")

    @classmethod
    def of(cls, text: str) -> "AxisSet":
        """Build from letters in any order or case, e.g. 'rl', 'l,r' or 'L R'."""
        letters = text.replace(",", "").replace(" ", "").lower()
        return cls("".join(sorted(letters, key=AXES.find)))

    def names(self) -> list[str]:
        return list(self.axes)

    def select(self) -> itemgetter:
        """Picks this set's coordinates, in order, out of an (i, j, l, r) sequence."""
        return itemgetter(*map(AXES.index, self.axes))

    def __len__(self) -> int:
        return len(self.axes)

    def __iter__(self):
        return iter(self.axes)


def all_modifications() -> tuple[AxisSet, ...]:
    """The 11 axis sets in canonical order: 6 pairs, 4 triples, the full set."""
    return tuple(map(AxisSet, _AXIS_SETS))


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
    completion = _complete_pair(first, columns[0], second, columns[1])
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

    ``axes`` is an array of one-letter strings in canonical order, as
    :func:`projected_path_as_json` writes it.  Raises :class:`InvalidProjection`
    for data of any other shape, and for points that are not arrays of one
    integer per axis.
    """
    try:
        names, points = data["axes"], data["points"]
        # One letter per axis: a join alone would also take "lr", {"l": 0, "r": 1} or ["lr"].
        if type(names) is not list or set(map(len, names)) - {1}:
            raise ValueError("axes must be an array of one-letter strings")
        axes = AxisSet("".join(names))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidProjection(str(exc)) from None
    bad = _first_bad_row(points, len(axes))
    if bad is not None:
        raise InvalidProjection(f"point {bad} is not {len(axes)} integers")
    return ProjectedPath(axes, points)
