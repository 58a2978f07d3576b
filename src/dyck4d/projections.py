"""The eleven coordinate-grid images of 4D paths, with lossless lifting.

Choosing 2, 3 or all 4 of the axes {i, j, l, r} gives 6 + 4 + 1 = 11
grids.  Because any two coordinates determine the other two, projecting a
path onto any of these grids loses nothing: :func:`lift` reconstructs the
original path exactly, and fails loudly on data no projection could have
produced.
"""

from __future__ import annotations

import itertools
from operator import itemgetter, ne
from typing import NamedTuple

from .errors import InconsistentProjection, InvalidProjection, _formatted
from .lattice import _complete_pair
from .words import AXES, Path4D, _first, _first_bad_row, _path_columns, _path_of


#: The 11 axis sets in canonical order: 6 pairs, 4 triples, the full set.  An
#: axis set is 2, 3 or all 4 distinct axes: their letters in i, j, l, r order.
AXIS_SETS = tuple("".join(combo) for size in (2, 3, 4)
                  for combo in itertools.combinations(AXES, size))


def _canonical(axes) -> str:
    """``axes`` itself when it is one of :data:`AXIS_SETS`, else ValueError."""
    if axes not in AXIS_SETS:
        raise ValueError(f"axis set must be one of {', '.join(AXIS_SETS)}")
    return axes


def axis_set(text: str) -> str:
    """The axis set of letters in any order or case, e.g. 'rl', 'l,r' or 'L R'."""
    letters = text.replace(",", "").replace(" ", "").lower()
    return _canonical("".join(sorted(letters, key=AXES.find)))


class ProjectedPath(NamedTuple):
    """The image of a path in one coordinate grid: an axis set and one point per node.

    Whether the points form the image of an actual path is decided by :func:`lift`.
    """

    axes: str
    points: tuple


def _selector(axes):
    """The ``itemgetter`` of the coordinates of ``axes``: it selects a point from a
    node, and the projected columns from a path's (i, j, l, r) columns."""
    return itemgetter(*map(AXES.index, _canonical(axes)))


def project(path: Path4D, axes: str) -> ProjectedPath:
    """Pointwise coordinate selection, in node order; checks the axis set first,
    then ``path`` as :class:`Path4D` checks it."""
    return ProjectedPath(axes, tuple(map(_selector(axes), Path4D(path))))


def _lift_columns(axes: str, points) -> tuple[tuple[int, ...], ...]:
    """The (i, j, l, r) columns of the path whose projection onto ``axes`` is
    ``points``, a sequence of tuples or lists; raises as :func:`lift` does."""
    select = _selector(axes)
    if set(map(len, points)) - {len(axes)}:
        wrong = _first(map(ne, map(len, points), itertools.repeat(len(axes))))
        raise ValueError(f"point {points[wrong]} does not match {len(axes)} axes")
    first, second = axes[:2]
    columns = tuple(zip(*points)) or ((),) * len(axes)
    completion = _complete_pair(first, columns[0], second, columns[1])
    if select(completion) != columns:
        nodes = tuple(zip(*completion))
        index = _first(map(ne, map(select, nodes), zip(*columns)))
        raise InconsistentProjection(index, _formatted(
            "completion {} projects back to {}", nodes[index], select(nodes[index]),
            fallback="the completion does not project back to the point"))
    return _path_columns(completion)


def lift(proj: ProjectedPath) -> Path4D:
    """The unique path whose projection onto ``proj.axes`` equals ``proj``.

    Raises ValueError for a point whose width is not the number of axes,
    :class:`InconsistentProjection` for the first point that its
    completion from its first two coordinates does not project back to, and
    :class:`MalformedPath` when the completed nodes do not form a path.
    Lattice membership is left to the path check, so a structurally
    sound but invalid node sequence surfaces as MalformedPath.
    """
    return _path_of(_lift_columns(proj.axes, tuple(map(tuple, proj.points))))


def projected_path_from_json(data) -> ProjectedPath:
    """Rebuild a projected path; the axis set is always taken from the data.

    ``axes`` is an array of one-letter strings in canonical order, as ``dyck4d
    project`` and ``json.dumps({"axes": list(proj.axes), "points": proj.points})``
    write it.  Raises :class:`InvalidProjection` for data of any other shape, and
    for points that are not arrays of one integer per axis.
    """
    axes, points = _json_rows(data)
    return ProjectedPath(axes, tuple(map(tuple, points)))


def _json_rows(data) -> tuple[str, list]:
    """The axis set and the point arrays of the JSON form of a projection, checked
    as :func:`projected_path_from_json` checks them."""
    try:
        names, points = data["axes"], data["points"]
        # One letter per axis: a join alone would also take "lr", {"l": 0, "r": 1} or ["lr"].
        if type(names) is not list or set(map(len, names)) - {1}:
            raise ValueError("axes must be an array of one-letter strings")
        axes = _canonical("".join(names))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidProjection(str(exc)) from None
    bad = _first_bad_row(points, len(axes))
    if bad is not None:
        raise InvalidProjection(f"point {bad} is not {len(axes)} integers")
    return axes, points
