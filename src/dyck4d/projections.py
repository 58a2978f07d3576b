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
from .lattice import _PAIR_TO_LR, _complete_pair
from .words import (AXES, Path4D, _canonical_columns, _first, _first_bad_row, _int_columns,
                    _path_columns, _path_of)


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


def _lift_columns(axes: str, columns) -> tuple[tuple[int, ...], ...]:
    """The canonical (i, j, l, r) columns of the path whose projection onto ``axes``
    has the columns ``columns``, one per axis; raises as :func:`lift` does.

    The first two columns fix the l column, so the one candidate is the canonical
    path of the word l spells, '(' wherever l changes: the columns lift when that
    path projects to them with j >= 0 throughout, exactly when their completion
    projects back to them and is a path.  Only a rejection completes the points,
    to name the first bad point or node.
    """
    select, (x, y), (a, b) = _selector(axes), axes[:2], columns[:2]
    l = tuple(_PAIR_TO_LR[x, y](a, b)[0])
    canonical = _canonical_columns(map(ne, l[1:], l))
    if select(canonical) == columns and min(canonical[1]) >= 0:
        return canonical
    completion = _complete_pair(x, a, y, b)
    if select(completion) != columns:
        nodes = tuple(zip(*completion))
        index = _first(map(ne, map(select, nodes), zip(*columns)))
        raise InconsistentProjection(index, _formatted(
            "completion {} projects back to {}", nodes[index], select(nodes[index]),
            fallback="the completion does not project back to the point"))
    return _path_columns(completion)  # raises: the completion is no path


def lift(proj: ProjectedPath) -> Path4D:
    """The unique path whose projection onto ``proj.axes`` equals ``proj``.

    Raises ValueError for a point whose width is not the number of axes,
    :class:`InconsistentProjection` for the first point that its
    completion from its first two coordinates does not project back to, and
    :class:`MalformedPath` when the completed nodes do not form a path.
    Lattice membership is left to the path check, so a structurally
    sound but invalid node sequence surfaces as MalformedPath.  A projection
    that lifts costs one canonical build and no completion (see
    :func:`_lift_columns`).
    """
    points = tuple(map(tuple, proj.points))
    width = len(_canonical(proj.axes))
    if set(map(len, points)) - {width}:
        wrong = _first(map(ne, map(len, points), itertools.repeat(width)))
        raise ValueError(f"point {points[wrong]} does not match {width} axes")
    return _path_of(_lift_columns(proj.axes, tuple(zip(*points)) or ((),) * width))


def projected_path_from_json(data) -> ProjectedPath:
    """Rebuild a projected path; the axis set is always taken from the data.

    ``axes`` is an array of one-letter strings in canonical order, as ``dyck4d
    project`` and ``json.dumps({"axes": list(proj.axes), "points": proj.points})``
    write it.  Raises :class:`InvalidProjection` for data of any other shape, and
    for points that are not arrays of one integer per axis.
    """
    axes, columns = _json_columns(data)
    return ProjectedPath(axes, tuple(zip(*columns)))


def _json_columns(data) -> tuple[str, tuple]:
    """The axis set and the point columns of the JSON form of a projection, checked
    as :func:`projected_path_from_json` checks it."""
    try:
        names, points = data["axes"], data["points"]
        # One letter per axis: a join alone would also take "lr", {"l": 0, "r": 1} or ["lr"].
        if type(names) is not list or set(map(len, names)) - {1}:
            raise ValueError("axes must be an array of one-letter strings")
        axes = _canonical("".join(names))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidProjection(str(exc)) from None
    columns = _int_columns(points, len(axes))
    if columns is None:
        bad = _first_bad_row(points, len(axes))
        raise InvalidProjection(f"point {bad} is not {len(axes)} integers")
    return axes, columns
