"""Exact integer geometry of the path triangle and its enclosing 4D box.

All words of half-length n live between three straight sides: the *blue*
side along the nodes (2k, 0, k, k), the *red* side along (k, k, k, 0) and
the *yellow* side along (n+k, n-k, n, k).  The enclosing box — a
tesseract-like body whose edge in the i direction has double length —
is [0, 2n] x [0, n] x [0, n] x [0, n] in (i, j, l, r) order.

Every comparison involving lengths is done on squared integer norms;
floating point appears only in report values.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import _half_length
from .words import AXES, DOWN_STEP, ORIGIN, UP_STEP, LatticeNode, _nodes


def dot(a, b) -> int:
    """Exact scalar product of two integer 4-vectors."""
    return sum(x * y for x, y in zip(a, b, strict=True))


def sub(a, b) -> LatticeNode:
    return LatticeNode(*(x - y for x, y in zip(a, b, strict=True)))


def norm_squared(a) -> int:
    return dot(a, a)


#: The triangle's sides by colour, in report and drawing order.
SIDES = ("blue", "red", "yellow")


class TriangleSide(NamedTuple):
    side: str
    start: LatticeNode
    end: LatticeNode
    nodes: tuple[LatticeNode, ...]


class TriangleGeometry(NamedTuple):
    """The three vertices and three labeled sides of the triangle for one n."""

    n: int
    vertex_origin: LatticeNode
    vertex_end: LatticeNode
    vertex_apex: LatticeNode
    sides: tuple[TriangleSide, TriangleSide, TriangleSide]

    def side(self, which: str) -> TriangleSide:
        for side in self.sides:
            if side.side == which:
                return side
        raise KeyError(which)


def _ends(n: int) -> tuple[tuple[LatticeNode, LatticeNode, LatticeNode], dict]:
    """The vertices (origin, end, apex) and each side's (start, end) for half-length n."""
    end = LatticeNode(2 * n, 0, n, n)
    apex = LatticeNode(n, n, n, 0)
    sides = {"blue": (ORIGIN, end), "red": (ORIGIN, apex), "yellow": (apex, end)}
    return (ORIGIN, end, apex), sides


#: Each side's squared length at n = 1: the triangle at n is n times that unit triangle.
_UNIT_SQUARES = {side: norm_squared(sub(b, a)) for side, (a, b) in _ends(1)[1].items()}


def _side_columns(n: int) -> tuple:
    """Each side's (i, j, l, r) columns for half-length n, in ``SIDES`` order.

    A column is a range of n + 1 values or an unbounded repeat of a constant,
    which a zip with the ranges ends.  Unlike a tuple of n + 1 constants, a
    repeat has no size, which past ``sys.maxsize`` could not be allocated.
    """
    k = range(_half_length(n) + 1)
    return ((range(0, 2 * n + 1, 2), itertools.repeat(0), k, k),  # blue (2k, 0, k, k)
            (k, k, k, itertools.repeat(0)),  # red (k, k, k, 0)
            (range(n, 2 * n + 1), range(n, -1, -1), itertools.repeat(n), k))  # yellow


def triangle(n: int) -> TriangleGeometry:
    """Vertices and side node lists; degenerate but well-defined at n = 0."""
    columns = _side_columns(n)
    vertices, ends = _ends(n)
    sides = []
    for side, side_columns in zip(SIDES, columns):
        sides.append(TriangleSide(side, *ends[side], tuple(_nodes(zip(*side_columns)))))
    return TriangleGeometry(n, *vertices, tuple(sides))


def side_length_squared(side: str, n: int) -> int:
    """Squared Euclidean length of a side, an exact integer (6n² or 3n²)."""
    return _half_length(n) ** 2 * _UNIT_SQUARES[side]


def side_length(side: str, n: int) -> float:
    """Euclidean length of a side, √6·n or √3·n, as a float.

    Past n ≈ 1e154 the exact squared length no longer converts to a float;
    there the length is the integer square root, which is exact to float
    precision at that size.  OverflowError remains only when the length
    itself is beyond float range (n ≳ 7e307).
    """
    squared = side_length_squared(side, n)
    try:
        return math.sqrt(squared)
    except OverflowError:
        return float(math.isqrt(squared))


class FlatnessResult(NamedTuple):
    flat: bool
    witness: LatticeNode | None


def verify_flat(subject) -> FlatnessResult:
    """Check that every node q satisfies q = l·UP_STEP + r·DOWN_STEP exactly.

    That identity says q lies in the 2-plane spanned by the two step
    vectors through the origin; it reduces to i = l + r and j = l - r,
    since the l and r components are trivially equal.  ``subject`` may be
    a half-length n or any iterable of 4-tuples such as a Path4D; the first
    violating node is returned as witness.  The triangle of half-length n is
    checked on its three vertices alone, in O(1) time for any n.
    """
    if not hasattr(subject, "__iter__"):
        # Every node l·UP_STEP + r·DOWN_STEP, n >= l >= r >= 0, is an affine
        # combination of the origin, the end n·(UP_STEP + DOWN_STEP) and the
        # apex n·UP_STEP; i = l + r and j = l - r are linear, so the triangle
        # is flat exactly when its vertices are.
        subject = _ends(_half_length(subject))[0]
    for node in subject:
        i, j, l, r = node
        if i != l + r or j != l - r:
            return FlatnessResult(False, LatticeNode(i, j, l, r))
    return FlatnessResult(True, None)


class RightIsoscelesReport(NamedTuple):
    """Exact-arithmetic verdicts for the triangle of half-length n."""

    n: int
    right_angle: bool
    isosceles: bool
    pythagoras: bool
    direction_ab: LatticeNode
    direction_bc: LatticeNode


def verify_right_isosceles(n: int) -> RightIsoscelesReport:
    """Right angle, equal legs and the Pythagorean identity, all as integers.

    The right angle is tested at the apex: the red leg runs into it along
    UP_STEP and the yellow leg out of it along DOWN_STEP, and the scalar
    product of the two step vectors vanishes.
    """
    _half_length(n, 1)
    red2, yellow2, blue2 = (side_length_squared(side, n) for side in ("red", "yellow", "blue"))
    return RightIsoscelesReport(
        n=n,
        right_angle=dot(UP_STEP, DOWN_STEP) == 0,
        isosceles=red2 == yellow2,
        pythagoras=red2 + yellow2 == blue2,
        direction_ab=UP_STEP,
        direction_bc=DOWN_STEP,
    )


def _box_edges(vertices) -> tuple[tuple[int, int], ...]:
    """Index pairs of corners that differ in exactly one coordinate."""
    pairs = []
    for a, b in itertools.combinations(range(len(vertices)), 2):
        if sum(1 for x, y in zip(vertices[a], vertices[b]) if x != y) == 1:
            pairs.append((a, b))
    return tuple(pairs)


class Cell(NamedTuple):
    """One 3D face of the box: the corners with ``axis``, a letter, pinned to ``value``."""

    axis: str
    value: int
    vertex_indices: tuple[int, ...]
    vertices: tuple[LatticeNode, ...]
    is_cube: bool

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The 12 edges of the cell, as index pairs into its own vertex list."""
        return _CELL_EDGES


class DoubleTesseract(NamedTuple):
    """The box [0, 2n] x [0, n]³: 16 vertices, 32 edges, 8 cells.

    Exactly the two cells pinning the i axis are cubes of side n; the
    other six are 2n x n x n boxes.
    """

    n: int
    vertices: tuple[LatticeNode, ...]
    edges: tuple[tuple[int, int], ...]
    cells: tuple[Cell, ...]

    def cell(self, axis: str, value: int) -> Cell:
        for cell in self.cells:
            if cell.axis == axis and cell.value == value:
                return cell
        raise KeyError((axis, value))


def double_tesseract(n: int) -> DoubleTesseract:
    """Vertices, edges and cells of the enclosing box for half-length n."""
    extents = tuple(e * _half_length(n, 1) for e in _EXTENTS)
    vertices = _box_corners((0, e) for e in extents)
    cells = []
    for position, axis in enumerate(AXES):
        for value, indices in zip((0, extents[position]), _CELL_INDICES[position]):
            cells.append(Cell(
                axis=axis,
                value=value,
                vertex_indices=indices,
                vertices=tuple(vertices[k] for k in indices),
                is_cube=_CUBE_CELLS[position],
            ))
    return DoubleTesseract(n, vertices, _BOX_EDGES, tuple(cells))


def _box_corners(bounds) -> tuple[LatticeNode, ...]:
    """Corners of an axis-aligned box given (lo, hi) per axis; lo == hi collapses."""
    choices = tuple((lo,) if lo == hi else (lo, hi) for lo, hi in bounds)
    return tuple(_nodes(itertools.product(*choices)))


# The box's extent along each axis, in units of n: [0, 2n] x [0, n]³.  Every box
# with four positive extents lists its corners in the unit box's order, so it
# shares the unit box's topology: its edges as corner index pairs and, per axis,
# the corner indices of its low and its high cell.  Every cell lists its corners
# in the order of the unit box's first 8, its low i cell, so all share their edges.
# An axis's two cells are cubes when the other three extents are equal.
_EXTENTS = (2, 1, 1, 1)
_UNIT_CORNERS = _box_corners(((0, 1),) * 4)
_BOX_EDGES = _box_edges(_UNIT_CORNERS)
_CELL_INDICES = tuple(tuple(tuple(k for k, v in enumerate(_UNIT_CORNERS) if v[position] == value)
                            for value in (0, 1))
                      for position in range(4))
_CELL_EDGES = _box_edges(_UNIT_CORNERS[:8])
_CUBE_CELLS = tuple(len(set(_EXTENTS[:p] + _EXTENTS[p + 1:])) == 1 for p in range(4))


class SideFace(NamedTuple):
    """Where one triangle side sits inside the box.

    The blue side is the full diagonal of its cell; the red and yellow
    sides are diagonals of one half of theirs, obtained by splitting the
    cell at i = n (``half`` names the kept half, ``cube_vertices`` its
    corners).
    """

    side: str
    cell: Cell
    half: str | None
    cube_vertices: tuple[LatticeNode, ...] | None
    diagonal: tuple[LatticeNode, LatticeNode]


def face_of_side(side: str, n: int) -> SideFace:
    """The 3D face holding a side, plus the half-cube whose diagonal it is."""
    box = double_tesseract(n)
    diagonal = _ends(n)[1][side]
    if side == "blue":
        return SideFace(side, box.cell("j", 0), None, None, diagonal)
    cube = _box_corners(map(sorted, zip(*diagonal)))  # the diagonal's bounding box
    if side == "red":
        return SideFace(side, box.cell("r", 0), "low-i", cube, diagonal)
    return SideFace(side, box.cell("l", n), "high-i", cube, diagonal)


def _summary(n: int) -> dict:
    """:func:`geometry_report` without the 3(n + 1) side nodes, which only JSON prints."""
    (origin, end, apex), ends = _ends(n)
    sides = {}
    for side, (start, stop) in ends.items():
        sides[side] = {
            "start": list(start),
            "end": list(stop),
            "squared_length": side_length_squared(side, n),
            "length": side_length(side, n),
        }
    report = {
        "n": n,
        "vertices": {
            "origin": list(origin),
            "end": list(end),
            "apex": list(apex),
        },
        "sides": sides,
        "flat": verify_flat(n).flat,
    }
    if n >= 1:
        check = verify_right_isosceles(n)
        report["checks"] = {
            "right_angle": check.right_angle,
            "isosceles": check.isosceles,
            "pythagoras": check.pythagoras,
            "direction_ab": list(check.direction_ab),
            "direction_bc": list(check.direction_bc),
            "dot": dot(check.direction_ab, check.direction_bc),
        }
        report["tesseract"] = {  # the census of every box, read off the unit box
            "vertices": len(_UNIT_CORNERS),
            "edges": len(_BOX_EDGES),
            "cells": sum(map(len, _CELL_INDICES)),
            "cube_cells": sum(map(len, itertools.compress(_CELL_INDICES, _CUBE_CELLS))),
        }
    return report


def geometry_report(n: int) -> dict:
    """JSON-ready report: triangle data, exact verdicts and the box census."""
    report = _summary(n)
    for side, columns in zip(SIDES, _side_columns(n)):
        report["sides"][side]["nodes"] = list(map(list, zip(*columns)))
    return report
