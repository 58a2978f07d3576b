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
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import lattice
from .words import AXES, Axis, DOWN_STEP, LatticeNode, Path4D, UP_STEP


#: An integer 4-vector in (i, j, l, r) component order: the node type itself.
Vec4 = LatticeNode


UP = Vec4(*UP_STEP)
DOWN = Vec4(*DOWN_STEP)


def dot(a, b) -> int:
    """Exact scalar product of two integer 4-vectors."""
    return sum(x * y for x, y in zip(a, b, strict=True))


def sub(a, b) -> Vec4:
    return Vec4(*(x - y for x, y in zip(a, b, strict=True)))


def norm_squared(a) -> int:
    return dot(a, a)


class Side(Enum):
    BLUE = "blue"
    RED = "red"
    YELLOW = "yellow"


@dataclass(frozen=True)
class TriangleSide:
    side: Side
    start: LatticeNode
    end: LatticeNode
    nodes: tuple[LatticeNode, ...]


@dataclass(frozen=True)
class TriangleGeometry:
    """The three vertices and three labeled sides of the triangle for one n."""

    n: int
    vertex_origin: LatticeNode
    vertex_end: LatticeNode
    vertex_apex: LatticeNode
    sides: tuple[TriangleSide, TriangleSide, TriangleSide]

    def side(self, which: Side) -> TriangleSide:
        for side in self.sides:
            if side.side is which:
                return side
        raise KeyError(which)


def _ends(n: int) -> tuple[tuple[LatticeNode, LatticeNode, LatticeNode], dict]:
    """The vertices (origin, end, apex) and each side's (start, end) for half-length n."""
    origin = LatticeNode(0, 0, 0, 0)
    end = LatticeNode(2 * n, 0, n, n)
    apex = LatticeNode(n, n, n, 0)
    sides = {Side.BLUE: (origin, end), Side.RED: (origin, apex), Side.YELLOW: (apex, end)}
    return (origin, end, apex), sides


def triangle(n: int) -> TriangleGeometry:
    """Vertices and side node lists; degenerate but well-defined at n = 0."""
    if n < 0:
        raise ValueError("half-length must be non-negative")
    vertices, ends = _ends(n)
    blue = TriangleSide(Side.BLUE, *ends[Side.BLUE],
                        tuple(LatticeNode(2 * k, 0, k, k) for k in range(n + 1)))
    red = TriangleSide(Side.RED, *ends[Side.RED],
                       tuple(LatticeNode(k, k, k, 0) for k in range(n + 1)))
    yellow = TriangleSide(Side.YELLOW, *ends[Side.YELLOW],
                          tuple(LatticeNode(n + k, n - k, n, k) for k in range(n + 1)))
    return TriangleGeometry(n, *vertices, (blue, red, yellow))


def side_length_squared(side: Side, n: int) -> int:
    """Squared Euclidean length of a side, an exact integer (6n² or 3n²)."""
    if n < 0:
        raise ValueError("half-length must be non-negative")
    start, end = _ends(n)[1][side]
    return norm_squared(sub(end, start))


def side_length(side: Side, n: int) -> float:
    return math.sqrt(side_length_squared(side, n))


class FlatnessResult(NamedTuple):
    flat: bool
    witness: LatticeNode | None


def verify_flat(subject) -> FlatnessResult:
    """Check that every node q satisfies q = l·UP + r·DOWN exactly.

    That identity says q lies in the 2-plane spanned by the two step
    vectors through the origin; it reduces to i = l + r and j = l - r,
    since the l and r components are trivially equal.  ``subject`` may be
    a Path4D, a bounded LatticeRegion, or any iterable of 4-tuples; the
    first violating node is returned as witness.
    """
    if isinstance(subject, Path4D):
        nodes = subject.nodes
    elif isinstance(subject, lattice.LatticeRegion):
        nodes = lattice.enumerate_nodes(subject)
    else:
        nodes = subject
    for node in nodes:
        i, j, l, r = node
        if i != l + r or j != l - r:
            return FlatnessResult(False, LatticeNode(i, j, l, r))
    return FlatnessResult(True, None)


@dataclass(frozen=True)
class RightIsoscelesReport:
    """Exact-arithmetic verdicts for the triangle of half-length n."""

    n: int
    right_angle: bool
    isosceles: bool
    pythagoras: bool
    direction_ab: Vec4
    direction_bc: Vec4


def verify_right_isosceles(n: int) -> RightIsoscelesReport:
    """Right angle, equal legs and the Pythagorean identity, all as integers.

    The right angle is tested at the apex through the three nodes
    A = (n-1, n-1, n-1, 0), B = (n, n, n, 0), C = (n+1, n-1, n, 1):
    the direction vectors of AB and BC are the two step vectors, and
    their scalar product vanishes.
    """
    if n < 1:
        raise ValueError("the angle degenerates at a point; need n >= 1")
    a = LatticeNode(n - 1, n - 1, n - 1, 0)
    b = LatticeNode(n, n, n, 0)
    c = LatticeNode(n + 1, n - 1, n, 1)
    ab = sub(b, a)
    bc = sub(c, b)
    red2 = side_length_squared(Side.RED, n)
    yellow2 = side_length_squared(Side.YELLOW, n)
    blue2 = side_length_squared(Side.BLUE, n)
    return RightIsoscelesReport(
        n=n,
        right_angle=dot(ab, bc) == 0,
        isosceles=red2 == yellow2,
        pythagoras=red2 + yellow2 == blue2,
        direction_ab=ab,
        direction_bc=bc,
    )


def _box_edges(vertices) -> tuple[tuple[int, int], ...]:
    """Index pairs of corners that differ in exactly one coordinate."""
    pairs = []
    for a, b in itertools.combinations(range(len(vertices)), 2):
        if sum(1 for x, y in zip(vertices[a], vertices[b]) if x != y) == 1:
            pairs.append((a, b))
    return tuple(pairs)


@dataclass(frozen=True)
class Cell:
    """One 3D face of the box: the corners with ``axis`` pinned to ``value``."""

    axis: Axis
    value: int
    vertex_indices: tuple[int, ...]
    vertices: tuple[Vec4, ...]
    is_cube: bool

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The 12 edges of the cell, as index pairs into its own vertex list."""
        return _box_edges(self.vertices)


@dataclass(frozen=True)
class DoubleTesseract:
    """The box [0, 2n] x [0, n]³: 16 vertices, 32 edges, 8 cells.

    Exactly the two cells pinning the i axis are cubes of side n; the
    other six are 2n x n x n boxes.
    """

    n: int
    vertices: tuple[Vec4, ...]
    edges: tuple[tuple[int, int], ...]
    cells: tuple[Cell, ...]

    def cell(self, axis: Axis, value: int) -> Cell:
        for cell in self.cells:
            if cell.axis is axis and cell.value == value:
                return cell
        raise KeyError((axis, value))


def double_tesseract(n: int) -> DoubleTesseract:
    """Vertices, edges and cells of the enclosing box for half-length n."""
    if n < 1:
        raise ValueError("the box degenerates below n = 1")
    extents = (2 * n, n, n, n)
    vertices = tuple(Vec4(*point)
                     for point in itertools.product(*((0, e) for e in extents)))
    edges = _box_edges(vertices)
    cells = []
    for position, axis in enumerate(AXES):
        spans = sorted(extents[p] for p in range(4) if p != position)
        for value in (0, extents[position]):
            indices = tuple(k for k, v in enumerate(vertices) if v[position] == value)
            cells.append(Cell(
                axis=axis,
                value=value,
                vertex_indices=indices,
                vertices=tuple(vertices[k] for k in indices),
                is_cube=spans[0] == spans[-1],
            ))
    return DoubleTesseract(n, vertices, edges, tuple(cells))


def _box_corners(bounds) -> tuple[Vec4, ...]:
    """Corners of an axis-aligned box given (lo, hi) per axis; lo == hi collapses."""
    choices = tuple((lo,) if lo == hi else (lo, hi) for lo, hi in bounds)
    return tuple(Vec4(*point) for point in itertools.product(*choices))


@dataclass(frozen=True)
class SideFace:
    """Where one triangle side sits inside the box.

    The blue side is the full diagonal of its cell; the red and yellow
    sides are diagonals of one half of theirs, obtained by splitting the
    cell at i = n (``half`` names the kept half, ``cube_vertices`` its
    corners).
    """

    side: Side
    cell: Cell
    half: str | None
    cube_vertices: tuple[Vec4, ...] | None
    diagonal: tuple[LatticeNode, LatticeNode]


def face_of_side(side: Side, n: int) -> SideFace:
    """The 3D face holding a side, plus the half-cube whose diagonal it is."""
    if n < 1:
        raise ValueError("the box degenerates below n = 1")
    box = double_tesseract(n)
    tri = triangle(n)
    if side is Side.BLUE:
        return SideFace(side, box.cell(Axis.J, 0), None, None,
                        (tri.vertex_origin, tri.vertex_end))
    if side is Side.RED:
        cube = _box_corners(((0, n), (0, n), (0, n), (0, 0)))
        return SideFace(side, box.cell(Axis.R, 0), "low-i", cube,
                        (tri.vertex_origin, tri.vertex_apex))
    cube = _box_corners(((n, 2 * n), (0, n), (n, n), (0, n)))
    return SideFace(side, box.cell(Axis.L, n), "high-i", cube,
                    (tri.vertex_apex, tri.vertex_end))


def geometry_report(n: int) -> dict:
    """JSON-ready report: triangle data, exact verdicts and the box census."""
    tri = triangle(n)
    box = double_tesseract(n) if n >= 1 else None
    sides = {}
    for ts in tri.sides:
        squared = side_length_squared(ts.side, n)
        sides[ts.side.value] = {
            "start": list(ts.start),
            "end": list(ts.end),
            "squared_length": squared,
            "length": math.sqrt(squared),
            "nodes": [list(node) for node in ts.nodes],
        }
    report = {
        "n": n,
        "vertices": {
            "origin": list(tri.vertex_origin),
            "end": list(tri.vertex_end),
            "apex": list(tri.vertex_apex),
        },
        "sides": sides,
        "flat": verify_flat(lattice.LatticeRegion(n)).flat,
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
        report["tesseract"] = {
            "vertices": len(box.vertices),
            "edges": len(box.edges),
            "cells": len(box.cells),
            "cube_cells": sum(1 for cell in box.cells if cell.is_cube),
        }
    return report
