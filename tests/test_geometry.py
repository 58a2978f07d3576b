import hashlib
import math
import random
import tracemalloc

import pytest

import oracles
from dyck4d import (DOWN_STEP, SIDES, UP_STEP, LatticeNode, catalan,
                    count_paths_through, dot, double_tesseract, enumerate_nodes,
                    enumerate_words, face_of_side, geometry_report, is_lattice_node,
                    norm_squared, parse_word, render_grid_2d, sample_uniform, side_length,
                    side_length_squared, sub, triangle, unrank, verify_flat,
                    verify_right_isosceles, word_to_path)
from dyck4d.geometry import _box_edges, _side_columns

UP = UP_STEP
DOWN = DOWN_STEP


class TestDot:
    def test_step_vectors_orthogonal(self):
        # 1*1 + 1*(-1) + 1*0 + 0*1 = 0
        assert dot(UP, DOWN) == 0

    def test_step_vector_norms(self):
        assert dot(UP, UP) == 3
        assert dot(DOWN, DOWN) == 3

    def test_double_link_norm(self):
        assert dot((2, 0, 1, 1), (2, 0, 1, 1)) == 6

    def test_helpers(self):
        assert sub((2, 0, 1, 1), (1, 1, 1, 0)) == LatticeNode(1, -1, 0, 1)
        assert norm_squared((1, 2, 3, 4)) == 30
        for helper in (dot, sub):
            with pytest.raises(ValueError):
                helper((1, 2, 3, 4), (1, 2, 3))


class TestTriangle:
    def test_n6_vertices(self):
        tri = triangle(6)
        assert tri.vertex_origin == (0, 0, 0, 0)
        assert tri.vertex_end == (12, 0, 6, 6)
        assert tri.vertex_apex == (6, 6, 6, 0)

    def test_degenerate(self):
        tri = triangle(0)
        assert tri.vertex_origin == tri.vertex_end == tri.vertex_apex == (0, 0, 0, 0)

    def test_n1_side_nodes(self):
        tri = triangle(1)
        assert tri.side("blue").nodes == ((0, 0, 0, 0), (2, 0, 1, 1))
        assert tri.side("red").nodes == ((0, 0, 0, 0), (1, 1, 1, 0))
        assert tri.side("yellow").nodes == ((1, 1, 1, 0), (2, 0, 1, 1))

    def test_sides_meet_at_vertices(self):
        tri = triangle(5)
        blue, red, yellow = (tri.side(s) for s in ("blue", "red", "yellow"))
        assert blue.start == red.start == tri.vertex_origin
        assert red.end == yellow.start == tri.vertex_apex
        assert yellow.end == blue.end == tri.vertex_end

    @pytest.mark.parametrize("n", range(1, 9))
    def test_side_nodes_against_extreme_words(self, n):
        tri = triangle(n)
        # the alternating word walks the j = 0 isoline: its j = 0 nodes
        # are exactly the blue side
        zigzag = word_to_path(parse_word("()" * n))
        assert tuple(q for q in zigzag if q.j == 0) == tri.side("blue").nodes
        # the fully nested word walks red then yellow
        nested = word_to_path(parse_word("(" * n + ")" * n))
        assert nested == tri.side("red").nodes + tri.side("yellow").nodes[1:]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, random.Random(26).randint(6, 400)])
    def test_side_nodes_are_the_side_columns(self, n):
        tri = triangle(n)
        for side, columns in zip(SIDES, _side_columns(n)):
            assert tri.side(side).nodes == tuple(zip(*columns))
            assert geometry_report(n)["sides"][side]["nodes"] == list(map(list, zip(*columns)))


class TestSideLengths:
    def test_exact_squares_n6(self):
        assert side_length_squared("blue", 6) == 216
        assert side_length_squared("red", 6) == 108
        assert side_length_squared("yellow", 6) == 108

    def test_float_values_n6(self):
        assert side_length("blue", 6) == pytest.approx(6 * math.sqrt(6), abs=1e-12)
        assert side_length("red", 6) == pytest.approx(6 * math.sqrt(3), abs=1e-12)
        assert side_length("yellow", 6) == side_length("red", 6)

    def test_degenerate(self):
        assert all(side_length(s, 0) == 0 for s in SIDES)

    @pytest.mark.parametrize("n", range(17))
    def test_general_formulas(self, n):
        assert side_length_squared("blue", n) == 6 * n * n
        assert side_length_squared("red", n) == 3 * n * n
        assert side_length_squared("yellow", n) == 3 * n * n

    @pytest.mark.parametrize("n", range(9))
    def test_consistent_with_triangle_endpoints(self, n):
        tri = triangle(n)
        for side in SIDES:
            s = tri.side(side)
            assert side_length_squared(side, n) == norm_squared(sub(s.end, s.start))


class TestFlatness:
    def test_word_paths(self):
        for text in oracles.all_balanced(6):
            result = verify_flat(word_to_path(parse_word(text)))
            assert result.flat and result.witness is None

    def test_full_region(self):
        result = verify_flat(6)
        assert result.flat

    def test_perturbed_node(self):
        result = verify_flat([(0, 0, 0, 0), (1, 1, 1, 1)])
        assert not result.flat
        assert result.witness == (1, 1, 1, 1)

    def test_first_witness_reported(self):
        result = verify_flat([(1, 1, 1, 1), (2, 2, 2, 2)])
        assert result.witness == (1, 1, 1, 1)


class TestRightIsosceles:
    @pytest.mark.parametrize("n", [1, 2, 6, 64])
    def test_all_verdicts_true(self, n):
        report = verify_right_isosceles(n)
        assert report.right_angle and report.isosceles and report.pythagoras

    def test_direction_vectors(self):
        report = verify_right_isosceles(6)
        assert report.direction_ab == (1, 1, 1, 0)
        assert report.direction_bc == (1, -1, 0, 1)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            verify_right_isosceles(0)

    def test_pythagoras_is_exact_integer_identity(self):
        for n in (1, 10, 100, 10**6):
            assert 3 * n * n + 3 * n * n == 6 * n * n
            report = verify_right_isosceles(n)
            assert report.pythagoras


class TestDoubleTesseract:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_census(self, n):
        box = double_tesseract(n)
        assert len(box.vertices) == 16
        assert len(box.edges) == 32
        assert len(box.cells) == 8

    def test_exactly_two_cubes_at_i_extremes(self):
        box = double_tesseract(6)
        cubes = [cell for cell in box.cells if cell.is_cube]
        assert len(cubes) == 2
        assert {(cell.axis, cell.value) for cell in cubes} == {("i", 0), ("i", 12)}

    def test_vertex_degree_four(self):
        box = double_tesseract(3)
        degree = {}
        for a, b in box.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(degree[k] == 4 for k in range(16))

    def test_each_edge_in_three_cells(self):
        box = double_tesseract(2)
        for a, b in box.edges:
            containing = sum(1 for cell in box.cells
                             if a in cell.vertex_indices and b in cell.vertex_indices)
            assert containing == 3

    def test_cell_edges(self):
        box = double_tesseract(4)
        for cell in box.cells:
            assert len(cell.edges) == 12
            assert len(cell.vertices) == 8

    @pytest.mark.parametrize("n", range(1, 9))
    def test_topology_is_that_of_the_corners(self, n):
        # the box's edges and cells come from the unit box; here they are derived
        # from this box's own corners, pair by pair and coordinate by coordinate
        box = double_tesseract(n)
        assert box.edges == _box_edges(box.vertices)
        for cell in box.cells:
            position = "ijlr".index(cell.axis)
            assert cell.vertex_indices == tuple(
                k for k, v in enumerate(box.vertices) if v[position] == cell.value)
            assert cell.vertices == tuple(box.vertices[k] for k in cell.vertex_indices)
            assert cell.edges == tuple(
                (a, b) for a in range(8) for b in range(a + 1, 8)
                if sum(x != y for x, y in zip(cell.vertices[a], cell.vertices[b])) == 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_j0_cell_vertex_list(self, n):
        box = double_tesseract(n)
        cell = box.cell("j", 0)
        expected = {(0, 0, 0, 0), (0, 0, 0, n), (0, 0, n, n), (0, 0, n, 0),
                    (2 * n, 0, n, 0), (2 * n, 0, 0, 0), (2 * n, 0, 0, n), (2 * n, 0, n, n)}
        assert {tuple(v) for v in cell.vertices} == expected

    def test_all_path_nodes_inside_box(self):
        n = 6
        for text in oracles.all_balanced(n):
            for i, j, l, r in oracles.visited_nodes(text):
                assert 0 <= i <= 2 * n and 0 <= j <= n and 0 <= l <= n and 0 <= r <= n

    def test_side_nodes_lie_in_their_cells(self):
        n = 5
        tri = triangle(n)
        assert all(q.j == 0 for q in tri.side("blue").nodes)
        assert all(q.r == 0 for q in tri.side("red").nodes)
        assert all(q.l == n for q in tri.side("yellow").nodes)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            double_tesseract(0)


class TestFaceOfSide:
    def test_red_cell_matches_bounding_points(self):
        n = 6
        face = face_of_side("red", n)
        expected = {(0, 0, 0, 0), (0, n, 0, 0), (0, n, n, 0), (0, 0, n, 0),
                    (2 * n, 0, n, 0), (2 * n, 0, 0, 0), (2 * n, n, 0, 0), (2 * n, n, n, 0)}
        assert {tuple(v) for v in face.cell.vertices} == expected
        assert face.half == "low-i"
        assert {tuple(v) for v in face.cube_vertices} == {
            (a, b, c, 0) for a in (0, n) for b in (0, n) for c in (0, n)}
        assert face.diagonal == ((0, 0, 0, 0), (n, n, n, 0))

    def test_yellow_cell_matches_bounding_points(self):
        n = 6
        face = face_of_side("yellow", n)
        expected = {(0, 0, n, 0), (0, n, n, 0), (0, n, n, n), (0, 0, n, n),
                    (2 * n, 0, n, n), (2 * n, 0, n, 0), (2 * n, n, n, 0), (2 * n, n, n, n)}
        assert {tuple(v) for v in face.cell.vertices} == expected
        assert face.half == "high-i"
        assert {tuple(v) for v in face.cube_vertices} == {
            (a, b, n, c) for a in (n, 2 * n) for b in (0, n) for c in (0, n)}
        assert face.diagonal == ((n, n, n, 0), (2 * n, 0, n, n))

    def test_blue_smallest_case(self):
        face = face_of_side("blue", 1)
        assert face.half is None and face.cube_vertices is None
        assert {tuple(v) for v in face.cell.vertices} == {
            (a, 0, b, c) for a in (0, 2) for b in (0, 1) for c in (0, 1)}
        assert face.diagonal == ((0, 0, 0, 0), (2, 0, 1, 1))

    def test_memory_does_not_grow_with_n(self):
        # the diagonal is two vertices; no side's node list is built
        tracemalloc.start()
        try:
            faces = [face_of_side(side, 100000) for side in SIDES]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert faces[2].diagonal == ((100000, 100000, 100000, 0), (200000, 0, 100000, 100000))
        assert peak < 2**20

    def test_diagonals_span_their_boxes(self):
        # each side's diagonal changes every free axis of its cell/cube by
        # the full extent
        for side in SIDES:
            face = face_of_side(side, 4)
            corners = face.cube_vertices if face.cube_vertices else face.cell.vertices
            start, end = face.diagonal
            for position in range(4):
                values = {v[position] for v in corners}
                assert {start[position], end[position]} == values


class TestReport:
    def test_report_content(self):
        report = geometry_report(6)
        assert report["sides"]["blue"]["squared_length"] == 216
        assert report["sides"]["red"]["squared_length"] == 108
        assert report["checks"]["right_angle"] is True
        assert report["checks"]["dot"] == 0
        assert report["tesseract"] == {"vertices": 16, "edges": 32, "cells": 8, "cube_cells": 2}
        assert report["flat"] is True

    @pytest.mark.parametrize("n", [0, 1, 2, 6, 40])
    def test_one_name_per_side(self, n):
        # the report keys, SIDES and the records' side fields are the same colours in one order
        assert tuple(geometry_report(n)["sides"]) == SIDES == ("blue", "red", "yellow")
        assert tuple(side.side for side in triangle(n).sides) == SIDES

    def test_degenerate_report(self):
        report = geometry_report(0)
        assert "checks" not in report and "tesseract" not in report
        assert report["flat"] is True


class TestFlatnessByRows:
    def test_row_step_is_flat(self):
        # every row of a region advances by UP - DOWN, and head(i + 2) = head(i) + UP + DOWN,
        # so the heads of rows 0 and 1 stand for the region
        assert sub(LatticeNode(2, 0, 1, 1), UP) == DOWN
        assert verify_flat([sub(UP, DOWN), LatticeNode(2, 0, 1, 1)]) == (True, None)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 25])
    def test_two_heads_and_two_steps_make_the_region(self, n):
        heads = [(0, 0, 0, 0), (1, 1, 1, 0)][:2 * n + 1]
        made = {tuple(h + a * s + b * t for h, s, t in zip(head, (2, 0, 1, 1), (0, 2, 1, -1)))
                for head in heads for a in range(n + 1) for b in range(n + 1)}
        region = enumerate_nodes(n)
        assert {node for node in made if is_lattice_node(*node, n)} == set(region)
        assert verify_flat(n) == verify_flat(region) == (True, None)

    def test_large_region(self):
        assert verify_flat(100_000) == (True, None)
        assert verify_flat(10**301) == (True, None)

    def test_large_report(self):
        assert geometry_report(20_000)["flat"] is True


class TestSideLengthRange:
    def test_beyond_float_squares(self):
        n = 10**160
        assert side_length("blue", n) == pytest.approx(math.sqrt(6) * 1e160, rel=1e-15)

    def test_beyond_float_lengths(self):
        with pytest.raises(OverflowError):
            side_length("blue", 10**310)


# SHA-256 of each record's Name(field=...) repr at n = 1, which callers may log
# or compare, so a change of record type must keep it.
_RECORDS = {
    "TriangleSide": (lambda: triangle(1).side("red"),
                     "306a8b6835705489a971f6ec64fa153a8a8e15f39c02c794e35f0baec64a94ba"),
    "TriangleGeometry": (lambda: triangle(1),
                         "ff1eb3f2bdfd632ec331d034bc38c8f4d6f00c645eb1fda1d74259cce21c8e0c"),
    "RightIsoscelesReport": (lambda: verify_right_isosceles(1),
                             "ad873e78c397e7ede8a4f00cec613268d251fe0a4b5cc84d9f077627ccde5fce"),
    "Cell": (lambda: double_tesseract(1).cell("i", 0),
             "3ae606e58d1dd8b9e356b817374e76e8b282bd888efce1264e7bd502dc2e1916"),
    "DoubleTesseract": (lambda: double_tesseract(1),
                        "dc7b8601c674355ea35e54e50e411b9c598294a3bfc74d4bb299fe63cb39911e"),
    "SideFace": (lambda: face_of_side("yellow", 1),
                 "92e55eded3052fcedb52de8b9a8a432f221e7afdc4c9ee663a5ea12878ef5c26"),
}


class TestRecords:
    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_copies_equal_hash_and_repr(self, name):
        build, digest = _RECORDS[name]
        first, second = build(), build()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert type(first).__name__ == name
        assert hashlib.sha256(repr(first).encode()).hexdigest() == digest

    def test_report_repr(self):
        assert repr(verify_right_isosceles(1)) == (
            "RightIsoscelesReport(n=1, right_angle=True, isosceles=True, pythagoras=True, "
            "direction_ab=LatticeNode(i=1, j=1, l=1, r=0), "
            "direction_bc=LatticeNode(i=1, j=-1, l=0, r=1))")


_NEGATIVE = "half-length must be non-negative"


# Every public entry that takes a half-length n, at n = -1: one rule, one message,
# checked before the node of count_paths_through and the side of side_length.
@pytest.mark.parametrize("call, message", [
    (lambda: triangle(-1), _NEGATIVE),
    (lambda: geometry_report(-1), _NEGATIVE),
    (lambda: side_length_squared("red", -1), _NEGATIVE),
    (lambda: face_of_side("red", 0), "the box degenerates below n = 1"),
    (lambda: catalan(-1), _NEGATIVE),
    (lambda: next(enumerate_words(-1)), _NEGATIVE),
    (lambda: unrank(0, -1), _NEGATIVE),
    (lambda: sample_uniform(-1, 0), _NEGATIVE),
    (lambda: enumerate_nodes(-1), _NEGATIVE),
    (lambda: verify_flat(-1), _NEGATIVE),
    (lambda: count_paths_through((0, 0, 0, 0), -1), _NEGATIVE),
    (lambda: count_paths_through((0, 0), -1), _NEGATIVE),
    (lambda: side_length("green", -1), _NEGATIVE),
    (lambda: render_grid_2d("lr", -1), _NEGATIVE),
], ids=["triangle", "geometry_report", "side_length_squared", "face_of_side", "catalan",
        "enumerate_words", "unrank", "sample_uniform", "enumerate_nodes", "verify_flat",
        "count_paths_through", "count_paths_through-malformed-node", "side_length",
        "render_grid_2d"])
def test_half_length_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, key", [
    (lambda: triangle(2).side("green"), "green"),
    (lambda: double_tesseract(2).cell("i", 1), ("i", 1)),
], ids=["side", "cell"])
def test_lookup_of_a_missing_part(call, key):
    with pytest.raises(KeyError) as exc:
        call()
    assert exc.value.args == (key,)
