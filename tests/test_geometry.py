import itertools
import math
import random

import pytest

import golden
import oracles
from dyck4d import (DOWN_STEP, SIDES, UP_STEP, LatticeNode, catalan,
                    count_paths_through, dot, double_tesseract, enumerate_nodes,
                    enumerate_words, face_of_side, geometry_report, is_lattice_node,
                    norm_squared, parse_word, render_grid_2d, sample_uniform, side_length,
                    side_length_squared, sub, triangle, unrank, verify_flat,
                    verify_right_isosceles, word_to_path)
from dyck4d import cli, geometry, lattice
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
            # a cube's three free axes span equal lengths over its own corners
            spans = {max(column) - min(column) for column in zip(*cell.vertices)} - {0}
            assert cell.is_cube == (len(spans) == 1)

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
        with golden.traced() as memory:
            faces = [face_of_side(side, 100000) for side in SIDES]
        assert faces[2].diagonal == ((100000, 100000, 100000, 0), (200000, 0, 100000, 100000))
        assert memory.peak < 2**20

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

    def test_census_builds_no_box(self, capsys):
        census = {"vertices": 16, "edges": 32, "cells": 8, "cube_cells": 2}
        for n in range(1, 9):
            box = double_tesseract(n)
            assert geometry_report(n)["tesseract"] == {
                "vertices": len(box.vertices), "edges": len(box.edges), "cells": len(box.cells),
                "cube_cells": sum(cell.is_cube for cell in box.cells)} == census
        with golden.calls(double_tesseract, geometry._box_corners) as boxes:
            for n in (1, 2, 6):
                assert geometry_report(n)["tesseract"] == census
            # the JSON report at this n would list 3(n + 1) side nodes; the text one lists none
            assert geometry._summary(10**300)["tesseract"] == census
            assert cli.main(["geometry", "--n", "6"]) == 0
        assert capsys.readouterr().out.endswith("tesseract: 16 vertices, 32 edges, 8 cells (2 cubes)\n")
        assert boxes == {"double_tesseract": [], "_box_corners": []}

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


class TestFlatnessByVertices:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 25])
    def test_nodes_are_affine_combinations_of_the_vertices(self, n):
        # n·(l·UP + r·DOWN) = (n - l)·origin + (l - r)·apex + r·end, with weights
        # n - l, l - r, r >= 0 summing to n, so i = l + r and j = l - r, being
        # linear, hold on the whole triangle once they hold on its vertices
        origin, end, apex = triangle(n)[1:4]
        for node in enumerate_nodes(n):
            weights = (n - node.l, node.l - node.r, node.r)
            assert min(weights) >= 0 and sum(weights) == n
            assert tuple(n * x for x in node) == tuple(
                sum(w * c for w, c in zip(weights, column)) for column in zip(origin, apex, end))
        assert verify_flat([origin, end, apex]) == verify_flat(n) == (True, None)


# ``render wireframe --n 6 --cell <cell> --edges <file>`` as recorded while each cell
# still derived its edges from its own corners: the SHA-256 of the SVG on stdout,
# then of the edge list.
_CELL_FIGURES = {
    "imin": ("014639a13629cb1136cc37c92e4a95e0bd563d810115a1f864c3d0c686c3d294",
             "e358705cd65fbb04a6ba57df3df6c230839e0447678aa6c6737aa8e9e0b8f481"),
    "imax": ("014639a13629cb1136cc37c92e4a95e0bd563d810115a1f864c3d0c686c3d294",
             "ed140741389ec4dc201d42a61ebc5b0b35856da854b1f67a54bb7e78c2b2eac6"),
    "jmin": ("649e47e9df4eda68acdbb1063e2bdda2e060e8c0dfa7a95d92676310cac67e32",
             "335f6a5d21a350f375b5166773fff52a532f37eb6fab1f5dbb4eb792e25eaff2"),
    "jmax": ("649e47e9df4eda68acdbb1063e2bdda2e060e8c0dfa7a95d92676310cac67e32",
             "f81bcad7a5ec8e9e24381771415bddd3531b79925f5aa8d7ef2552c0caed8183"),
    "lmin": ("9f4a49e776ed27a572e8b45d171ac6523d5d5c892b3412c2a9a0667e9985f156",
             "4c1b37ab7ffa04d8f440566c23b87d0768a3e274e0e68ccddaf976ccf24c54a9"),
    "lmax": ("9f4a49e776ed27a572e8b45d171ac6523d5d5c892b3412c2a9a0667e9985f156",
             "615c2b88ceda28185909fcf6c535159ddc29952c80485daee37432f6e4ec2470"),
    "rmin": ("6b432a0ad31c49097a004209add0f0f891a47aba4c3dd5b2847520b542c230c6",
             "ea5767446df2b3d1deab22280ee85e9e1e2860c5a76ff3d4da7c442f97a0dcd9"),
    "rmax": ("6b432a0ad31c49097a004209add0f0f891a47aba4c3dd5b2847520b542c230c6",
             "549175fc88d1626412676850c3c48e890fc3eacc5e3cf56ed2c2ca1cafb75724"),
}


class TestUnitFigures:
    """Requests read the cells' edges, the half-cubes and the triangle's flatness off
    figures stated once: none derives a box's edges from its corners, and none reads
    the rows of the lattice."""

    @pytest.fixture
    def derived(self):
        """The calls that derive a figure stated once, made by the test."""
        with golden.calls(_box_edges, lattice._region_rows) as calls:
            yield calls

    @pytest.mark.parametrize("cell", sorted(_CELL_FIGURES))
    def test_cell_figure(self, cell, derived):
        out, _, rc, (edges,) = golden.run(golden.Case(
            "", ["render", "wireframe", "--n", "6", "--cell", cell, "--edges", "EDGES"],
            files=("EDGES",)))
        assert rc == 0
        assert (golden.sha(out), golden.sha(edges)) == _CELL_FIGURES[cell]
        assert derived == {"_box_edges": [], "_region_rows": []}

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_face_of_side(self, n, derived):
        box = double_tesseract(n)
        cubes = {"red": ((0, n), (0, n), (0, n), (0,)),
                 "yellow": ((n, 2 * n), (0, n), (n,), (0, n))}
        expected = {
            "blue": (box.cell("j", 0), None, None, ((0, 0, 0, 0), (2 * n, 0, n, n))),
            "red": (box.cell("r", 0), "low-i", cubes["red"], ((0, 0, 0, 0), (n, n, n, 0))),
            "yellow": (box.cell("l", n), "high-i", cubes["yellow"],
                       ((n, n, n, 0), (2 * n, 0, n, n))),
        }
        for side in SIDES:
            cell, half, bounds, diagonal = expected[side]
            cube = None if bounds is None else tuple(
                LatticeNode(*corner) for corner in itertools.product(*bounds))
            face = face_of_side(side, n)
            assert face == (side, cell, half, cube, diagonal)
            assert all(type(v) is LatticeNode for v in face.cube_vertices or ())
        assert derived == {"_box_edges": [], "_region_rows": []}

    @pytest.mark.parametrize("n", [0, 1, 7, 10**301], ids=["0", "1", "7", "1e301"])
    def test_flatness(self, n, derived):
        assert repr(verify_flat(n)) == "FlatnessResult(flat=True, witness=None)"
        assert derived == {"_box_edges": [], "_region_rows": []}


class TestUnitTriangle:
    """The triangle of half-length n is n times the unit triangle: every squared side
    length and the right angle's legs are read off it, with no node subtracted after
    import, and give the values and bytes they gave when each call subtracted nodes."""

    @pytest.fixture
    def subtracted(self):
        """The calls that subtract nodes, made by the test."""
        with golden.calls(sub, norm_squared) as calls:
            yield calls

    @pytest.mark.parametrize("n", [0, 1, 6, 10**300], ids=["0", "1", "6", "1e300"])
    def test_side_length_squared(self, n, subtracted):
        squares = [side_length_squared(side, n) for side in SIDES]
        assert squares == [6 * n * n, 3 * n * n, 3 * n * n]
        assert subtracted == {"sub": [], "norm_squared": []}

    @pytest.mark.parametrize("n", [1, 6, 10**300], ids=["1", "6", "1e300"])
    def test_right_isosceles(self, n, subtracted):
        assert repr(verify_right_isosceles(n)) == (
            f"RightIsoscelesReport(n={n}, right_angle=True, isosceles=True, pythagoras=True, "
            "direction_ab=LatticeNode(i=1, j=1, l=1, r=0), "
            "direction_bc=LatticeNode(i=1, j=-1, l=0, r=1))")
        assert subtracted == {"sub": [], "norm_squared": []}

    def test_reports(self, capsys, subtracted):
        assert golden.sha(repr(geometry_report(6))) == (
            "4072b13f14f105bdf40dd774c0fa07ee3b44b8466462ed831679c7f1e345e420")
        assert golden.sha(repr(geometry._summary(10**300))) == (
            "2b71c05e33cb519a08c9a2b4bd134f75922fd9cdd536bf383e66b357703941dc")
        assert cli.main(["geometry", "--n", "6"]) == 0
        assert golden.sha(capsys.readouterr().out) == (
            "437abf593930b38666c6e36d8dbedb8f74597cb56868dff0af0ca60d6da3de57")
        assert subtracted == {"sub": [], "norm_squared": []}


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
        assert golden.sha(repr(first)) == digest

    def test_report_repr(self):
        assert repr(verify_right_isosceles(1)) == (
            "RightIsoscelesReport(n=1, right_angle=True, isosceles=True, pythagoras=True, "
            "direction_ab=LatticeNode(i=1, j=1, l=1, r=0), "
            "direction_bc=LatticeNode(i=1, j=-1, l=0, r=1))")


_NEGATIVE = "half-length must be non-negative"

# Every public entry that takes a half-length n, as a call of n.
_OF_N = {
    "triangle": triangle,
    "geometry_report": geometry_report,
    "side_length_squared": lambda n: side_length_squared("red", n),
    "face_of_side": lambda n: face_of_side("red", n),
    "double_tesseract": double_tesseract,
    "verify_right_isosceles": verify_right_isosceles,
    "catalan": catalan,
    "enumerate_words": lambda n: next(enumerate_words(n)),
    "unrank": lambda n: unrank(0, n),
    "sample_uniform": lambda n: sample_uniform(n, 0),
    "enumerate_nodes": enumerate_nodes,
    "verify_flat": verify_flat,
    "count_paths_through": lambda n: count_paths_through((0, 0, 0, 0), n),
    "count_paths_through-malformed-node": lambda n: count_paths_through((0, 0), n),
    "side_length": lambda n: side_length("green", n),
    "render_grid_2d": lambda n: render_grid_2d("lr", n),
}


#: The entries whose figure degenerates to a point at n = 0: the box, and the
#: right angle at the apex.
_AT_LEAST_1 = ("double_tesseract", "face_of_side", "verify_right_isosceles")


# At n = -1: one rule, one message, checked before the n >= 1 rule of the box and
# the right angle, the node of count_paths_through and the side of side_length.
# At n = 0: the same rule's lower bound, one message for all three.
@pytest.mark.parametrize("name", sorted(_OF_N))
def test_half_length_out_of_range(name):
    with pytest.raises(ValueError, match=f"^{_NEGATIVE}$"):
        _OF_N[name](-1)
    if name in _AT_LEAST_1:
        with pytest.raises(ValueError, match="^half-length must be at least 1$"):
            _OF_N[name](0)


# A half-length is an int, not a bool or a float equal to one, nor None; each entry
# names the type, from its own check before any arithmetic on n.
@pytest.mark.parametrize("n", [True, 1.0, 1.5, None], ids=["True", "1.0", "1.5", "None"])
@pytest.mark.parametrize("name", sorted(_OF_N))
def test_half_length_of_another_type(name, n):
    with pytest.raises(TypeError, match=f"^half-length must be an int, not {type(n).__name__}$"):
        _OF_N[name](n)


@pytest.mark.parametrize("call, key", [
    (lambda: triangle(2).side("green"), "green"),
    (lambda: double_tesseract(2).cell("i", 1), ("i", 1)),
], ids=["side", "cell"])
def test_lookup_of_a_missing_part(call, key):
    with pytest.raises(KeyError) as exc:
        call()
    assert exc.value.args == (key,)
