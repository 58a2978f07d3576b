"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Expected values come from independent brute force
(tests/oracles.py) or are exact integer identities; tolerances are stated
inline and nowhere loosened.
"""

import math
import random
import time
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import contextmanager

import pytest

import oracles
from dyck4d import (AXIS_SETS, NegativePrefix, Unbalanced,
                    catalan, count_paths_through, dot, double_tesseract,
                    enumerate_nodes, enumerate_words, lift,
                    parse_word, project, render_grid_2d, render_wireframe,
                    side_length, side_length_squared,
                    verify_flat, verify_right_isosceles, word_to_path)


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"acceptance {name}: FAIL")
        raise
    print(f"acceptance {name}: PASS")


def test_c01_every_n6_path_ends_at_12_0_6_6():
    with criterion("1 (endpoint of all 132 paths, n=6)"):
        start = time.perf_counter()
        words = list(enumerate_words(6))
        assert len(words) == 132
        for word in words:
            assert word_to_path(word).nodes[-1] == (12, 0, 6, 6)
        assert time.perf_counter() - start < 1.0


def test_c02_side_lengths_exact_and_float():
    with criterion("2 (side lengths 6√6 and 6√3, n=6)"):
        assert side_length_squared("blue", 6) == 216
        assert side_length_squared("red", 6) == 108
        assert side_length_squared("yellow", 6) == 108
        assert abs(side_length("blue", 6) - 6 * math.sqrt(6)) < 1e-12
        assert abs(side_length("red", 6) - 6 * math.sqrt(3)) < 1e-12
        assert abs(side_length("yellow", 6) - 6 * math.sqrt(3)) < 1e-12


def test_c03_right_angle_and_exact_identities():
    with criterion("3 (right angle, isosceles, pythagoras for n=1..64)"):
        assert dot((1, 1, 1, 0), (1, -1, 0, 1)) == 0
        for n in range(1, 65):
            report = verify_right_isosceles(n)
            assert report.right_angle
            assert report.isosceles
            assert report.pythagoras


def test_c04_flatness_of_every_path_node():
    with criterion("4 (flatness of all paths, n<=8)"):
        for n in range(9):
            for word in enumerate_words(n):
                result = verify_flat(word_to_path(word))
                assert result.flat, result.witness


def test_c05_tesseract_census_and_j0_cell():
    with criterion("5 (16/32/8 census and j=0 cell, n=1..16)"):
        for n in range(1, 17):
            box = double_tesseract(n)
            assert len(box.vertices) == 16
            assert len(box.edges) == 32
            assert len(box.cells) == 8
            cubes = [cell for cell in box.cells if cell.is_cube]
            assert len(cubes) == 2
            cell = box.cell("j", 0)
            expected = {(0, 0, 0, 0), (0, 0, 0, n), (0, 0, n, n), (0, 0, n, 0),
                        (2 * n, 0, n, 0), (2 * n, 0, 0, 0), (2 * n, 0, 0, n),
                        (2 * n, 0, n, n)}
            assert {tuple(v) for v in cell.vertices} == expected


def test_c06_eleven_modifications_round_trip():
    with criterion("6 (11 modifications, lossless round trip, n<=6)"):
        assert len(AXIS_SETS) == 11
        checked = 0
        for n in range(7):
            for word in enumerate_words(n):
                path = word_to_path(word)
                for axes in AXIS_SETS:
                    assert lift(project(path, axes)) == path
                    checked += 1
        assert checked >= 132 * 11


def test_c07_catalan_against_brute_force():
    with criterion("7 (catalan vs 2^(2n) brute force, n<=10; recurrence, n<=30)"):
        start = time.perf_counter()
        for n in range(11):
            assert catalan(n) == oracles.count_balanced_bitmask(n)
        assert time.perf_counter() - start < 30.0
        for n in range(30):
            assert catalan(n + 1) == sum(catalan(k) * catalan(n - k) for k in range(n + 1))


def test_c08_per_node_counts_against_visitation():
    with criterion("8 (per-node counts vs exhaustive visitation, n<=8)"):
        for n in range(9):
            expected = oracles.visitation_counts(n)
            nodes = enumerate_nodes(n)
            levels = {}
            for node in nodes:
                count = count_paths_through(node, n)
                assert count == expected[tuple(node)], (n, node)
                levels[node.i] = levels.get(node.i, 0) + count
            assert all(total == catalan(n) for total in levels.values())


def test_c09_parser_conformance_random_strings():
    with criterion("9 (parser vs prefix-sum oracle, 10000 random strings)"):
        rng = random.Random(190114)
        for _ in range(10000):
            length = rng.randrange(25)
            text = "".join(rng.choice("()") for _ in range(length))
            verdict = oracles.scan(text)
            if verdict[0] == "ok":
                assert parse_word(text).n == verdict[1]
            elif verdict[0] == "negative":
                with pytest.raises(NegativePrefix) as exc:
                    parse_word(text)
                assert exc.value.position == verdict[1]
            else:
                with pytest.raises(Unbalanced) as exc:
                    parse_word(text)
                assert exc.value.final_excess == verdict[1]


def test_c10_renderer_determinism_and_structure():
    with criterion("10 (schlegel 16/32, byte-identical, well-formed SVG)"):
        box = double_tesseract(6)
        svg_a, edges_a = render_wireframe(box, "schlegel")
        svg_b, edges_b = render_wireframe(box, "schlegel")
        assert svg_a == svg_b and edges_a == edges_b
        root = ET.fromstring(svg_a)
        counts = Counter(el.get("class") for el in root.iter() if el.get("class"))
        assert counts["vertex"] == 16
        assert counts["edge"] == 32
        documents = [
            svg_a,
            render_wireframe(box, "orthographic-3d", include_triangle=True)[0],
            render_wireframe(box.cell("i", 0), "orthographic-3d")[0],
            render_grid_2d("lr", 6),
            render_grid_2d("lr", 6,
                           project(word_to_path(parse_word("()()()()()()")), "lr")),
            render_grid_2d("ij", 6,
                           project(word_to_path(parse_word("(((((())))))")), "ij")),
        ]
        for svg in documents:
            ET.fromstring(svg)  # well-formed XML or dies
        assert render_grid_2d("lr", 6) == render_grid_2d("lr", 6)
