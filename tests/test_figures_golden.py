"""Golden corpus for the figures subcommands: geometry and render print the same
bytes, write the same edge lists and exit with the same code as before the
flatness scan and the SVG coordinates were rewritten to work on whole columns.

``data/figures_golden.json`` maps every case to the SHA-256 of its stdout, the
SHA-256 of its stderr and its exit code, plus the SHA-256 of the ``--edges``
file for the cases that write one, recorded from the node-by-node and
number-by-number implementation.  The grids at n = 40 and 400 and the nested-cube
view at n = 400 were recorded later, while every pixel still went through float
formatting.  Grids whose word has another half-length than the grid, grids with
the empty word and the orthographic triangle at n = 400 were recorded later
still, while a grid drew one element per isoline and its overlay from a path.
The report at n = 400, the triangle overlays at n = 399 and 370 and the boxes at
n = 10**300 were recorded while the view maps still worked point by point.

Record the cases that have no entry yet with ``PYTHONPATH=src python
tests/golden.py``, the record command of every golden corpus.  It fills in
missing entries only, so re-recording one (only when a change of output is
intended) means deleting it first.
"""

import random
from pathlib import Path

import pytest

import golden
import oracles

DATA = Path(__file__).parent / "data" / "figures_golden.json"

AXIS_PAIRS = ("ij", "il", "ir", "jl", "jr", "lr")
CELLS = ("imin", "imax", "jmin", "jmax", "lmin", "lmax", "rmin", "rmax")

_rng = random.Random(20192)
WORDS = {n: oracles.random_word_text(_rng, n) for n in (1, 4, 9)}
#: Grids at the sizes the figures benchmark draws, drawn after WORDS so theirs stay put.
LARGE_WORDS = {n: oracles.random_word_text(_rng, n) for n in (40, 400)}


def _cases():
    """(case id, argv) for every case; "EDGES" in argv stands for the edge-list file."""
    for n in (0, 1, 2, 3, 7, 40, 100, 370):
        for fmt in ("text", "json"):
            yield f"geometry --n {n} --format {fmt}", ["geometry", "--n", str(n), "--format", fmt]
    for axes in AXIS_PAIRS:
        for n in (0, 1, 4, 9):
            yield (f"render grid --axes {axes} --n {n}",
                   ["render", "grid", "--axes", axes, "--n", str(n)])
        for n, word in WORDS.items():
            yield (f"render grid --axes {axes} --n {n} --word <{n}>",
                   ["render", "grid", "--axes", axes, "--n", str(n), "--word", word])
    for n in (1, 2, 5):
        yield (f"render wireframe --n {n}",
               ["render", "wireframe", "--n", str(n), "--edges", "EDGES"])
        yield (f"render wireframe --n {n} --triangle",
               ["render", "wireframe", "--n", str(n), "--triangle", "--edges", "EDGES"])
        for cell in CELLS:
            yield (f"render wireframe --n {n} --cell {cell}",
                   ["render", "wireframe", "--n", str(n), "--cell", cell, "--edges", "EDGES"])
        yield f"render schlegel --n {n}", ["render", "schlegel", "--n", str(n), "--edges", "EDGES"]
        yield (f"render schlegel --n {n} --triangle",
               ["render", "schlegel", "--n", str(n), "--triangle", "--edges", "EDGES"])
    for axes in AXIS_PAIRS:
        for n, word in LARGE_WORDS.items():
            yield (f"render grid --axes {axes} --n {n} --word <{n}>",
                   ["render", "grid", "--axes", axes, "--n", str(n), "--word", word])
    yield ("render schlegel --n 400 --triangle",
           ["render", "schlegel", "--n", "400", "--triangle", "--edges", "EDGES"])
    # A word longer than the grid grows the canvas past it; a shorter one stays inside.
    words = {**WORDS, **LARGE_WORDS}
    for axes in ("ij", "lr"):
        for n, m in ((0, 4), (4, 9), (9, 4), (9, 1), (40, 400), (400, 40)):
            yield (f"render grid --axes {axes} --n {n} --word <{m}>",
                   ["render", "grid", "--axes", axes, "--n", str(n), "--word", words[m]])
    for axes in AXIS_PAIRS:  # the empty word overlays one point
        for n in (0, 2):
            yield (f'render grid --axes {axes} --n {n} --word ""',
                   ["render", "grid", "--axes", axes, "--n", str(n), "--word", ""])
    yield ("render wireframe --n 400 --triangle",
           ["render", "wireframe", "--n", "400", "--triangle", "--edges", "EDGES"])
    # The benchmark's largest report, an odd n whose centre n / 2 is no integer, and
    # a box so large that every pixel is a 300-digit float.
    yield "geometry --n 400 --format json", ["geometry", "--n", "400", "--format", "json"]
    yield ("render schlegel --n 399 --triangle",
           ["render", "schlegel", "--n", "399", "--triangle", "--edges", "EDGES"])
    yield ("render wireframe --n 370 --triangle",
           ["render", "wireframe", "--n", "370", "--triangle", "--edges", "EDGES"])
    yield ("render schlegel --n 10**300",
           ["render", "schlegel", "--n", str(10**300), "--edges", "EDGES"])
    yield ("render wireframe --n 10**300 --cell rmax",
           ["render", "wireframe", "--n", str(10**300), "--cell", "rmax", "--edges", "EDGES"])


CASES = [golden.Case(case_id, argv, files=("EDGES",) if "EDGES" in argv else ())
         for case_id, argv in _cases()]
EXPECTED = golden.load(DATA)
entry = golden.digest


def test_corpus_is_recorded():
    golden.assert_recorded(EXPECTED, CASES)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_golden(case):
    assert golden.digest(case) == EXPECTED[case.id]
