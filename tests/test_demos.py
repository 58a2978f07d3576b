"""The demos print the same bytes as when ``data/demos_stdout.json`` was recorded,
and the figures demo writes the tracked files in demos/rendered/ byte for byte.

The file maps each demo's name to the SHA-256 of its standard output.
"""

from pathlib import Path

import pytest

import golden
from dyck4d import enumeration

DATA = Path(__file__).parent / "data" / "demos_stdout.json"
NAMES = sorted(path.name for path in golden.DEMOS.glob("*.py"))
CASES = [golden.Case(name, [name]) for name in NAMES]  # as ``python <name>`` runs it
EXPECTED = golden.load(DATA)

FIGURES = ["box_edges.txt", "box_oblique.svg", "cube_cell.svg", "grid_ij_mountain.svg",
           "grid_jl_mixed.svg", "grid_lr_staircase.svg", "nested_cubes.svg"]


def entry(case):
    return golden.sha(golden.demo(case.id).out)


def test_every_demo_is_recorded():
    golden.assert_recorded(EXPECTED, CASES)


@pytest.mark.parametrize("case", CASES, ids=NAMES)
def test_demo_stdout(case):
    assert entry(case) == EXPECTED[case.id]


def test_figures_match_tracked_files():
    written = golden.demo("06_figures.py").files  # in the order of their names
    assert len(written) == len(FIGURES)
    assert dict(zip(FIGURES, written)) == {
        name: (golden.DEMOS / "rendered" / name).read_bytes() for name in FIGURES}


def test_demos_leave_the_counting_state_as_it_was():
    # demo 03 counts, ranks and samples, which in a process of its own grows a table
    for name in NAMES:
        golden.demo(name)
    assert (enumeration._table, enumeration._walked) == ((), 0)
