"""The figures demo reproduces the tracked files in demos/rendered/ byte for byte."""

import runpy
import shutil
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"

FIGURES = ["box_edges.txt", "box_oblique.svg", "cube_cell.svg", "grid_ij_mountain.svg",
           "grid_jl_mixed.svg", "grid_lr_staircase.svg", "nested_cubes.svg"]


def test_figures_match_tracked_files(tmp_path):
    script = tmp_path / "06_figures.py"
    shutil.copy(DEMOS / "06_figures.py", script)
    runpy.run_path(str(script), run_name="__main__")
    written = sorted(path.name for path in (tmp_path / "rendered").iterdir())
    assert written == FIGURES
    for name in FIGURES:
        assert (tmp_path / "rendered" / name).read_bytes() == (DEMOS / "rendered" / name).read_bytes(), name
