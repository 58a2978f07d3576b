"""Demos 01-05 print the same bytes as when ``data/demos_stdout.json`` was recorded.

The file maps each demo's name to the SHA-256 of its standard output.
Re-record (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_demos.py``.
"""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DATA = Path(__file__).parent / "data" / "demos_stdout.json"
NAMES = sorted(path.name for path in DEMOS.glob("0[1-5]_*.py"))


def stdout_digest(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


EXPECTED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_demo_is_recorded():
    assert sorted(EXPECTED) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_demo_stdout(name):
    assert stdout_digest(name) == EXPECTED[name]


if __name__ == "__main__":
    DATA.write_text(json.dumps({name: stdout_digest(name) for name in NAMES}, indent=0) + "\n")
