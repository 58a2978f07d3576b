"""Numeric command-line arguments: a valid value prints what it always printed,
an invalid one is a usage error (exit 2), never a traceback or silent output.

``data/cli_args_stdout.json`` holds the SHA-256 of the stdout of every valid
case, recorded before the arguments were range-checked.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dyck4d.cli import main

EXPECTED = json.loads((Path(__file__).parent / "data" / "cli_args_stdout.json").read_text())

#: (argv prefix, smallest valid --n) for every subcommand taking --n.
N_COMMANDS = [
    (["count"], 0),
    (["geometry"], 0),
    (["enumerate"], 0),
    (["render", "grid", "--axes", "lr"], 0),
    (["render", "wireframe"], 1),
    (["render", "schlegel"], 1),
]

CASES = [(prefix + ["--n", str(n)], n >= low)
         for prefix, low in N_COMMANDS for n in range(-3, 7)]
CASES += [(["sample", "--n", str(n), "--seed", "7", "--count", str(count)], n >= 0 and count >= 0)
          for n in range(-3, 7) for count in range(-3, 4)]


@pytest.mark.parametrize("argv, valid", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_numeric_argument(capsys, argv, valid):
    rc = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if valid:
        assert rc == 0
        assert hashlib.sha256(captured.out.encode()).hexdigest() == EXPECTED[" ".join(argv)]
    else:
        assert rc == 2
        assert captured.out == ""
        assert "must be at least" in captured.err
