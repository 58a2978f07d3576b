"""Numeric command-line arguments: a valid value prints what it always printed,
an invalid one is a usage error (exit 2), never a traceback or silent output.
An --n past the bound of count or sample, where no answer could come back,
fails at once.

``data/cli_args_stdout.json`` holds the SHA-256 of the stdout of every valid
case, recorded before the arguments were range-checked.  Record the valid cases
that have no entry yet with ``PYTHONPATH=src python tests/golden.py``.  It fills
in missing entries only, so re-recording one means deleting it first.
"""

from pathlib import Path

import pytest

import golden
from dyck4d.cli import _COUNT_N, _SAMPLE_N

DATA = Path(__file__).parent / "data" / "cli_args_stdout.json"
EXPECTED = golden.load(DATA)

#: (argv prefix, smallest valid --n) for every subcommand taking --n.
N_COMMANDS = [
    (["count"], 0),
    (["geometry"], 0),
    (["enumerate"], 0),
    (["render", "grid", "--axes", "lr"], 0),
    (["render", "wireframe"], 1),
    (["render", "schlegel"], 1),
]
#: (argv prefix, largest valid --n) for every subcommand whose --n is bounded by its cost.
BOUNDED = [(["count"], _COUNT_N), (["count", "--node", "0,0,0,0"], _COUNT_N),
           (["sample", "--seed", "7"], _SAMPLE_N)]

#: (argv, the usage error it fails with, or None for a valid argv)
_ARGVS = [(prefix + ["--n", str(n)], None if n >= low else "must be at least")
          for prefix, low in N_COMMANDS for n in range(-3, 7)]
_ARGVS += [(["sample", "--n", str(n), "--seed", "7", "--count", str(count)],
            None if n >= 0 and count >= 0 else "must be at least")
           for n in range(-3, 7) for count in range(-3, 4)]
#: (case, its usage error or None), the cases past a bound named by the power of ten
CHECKS = [(golden.Case(" ".join(argv), argv), error) for argv, error in _ARGVS]
CHECKS += [(golden.Case(f"{' '.join(prefix)} --n {label}", prefix + ["--n", str(n)]), "must be at most")
           for prefix, high in BOUNDED
           for label, n in ((str(high + 1), high + 1), ("10**6", 10**6), ("10**12", 10**12),
                            ("10**301", 10**301))]
CASES = [case for case, _ in CHECKS]


def entry(case):
    """The stdout SHA of a valid case; an invalid one records nothing."""
    result = golden.run(case)
    return golden.sha(result.out) if result.code == 0 else None


@pytest.mark.parametrize("case, error", CHECKS, ids=[case.id for case in CASES])
def test_numeric_argument(case, error):
    result = golden.run(case)
    assert "Traceback" not in result.err
    if error is None:
        assert result.code == 0
        assert golden.sha(result.out) == EXPECTED[case.id]
    else:
        assert (result.code, result.out) == (2, "")
        assert result.err.count("error:") == 1 and error in result.err.splitlines()[-1]
