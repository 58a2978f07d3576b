"""The in-process runner of the golden CLI corpora, and their one record command.

``test_paths_golden.py``, ``test_figures_golden.py`` and ``test_cli_args.py``
each name their cases (``CASES``), their data file (``DATA``) and what a case
records there (``entry``).  Record the cases that have no entry yet with
``PYTHONPATH=src python tests/golden.py``.  It fills in missing entries only, so
re-recording one (only when a change of output is intended) means deleting it first.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from dyck4d import enumeration
from dyck4d.cli import main


class Case(NamedTuple):
    """One run of ``main``; an item of ``argv`` named in ``files`` stands for an output file."""
    id: str
    argv: list
    stdin: str = ""
    files: tuple = ()


class Result(NamedTuple):
    out: str
    err: str
    code: int
    files: tuple  # the bytes of each output file, in the order of Case.files


@contextlib.contextmanager
def fresh_counting():
    """Counting state as in a new process, no prefix table and no walks charged, until
    the block ends: the state before comes back, so a table bought inside is dropped."""
    with mock.patch.multiple(enumeration, _table=(), _walked=0):
        yield


def run(case: Case) -> Result:
    """``main`` as a new ``dyck4d`` process runs it: on the case's stdin, in an
    80-column terminal (argparse wraps its usage line there) and with fresh counting state."""
    out, err = io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as work, fresh_counting(),
          mock.patch.object(sys, "stdin", io.StringIO(case.stdin)),
          mock.patch.dict(os.environ, {"COLUMNS": "80"}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        paths = {name: os.path.join(work, name) for name in case.files}
        code = main([paths.get(arg, arg) for arg in case.argv])
        files = tuple(Path(paths[name]).read_bytes() for name in case.files)
    return Result(out.getvalue(), err.getvalue(), code, files)


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def digest(result: Result) -> list:
    """[stdout SHA, stderr SHA, exit code], then the SHA of each output file."""
    return [sha(result.out), sha(result.err), result.code, *map(sha, result.files)]


def load(data: Path) -> dict:
    return json.loads(data.read_text()) if data.exists() else {}


def assert_recorded(expected: dict, cases) -> None:
    """Every case has an entry, and every entry a case."""
    assert sorted(expected) == sorted(case.id for case in cases)


def record(data: Path, cases, entry) -> None:
    """Add ``entry(run(case))`` to ``data`` for each case that has no entry there, unless
    it is None.  Every recorded entry stays, and ``data`` is written only if one is added."""
    recorded = load(data)
    added = {case.id: entry(run(case)) for case in cases if case.id not in recorded}
    added = {case_id: value for case_id, value in added.items() if value is not None}
    if added:
        data.write_text(json.dumps({**recorded, **added}, indent=0) + "\n")


if __name__ == "__main__":
    import test_cli_args
    import test_figures_golden
    import test_paths_golden
    for corpus in (test_paths_golden, test_figures_golden, test_cli_args):
        record(corpus.DATA, corpus.CASES, corpus.entry)
