"""The one test harness: a call recorder, a child runner and the golden CLI corpora.

* :func:`calls` records the calls of named functions wherever the package binds them.
* :func:`child` runs ``python -m dyck4d`` or ``python -c`` in a child limited to 256 MB,
  with this checkout's package first on the path (:data:`CHILD_ENV`, which a test that
  streams a child's output uses too); ``tools/linecov.py`` traces every such child.
* :func:`run` runs a golden :class:`Case` in process, as a fresh ``dyck4d`` would.
  ``test_paths_golden.py``, ``test_figures_golden.py`` and ``test_cli_args.py`` each
  name their cases (``CASES``), their data file (``DATA``) and what a case records
  there (``entry``).  Record the cases that have no entry yet with ``PYTHONPATH=src
  python tests/golden.py``.  It fills in missing entries only, so re-recording one
  (only when a change of output is intended) means deleting it first.
"""

import contextlib
import hashlib
import inspect
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from dyck4d import enumeration
from dyck4d.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
#: The environment of every child process: this checkout's package first on the path.
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


@contextlib.contextmanager
def calls(*functions):
    """Record the calls of ``functions`` made in the block: yields a dict from each
    function's name to one {parameter: argument} dict per call.  Each function is
    wrapped in its defining module (``math`` for ``math.comb``) and wherever a loaded
    module of the package binds it, and restored there when the block ends, also in
    a module first imported in the block."""
    recorded = {}
    wrapped = [(function, _recording(function, recorded.setdefault(function.__name__, [])))
               for function in functions]
    homes = [sys.modules[function.__module__] for function in functions]
    _rebind(wrapped, homes)
    try:
        yield recorded
    finally:
        _rebind([(wrapper, function) for function, wrapper in wrapped], homes)


def _rebind(pairs, homes) -> None:
    """For each (old, new) of ``pairs``, bind new wherever ``homes`` or a loaded
    module of the package bind old."""
    package = [module for name, module in list(sys.modules.items())
               if name.partition(".")[0] == "dyck4d"]
    for module in (*homes, *package):
        for old, new in pairs:
            for name in [name for name, value in vars(module).items() if value is old]:
                setattr(module, name, new)


def _recording(function, made: list):
    """``function``, appending the arguments of each call to ``made`` first."""
    signature = inspect.signature(function)

    def recording(*args, **kwargs):
        made.append(signature.bind(*args, **kwargs).arguments)
        return function(*args, **kwargs)

    return recording


def limit_to_256_mb():
    """Run in a child before it starts: limits its address space to 256 MB."""
    resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))


def child(*argv, stdin=None, code=None) -> subprocess.CompletedProcess:
    """``python -m dyck4d *argv``, or ``python -c code *argv``, in a child process
    limited to 256 MB of address space, with ``stdin`` as its input: its exit code,
    stdout and stderr as text."""
    program = ("-m", "dyck4d") if code is None else ("-c", code)
    return subprocess.run([sys.executable, *program, *argv], input=stdin, capture_output=True,
                          text=True, env=CHILD_ENV, timeout=30, preexec_fn=limit_to_256_mb)


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
