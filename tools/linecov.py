"""Which lines of ``src/dyck4d`` the tier-1 tests run, with the standard library only.

Run from the repository root, with any extra pytest arguments:

    PYTHONPATH=src python tools/linecov.py [pytest arguments]

The tests run in this process under ``sys.settrace``, which Python 3.10-3.12
all have (``sys.monitoring`` comes only in 3.12).  A test's ``python -m ...``
or ``python -c ...`` child runs under this script too, and sends the lines it
ran back on a pipe.  After pytest's report come three lists of lines:

* never run, neither in process nor in a child;
* run only in a child: no in-process test reaches them;
* reached only by tests: no golden CLI case and no demo runs them, that is
  none of the test files in ``PRODUCT_TESTS``.

Module and class bodies run on import, so their lines count as reached by
every use.  A function whose result a module caches, such as the package's
``__getattr__``, runs for whichever test first needs it, which may be one
outside ``PRODUCT_TESTS`` or the collection of a test file, so it may show as
reached only by tests.  The script writes no file and exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
from itertools import groupby

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "dyck4d")

#: The test files that run the golden CLI corpora and the demos, as a user would.
PRODUCT_TESTS = ("test_paths_golden.py", "test_cli_args.py", "test_figures_golden.py",
                 "test_demos.py")

#: The code flag of a function; a module or class body lacks it.
_CO_NEWLOCALS = 0x2


class Lines:
    """The (path, line) pairs of SRC that ran: in ``user`` those of module and
    class bodies and of the tests in ``PRODUCT_TESTS``, in ``test`` the other
    tests', in ``child`` those the children sent back."""

    def __init__(self):
        self.user, self.test, self.child = set(), set(), set()
        self.current = self.test
        self._files = {}  # a code object's file name: its path in SRC, or ""

    def _path(self, frame) -> str:
        name = frame.f_code.co_filename
        path = self._files.get(name)
        if path is None:
            real = os.path.realpath(name)
            path = self._files[name] = real if os.path.dirname(real) == SRC else ""
        return path

    def call(self, frame, event, arg):
        """The global trace function: a line tracer for frames of SRC, else None.
        A frame that a module or class body of SRC runs, such as a generator
        expression that builds a module constant, runs on import too."""
        if not self._path(frame):
            return None
        while frame is not None and self._path(frame):
            if not frame.f_code.co_flags & _CO_NEWLOCALS:
                return self._body
            frame = frame.f_back
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.current.add((self._files[frame.f_code.co_filename], frame.f_lineno))
        return self._line

    def _body(self, frame, event, arg):
        if event == "line":
            self.user.add((self._files[frame.f_code.co_filename], frame.f_lineno))
        return self._body


def _executable(path: str) -> set[int]:
    """The lines of a source file that hold code, read from its code objects."""
    with open(path, encoding="utf-8") as handle:
        pending = [compile(handle.read(), path, "exec")]
    lines = set()
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        pending.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def _receive(fd: int, into: set) -> None:
    """Add the "path:line" records a child writes to ``fd`` until it closes it."""
    with os.fdopen(fd, encoding="utf-8") as pipe:
        for record in pipe:
            path, _, line = record.rstrip("\n").rpartition(":")
            into.add((path, int(line)))


def _trace_children(lines: Lines) -> list:
    """Start every ``python -m``/``python -c`` child under this script from now on;
    returns the threads that collect what the children send into ``lines.child``."""
    import subprocess
    import threading

    readers = []

    class Popen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            if not (isinstance(args, (list, tuple)) and len(args) > 2
                    and args[0] == sys.executable and args[1] in ("-m", "-c")):
                super().__init__(args, *rest, **kwargs)
                return
            read, write = os.pipe()
            kwargs["pass_fds"] = (*kwargs.get("pass_fds", ()), write)
            try:
                super().__init__([args[0], os.path.abspath(__file__), "--child", str(write),
                                  *args[1:]], *rest, **kwargs)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            readers.append(threading.Thread(target=_receive, args=(read, lines.child)))
            readers[-1].start()

    subprocess.Popen = Popen
    return readers


def _child(fd: int, flag: str, target: str, *args: str) -> None:
    """``python flag target *args``, with ``flag`` -m or -c, traced; then the lines
    of SRC it ran are written to ``fd``, one "path:line" record each."""
    lines = Lines()
    lines.user = lines.test = lines.current = lines.child
    sys.argv = [target if flag == "-m" else "-c", *args]
    sys.path[0] = os.getcwd() if flag == "-m" else ""
    sys.settrace(lines.call)
    try:
        if flag == "-m":
            import runpy
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    finally:
        sys.settrace(None)
        with os.fdopen(fd, "w", encoding="utf-8") as pipe:
            pipe.writelines(f"{path}:{line}\n" for path, line in lines.child)


def _report(title: str, pairs) -> None:
    """Print ``title`` and each run of consecutive lines as "file:first-last  text"."""
    pairs = sorted(pairs)
    print(f"\n{title} ({len(pairs)} lines):")
    for path, run in groupby(enumerate(pairs), lambda item: (item[1][0], item[1][1] - item[0])):
        numbers = [line for _, (_, line) in run]
        with open(path[0], encoding="utf-8") as handle:
            text = handle.read().splitlines()[numbers[0] - 1].strip()
        span = f"{numbers[0]}" if len(numbers) == 1 else f"{numbers[0]}-{numbers[-1]}"
        print(f"  {os.path.basename(path[0])}:{span}  {text}")


def main(args) -> int:
    import threading

    import pytest

    lines = Lines()

    def product(item) -> bool:
        return os.path.basename(item.nodeid.split("::")[0]) in PRODUCT_TESTS

    class Buckets:
        """Runs the tests in ``PRODUCT_TESTS`` first, as in a fresh process a user's
        first command fills what the package computes once, and charges each test's
        lines to ``lines.user`` or ``lines.test`` by its file."""

        def pytest_collection_modifyitems(self, items):
            items.sort(key=lambda item: not product(item))

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            lines.current = lines.user if product(item) else lines.test
            yield
            lines.current = lines.test

    readers = _trace_children(lines)
    # Installed before pytest imports the package, so that module bodies are traced.
    threading.settrace(lines.call)
    sys.settrace(lines.call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *args], plugins=[Buckets()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for reader in readers:
        reader.join()

    executable = {(os.path.join(SRC, name), line) for name in sorted(os.listdir(SRC))
                  if name.endswith(".py") for line in _executable(os.path.join(SRC, name))}
    in_process = lines.user | lines.test
    _report("never run, in process or in a child", executable - in_process - lines.child)
    _report("run only in a python -m or python -c child", executable & lines.child - in_process)
    _report("reached only by tests: no golden CLI case and no demo runs them",
            executable & lines.test - lines.user)
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(int(sys.argv[2]), *sys.argv[3:])
    else:
        sys.exit(main(sys.argv[1:]))
