"""The four workloads: how request k of a seed is made, sent and checked.

Each workload is a closed loop with one client: request k + 1 is made only
after response k has been checked.  Inputs depend only on (seed, k).  Sizes
are stratified (see :meth:`Workload.size`) and a run ends only after whole
cycles of kinds and sizes, so runs of different seeds send the same mix.
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import oracle
from child import warm_tables

CHILD = str(Path(__file__).resolve().with_name("child.py"))


class Request(NamedTuple):
    kind: str
    argv: list
    stdin: str
    expect: object
    symbols: int = 0  # symbols of the words behind the request's input (words.symbols)
    points: int = 0  # points of the paths the request projects or lifts (projections.points)


class Response(NamedTuple):
    code: object  # exit code, or a description of an exception that escaped
    stdout: str
    stderr: str
    extra: object = None  # figures: the edge-list file; counting-cold: the child's side file



class Workload:
    name = ""
    #: Request kinds, taken in turn: request k is of kind KINDS[k % len(KINDS)].
    KINDS: tuple = ()
    #: Sizes per kind (see :meth:`size`).
    POINTS = 1
    #: Requests after which every kind has met every size once; a run ends
    #: only at a multiple of it, so every run sends the same mix.
    CYCLE = 1
    in_process = True
    #: Half-lengths whose counting state set-up builds; empty: set-up is the import alone.
    warm_ns: tuple = ()
    #: Tail percentile reported.  At least ten samples lie beyond it in a
    #: run, and it falls inside one request class, not on the edge between
    #: two, where it would jump with the slightest noise.
    tail_percentile = 90.0
    #: The tracer of a traced pass over in-process requests.
    tracer = None
    #: Whether responses are the CLI's standard output (counted as cli.bytes_out).
    uses_cli = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{k}")

    def size(self, k: int, low: int, high: int) -> int:
        """Half-length of request k: one of POINTS evenly spaced values in [low, high].

        Each kind's requests sweep all values once per cycle, in an order the
        seed shuffles.
        """
        kinds, points = len(self.KINDS), self.POINTS
        kind, j = k % kinds, k // kinds
        order = random.Random(f"{self.name}/{self.seed}/{kind}/{j // points}").sample(
            range(points), points)
        return low + (high - low) * order[j % points] // (points - 1)

    def bind(self):
        """Import the package into this process (in-process workloads)."""
        from dyck4d import cli

        self.cli = cli

    def warm_up(self):
        """Work done once before timing; counting state for ``warm_ns``."""

    def make(self, k: int) -> Request:
        raise NotImplementedError

    def send(self, request: Request) -> tuple[float, Response]:
        raise NotImplementedError

    def check(self, request: Request, response: Response) -> str | None:
        """None when the response is right, else what is wrong with it."""
        if response.code != 0:
            return f"exit {response.code}"
        if response.stderr:
            return f"stderr {response.stderr[:80]!r}"
        return self.check_output(request, response)

    def check_output(self, request: Request, response: Response) -> str | None:
        return None if response.stdout == request.expect else "stdout differs"

    def digest_text(self, response: Response) -> str:
        return response.stdout


def call_cli(cli, argv, stdin: str) -> tuple[float, Response]:
    """One in-process ``cli.main`` call with captured standard streams."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed response, not a crash
            code = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return latency, Response(code, out.getvalue(), err.getvalue())


class Paths(Workload):
    """Batch validate / convert / project / lift over stdin, 8 words of n in [50, 1500]."""

    name = "paths"
    tail_percentile = 94.0  # the middle of lift-word and lift-path, the slowest 2 of 16 kinds
    BATCH = 8
    KINDS = ("validate", "convert-path", "convert-word",
             *(f"project-{axes}" for axes in oracle.AXIS_SETS), "lift-word", "lift-path")
    CYCLE = len(KINDS)

    def make(self, k):
        kind = self.KINDS[k % len(self.KINDS)]
        rng = self.rng(k)
        # One word from the middle of each eighth of [50, 1500], so every batch has one length.
        words = [oracle.random_word(rng, 50 + 1451 * (2 * j + 1) // (2 * self.BATCH))
                 for j in range(self.BATCH)]
        paths = [oracle.path_of(word) for word in words]
        if kind == "validate":
            argv, lines, out = ["validate"], words, [f"valid n={len(w) // 2}" for w in words]
        elif kind == "convert-path":
            argv, lines, out = ["convert", "--to", "path"], words, map(oracle.path_json, paths)
        elif kind == "convert-word":
            argv, lines, out = ["convert", "--to", "word"], map(oracle.path_json, paths), words
        elif kind.startswith("project-"):
            axes = kind.partition("-")[2]
            argv, lines = ["project", "--axes", axes], words
            out = [oracle.projected_json(path, axes) for path in paths]
        else:
            to = kind.partition("-")[2]
            argv = ["lift", "--to", to]
            lines = [oracle.projected_json(path, oracle.AXIS_SETS[(k + j) % 11])
                     for j, path in enumerate(paths)]
            out = words if to == "word" else map(oracle.path_json, paths)
        symbols = sum(map(len, words))
        points = symbols + self.BATCH if kind.startswith(("project-", "lift-")) else 0
        return Request(kind, argv, "".join(f"{line}\n" for line in lines),
                       "".join(f"{line}\n" for line in out), symbols, points)

    def send(self, request):
        return call_cli(self.cli, request.argv, request.stdin)


class Figures(Workload):
    """geometry JSON and the three render views, n in [10, 400]."""

    name = "figures"
    tail_percentile = 97.9  # the middle of geometry at n = 370, class 69 of 70
    # grid comes twice: it has six axis pairs where the other views have one
    # box, and an odd cycle keeps the median inside one request class.
    KINDS = ("geometry", "grid", "wireframe", "grid", "schlegel")
    POINTS = 14  # n = 10, 40, ..., 400
    CYCLE = len(KINDS) * POINTS
    CELLS = {"imin": (0, 0), "imax": (0, 2), "jmin": (1, 0), "jmax": (1, 1),
             "lmin": (2, 0), "lmax": (2, 1), "rmin": (3, 0), "rmax": (3, 1)}

    def make(self, k):
        kind = self.KINDS[k % len(self.KINDS)]
        n = self.size(k, 10, 400)
        variant = (k // len(self.KINDS))
        if kind == "geometry":
            return Request(kind, ["geometry", "--n", str(n), "--format", "json"], "", n)
        if kind == "grid":
            axes = oracle.PAIRS[k // 2 % len(oracle.PAIRS)]
            word = oracle.random_word(self.rng(k), n)
            argv = ["render", "grid", "--axes", axes, "--n", str(n), "--word", word]
            return Request(kind, argv, "", (n, axes, word), len(word), len(word) + 1)
        if kind == "schlegel":
            return Request(kind, ["render", "schlegel", "--n", str(n), "--triangle"], "", n)
        # The triangle overlay needs the whole box, so only the box view carries it.
        cell = (None, *self.CELLS)[variant % (len(self.CELLS) + 1)]
        argv = ["render", "wireframe", "--n", str(n), "--edges", str(self.work / "edges.txt")]
        argv += ["--triangle"] if cell is None else ["--cell", cell]
        return Request(kind, argv, "", (n, cell))

    def send(self, request):
        edges = self.work / "edges.txt"
        latency, response = call_cli(self.cli, request.argv, request.stdin)
        if request.kind == "wireframe" and edges.exists():
            response = response._replace(extra=edges.read_text(encoding="utf-8"))
            edges.unlink()
        return latency, response

    def check_output(self, request, response):
        text = response.stdout
        if request.kind == "geometry":
            expected = oracle.geometry_expected(request.expect)
            if text.count("\n") == 1 and json.loads(text) == expected:
                return None
            return "geometry report differs"
        if request.kind == "grid":
            n, axes, word = request.expect
            return oracle.check_grid_svg(text, axes, n, word)
        if request.kind == "schlegel":
            return oracle.check_wireframe_svg(text, request.expect, None, True, True)
        n, cell = request.expect
        pinned = None
        if cell is not None:
            axis, units = self.CELLS[cell]
            pinned = (axis, units * n)
        problem = oracle.check_wireframe_svg(text, n, pinned, False, cell is None)
        if problem is None and response.extra is None:
            return "no edge list written"
        return problem or oracle.check_edge_list(response.extra, n, pinned)

    def digest_text(self, response):
        return response.stdout + (response.extra or "")


class CountingCold(Workload):
    """count / rank / sample in a fresh interpreter per request, n in [200, 1000]."""

    name = "counting-cold"
    in_process = False
    tail_percentile = 80.0  # the middle of rank and sample at n = 1000, classes 12-13 of 15
    KINDS = ("count", "rank", "sample")
    POINTS = 5  # n = 200, 400, ..., 1000
    CYCLE = len(KINDS) * POINTS
    SAMPLES = 4

    #: Whether children install the tracer (the traced pass).
    trace = False

    def bind(self):
        self.side = self.work / "child.json"

    def make(self, k):
        kind = self.KINDS[k % len(self.KINDS)]
        n = self.size(k, 200, 1000)
        rng = self.rng(k)
        if kind == "count":
            l = rng.randint(0, n)
            r = rng.randint(0, l)
            node = f"{l + r},{l - r},{l},{r}"
            return Request(kind, ["count", "--n", str(n), "--node", node], "",
                           f"{node}\t{oracle.count_through(l, r, n)}\n")
        if kind == "rank":
            word = oracle.random_word(rng, n)
            return Request(kind, ["rank", word], "", f"{oracle.rank_of(word)}\n", len(word))
        seed = rng.randrange(2**31)
        argv = ["sample", "--n", str(n), "--seed", str(seed), "--count", str(self.SAMPLES)]
        return Request(kind, argv, "", (n, oracle.sampled_ranks(n, seed, self.SAMPLES)))

    def send(self, request):
        if self.side.exists():
            self.side.unlink()
        command = [sys.executable, CHILD, str(self.side), "1" if self.trace else "0", "-",
                   *request.argv]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, encoding="utf-8") as child:
            try:
                out, err = child.communicate(timeout=150)
            except subprocess.TimeoutExpired:
                child.kill()
                out, err = child.communicate()
                err = "timed out\n" + err
        latency = time.perf_counter() - start
        side = json.loads(self.side.read_text(encoding="utf-8")) if self.side.exists() else None
        return latency, Response(child.returncode, out, err, side)

    def check_output(self, request, response):
        if response.extra is None:
            return "no side file"
        if request.kind != "sample":
            return super().check_output(request, response)
        n, ranks = request.expect
        words = response.stdout.splitlines()
        if len(words) != len(ranks):
            return "sample count"
        for word, k in zip(words, ranks):
            if not oracle.is_balanced(word, n) or oracle.rank_of(word) != k:
                return f"sample {word[:20]}... is not rank {k}"
        return None


class CountingWarm(Workload):
    """One library call per request in a long-lived process, n in {250, 500, 1000}."""

    name = "counting-warm"
    uses_cli = False
    warm_ns = (250, 500, 1000)
    tail_percentile = 97.0  # the middle of the slowest class, sample at n = 1000
    # An odd cycle (5 kinds x 3 sizes = 15 slots) keeps the median inside one
    # call class instead of on the boundary between two.
    KINDS = ("count", "rank", "count", "unrank", "sample")
    CYCLE = 15  # 5 kinds x 3 sizes

    def bind(self):
        from dyck4d import enumeration, lattice, words

        self.lattice, self.enumeration, self.words = lattice, enumeration, words

    def warm_up(self):
        warm_tables(self.warm_ns)

    def make(self, k):
        kind = self.KINDS[k % len(self.KINDS)]
        n = self.warm_ns[k % len(self.warm_ns)]
        rng = self.rng(k)
        if kind == "count":
            l = rng.randint(0, n)
            r = rng.randint(0, l)
            return Request(kind, [(l + r, l - r, l, r), n], "", oracle.count_through(l, r, n))
        if kind == "rank":
            word = oracle.random_word(rng, n)
            return Request(kind, [self.words.parse_word(word)], "", oracle.rank_of(word))
        if kind == "unrank":
            k0 = rng.randrange(math.comb(2 * n, n) // (n + 1))
            return Request(kind, [k0, n], "", (n, k0))
        seed = rng.randrange(2**31)
        return Request(kind, [n, seed], "", (n, oracle.sampled_ranks(n, seed, 1)[0]))

    def send(self, request):
        function = {"count": self.lattice.count_paths_through, "rank": self.enumeration.rank,
                    "unrank": self.enumeration.unrank,
                    "sample": self.enumeration.sample_uniform}[request.kind]
        start = time.perf_counter()
        try:
            result = function(*request.argv)
        except Exception as exc:  # an escaped exception is a failed response, not a crash
            return time.perf_counter() - start, Response(f"{type(exc).__name__}: {exc}", "", "")
        latency = time.perf_counter() - start
        if self.tracer is not None:  # turning the result into text is the client's work
            self.tracer.request = None
        return latency, Response(0, str(result), "")

    def check_output(self, request, response):
        if request.kind in ("count", "rank"):
            return None if response.stdout == str(request.expect) else "value differs"
        n, k = request.expect
        word = response.stdout
        if not oracle.is_balanced(word, n) or oracle.rank_of(word) != k:
            return f"word is not rank {k}"
        return None


WORKLOADS = {w.name: w for w in (Paths, CountingCold, CountingWarm, Figures)}


def corrupt(response: Response) -> Response:
    """Flip one bit of one character in the middle of a response (verifier self-check)."""
    text = response.stdout
    if not text:
        return response._replace(stdout="?")
    middle = len(text) // 2
    return response._replace(stdout=text[:middle] + chr(ord(text[middle]) ^ 1) + text[middle + 1:])

