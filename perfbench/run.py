"""The dyck4d benchmark: one seeded workload, every response checked, metrics by name.

    python3 perfbench/run.py --workload paths --seed 1 --seconds 20 --trace 0

Workloads: paths, counting-cold, counting-warm, figures (see workloads.py
and BENCHMARK.json).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same requests untraced and then traced, and prints
the per-module metrics and the tracing overhead.  The last line of
standard output is one JSON object; times in it are scaled to one machine
speed (see REFERENCE_S).  A record of the run, with raw times, and the spans of
a traced run, are written under ``perfbench/results/``.  The exit status
is 1 when any response was wrong.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import ctypes
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import peak_rss_mb, rss_mb  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import CHILD, WORKLOADS, corrupt  # noqa: E402

#: Fresh interpreters started to measure set-up, spread evenly over the timed
#: pass so that their median sees the same machine as the requests do;
#: setup_s is their median.
SETUP_STARTS = 21
#: Times are reported at one fixed machine speed.  On a shared host the
#: speed of this process changes by up to 2x within a second, which moves
#: raw times of whole runs further than any regression bound.  So a fixed
#: pure-Python loop is timed before and after requests, every
#: REFERENCE_EVERY_S at most, and each time is scaled by REFERENCE_S over
#: the median of the loop's last REFERENCE_WINDOW timings, one of them
#: taken after the request: it reads as on a machine that runs the loop in
#: REFERENCE_S, about what it takes on a quiet 2-vCPU Intel Xeon VM under
#: Python 3.11.  Raw times go to the record of the run.
REFERENCE_S = 300e-6
REFERENCE_EVERY_S = 0.02
REFERENCE_WINDOW = 5
#: Before timing, every run sends the first requests of the default seed,
#: whatever ``--seed`` is, and compares their digest with the one recorded here.
DEFAULT_SEED = 0
PREFIX = 8
PREFIX_DIGESTS = {
    "paths": "232c99a3265545ff07605422f8626864e02b7fbdaea0dda58ab72ba5e77e16ab",
    "counting-cold": "a68c284600e82d56986ac58162918fe829ebbd332ae92b50e49b49a8be8cc85f",
    "counting-warm": "84868abd96e81b69699f32a5afc930f0cf9112921831842d5a7231741e810683",
    "figures": "e552c163dbd8a300cd523b6c3080934fcc84f7dc2e7ade55e5bbfa4198657151",
}


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks, as ``statistics.quantiles`` inclusive."""
    position = (len(ordered) - 1) * p / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    return {"p25": percentile(ordered, 25), "p50": percentile(ordered, 50),
            "p75": percentile(ordered, 75), "samples": len(ordered)}


def reference_loop() -> int:
    """Fixed work in the package's style: small-int steps, tuples, lists and text.

    In trials a loop of integer arithmetic alone tracked the requests'
    slowdowns less well.
    """
    nodes, text = [], []
    l = r = 0
    for i in range(400):
        if i * i % 7 < 4:
            l += 1
        else:
            r += 1
        nodes.append((l + r, l - r, l, r))
        text.append(f"{l},{r}")
    return len(nodes) + len(" ".join(text))


class Reference:
    """Recent timings of :func:`reference_loop`, and the scale they give."""

    def __init__(self):
        self.samples: list[float] = []
        self.recent = collections.deque(maxlen=REFERENCE_WINDOW)
        self.last = -REFERENCE_EVERY_S
        for _ in range(REFERENCE_WINDOW):
            self.time_loop()

    def time_loop(self):
        start = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)
        self.recent.append(self.last - start)

    def tick(self):
        """Time the loop again if REFERENCE_EVERY_S has passed since it last ran."""
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.time_loop()

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.recent)


class Starter:
    """Fresh interpreters importing dyck4d.cli and doing the workload's warm-up.

    The package's bytecode is compiled first, since an installed package
    has it and the interpreter may be told not to write it on import; one
    start before any measured one warms the file cache.
    """

    def __init__(self, workload, work: Path):
        compileall.compile_dir(ROOT / "src" / "dyck4d", quiet=1)
        self.side = work / "setup.json"
        warm = ",".join(map(str, workload.warm_ns)) or "-"
        self.command = [sys.executable, CHILD, str(self.side), "0", warm]
        self.starts: list[dict] = []
        self.start()
        self.starts.clear()

    def start(self, reference: Reference | None = None):
        begin = time.perf_counter()
        done = subprocess.run(self.command, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - begin
        scale = 1.0
        if reference is not None:
            reference.tick()
            scale = reference.scale()
        if done.returncode != 0 or done.stdout or done.stderr:
            raise RuntimeError(f"set-up start failed: {done.returncode} {done.stderr[-400:]}")
        info = json.loads(self.side.read_text(encoding="utf-8"))
        self.side.unlink()
        self.starts.append({"wall_s": wall * scale, "raw_s": wall, "import_s": info["import_s"]})


class Phase:
    """One closed-loop pass over requests: latencies, failures and input sizes."""

    def __init__(self):
        self.reference = Reference()
        self.latencies: list[float] = []  # scaled, see REFERENCE_S
        self.raw_latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[tuple[int, str]] = []
        self.bytes_out = 0
        self.symbols = 0
        self.points = 0
        self.children: list[dict] = []

    def serve(self, workload, k: int, request, tracer=None):
        """Send one request, check and record its response; returns the response."""
        self.reference.tick()
        if tracer is not None:
            tracer.request = k
        latency, response = workload.send(request)
        if tracer is not None:
            tracer.request = None
        self.reference.tick()
        problem = verify(workload, request, response)
        if problem is not None:
            self.failures.append((k, f"{request.kind}: {problem}"))
        self.latencies.append(latency * self.reference.scale())
        self.raw_latencies.append(latency)
        self.kinds.append(request.kind)
        self.bytes_out += len(response.stdout.encode("utf-8"))
        self.symbols += request.symbols
        self.points += request.points
        if isinstance(response.extra, dict):
            self.children.append(response.extra)
        return response


def verify(workload, request, response) -> str | None:
    try:
        return workload.check(request, response)
    except Exception as exc:  # a response the checker cannot even parse is wrong
        return f"{type(exc).__name__}: {exc}"


def prefix_pass(golden) -> tuple[Phase, str]:
    """The default seed's first requests, untimed: checked, digested, and each
    corrupted once to show that the checker flags the corruption."""
    phase, digest = Phase(), hashlib.sha256()
    for k in range(PREFIX):
        request = golden.make(k)
        response = phase.serve(golden, k, request)
        digest.update(golden.digest_text(response).encode("utf-8"))
        if verify(golden, request, corrupt(response)) is None:
            phase.failures.append((k, f"{request.kind}: a corrupted response passed the check"))
    return phase, digest.hexdigest()


def run_phase(workload, seconds: float, count: int | None, tracer=None,
              starter: Starter | None = None) -> Phase:
    """Requests 0, 1, ... of the workload's seed: ``count`` of them, or whole
    cycles until ``seconds`` of serving have passed, with the set-up starts
    of ``starter`` spread evenly over those seconds and not counted in them."""
    phase = Phase()
    began = time.perf_counter()
    aside = 0.0  # time spent on set-up starts
    k = 0
    while count is None or k < count:
        if count is None:
            while (len(starter.starts) < SETUP_STARTS and time.perf_counter() - began - aside
                   >= seconds * len(starter.starts) / SETUP_STARTS):
                mark = time.perf_counter()
                phase.reference.tick()
                starter.start(phase.reference)
                aside += time.perf_counter() - mark
            if k % workload.CYCLE == 0 and time.perf_counter() - began - aside >= seconds:
                break
        phase.serve(workload, k, workload.make(k), tracer)
        k += 1
    return phase


def settled_rss_mb() -> float:
    """RSS after a full collection and after glibc hands free heap pages back.

    Without the trim, allocator slack left by the last large response moves
    the figure by megabytes from run to run.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: measure without the trim
        pass
    return rss_mb()


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="ascii").strip() if target.is_file() else ref[5:]
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dyck4d" / "cli.py").is_file():
        print(f"perfbench: no dyck4d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "results" / "work"
    work.mkdir(parents=True, exist_ok=True)
    # One CPU for this process and the children it waits for (the loop is
    # closed, so they never run at once), so that the reference loop times
    # the CPU that serves the requests; the CPUs of a shared host differ.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload](args.seed, work)
    golden = WORKLOADS[args.workload](DEFAULT_SEED, work)
    sys.path.insert(0, str(ROOT / "src"))
    rss_base = settled_rss_mb()
    import dyck4d.cli  # noqa: F401  (this process serves the in-process workloads)

    if not Path(dyck4d.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported dyck4d from {dyck4d.cli.__file__}", file=sys.stderr)
        return 2
    workload.bind()
    golden.bind()
    tracer = Tracer() if args.trace else None
    if tracer is not None:  # so the tracer knows which n set-up already counted
        tracer.install()
    workload.warm_up()
    if tracer is not None:
        tracer.uninstall()

    prefix, digest = prefix_pass(golden)
    starter = Starter(workload, work)
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_phase(workload, seconds, None, starter=starter)
    latencies = plain.latencies
    setup = starter.starts
    traced = None
    # The traced pass replays the same requests, so its extra time is the tracing overhead.
    if tracer is not None:
        workload.trace = True  # counting-cold: children install the tracer themselves
        workload.tracer = tracer
        tracer.install()
        traced = run_phase(workload, 0, len(latencies), tracer)
        tracer.uninstall()
    rss_end = settled_rss_mb()

    ran = [prefix, plain] + ([traced] if traced else [])
    attempted = sum(len(p.latencies) for p in ran)
    failures = [failure for p in ran for failure in p.failures]
    if digest != PREFIX_DIGESTS[workload.name]:
        failures.append((-1, f"digest of the default seed's first {PREFIX} responses is {digest}"))
    ordered = sorted(latencies)
    tail = percentile(ordered, workload.tail_percentile)
    if workload.in_process:
        peak = peak_rss_mb()
        retained = rss_end - rss_base
    else:
        peak = max(child["peak_rss_mb"] for child in plain.children)
        retained = max(child["rss_end_mb"] - child["rss_base_mb"] for child in plain.children)
    setup_walls = [s["wall_s"] for s in setup]
    end_to_end = {
        "requests_per_s": (len(ordered) / sum(ordered), "1/s"),
        "latency_p50_ms": (percentile(ordered, 50) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (peak, "MB"),
        "retained_mb": (retained, "MB"),
        "success_share": (1 - len(failures) / attempted, "share"),
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "attempted": attempted, "failed": len(failures),
        "failures": failures[:20], "prefix_digest": digest,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()},
        "latency_s": quartiles(latencies),
        "raw_latency_s": quartiles(plain.raw_latencies),
        "reference_s": quartiles(plain.reference.samples),
        "tail": {"percentile": workload.tail_percentile,
                 "samples_beyond": sum(1 for x in ordered if x > tail)},
        "latency_s_by_kind": {kind: quartiles([x for x, k in zip(latencies, plain.kinds)
                                               if k == kind])
                              for kind in sorted(set(plain.kinds))},
        "setup_s": quartiles(setup_walls),
        "raw_setup_s": quartiles([s["raw_s"] for s in setup]),
        "import_s": quartiles([s["import_s"] for s in setup]),
    }
    metrics = end_to_end
    if traced is not None:
        if workload.in_process:
            spans, counting, new_n = (tracer.spans, len(tracer.count_requests),
                                      len(tracer.new_n_requests))
        else:
            spans, counting, new_n = [], 0, 0
            for k, child in enumerate(traced.children):
                base = len(spans)
                spans += [[name, start, end, parent + base if parent >= 0 else -1, k, size]
                          for name, start, end, parent, _, size in child["spans"]]
                counting += child["count_requests"]
                new_n += child["new_n_requests"]
        slowest = max(range(len(traced.latencies)), key=traced.latencies.__getitem__)
        bytes_out = traced.bytes_out if workload.uses_cli else 0
        layers, functions, focused = layer_metrics(spans, bytes_out, traced.symbols,
                                                   traced.points, counting, new_n, slowest)
        plain_s, traced_s = sum(latencies), sum(traced.latencies)
        metrics = {"startup.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
                   **layers,
                   "trace.overhead_share": ((traced_s - plain_s) / plain_s, "share")}
        record["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        record["functions"] = functions
        record["slowest_traced_request"] = {
            "k": slowest, "kind": traced.kinds[slowest], "latency_s": traced.latencies[slowest],
            "self_s": focused}
        spans_file = HERE / "results" / f"{workload.name}-seed{args.seed}-spans.json"
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "size"],
                       "spans": spans}, handle)
    results = HERE / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for k, problem in failures[:5]:
        print(f"FAILED request {k}: {problem}")
    print(f"{workload.name} seed={args.seed}: {attempted} requests, {len(failures)} failed; "
          f"tail is p{workload.tail_percentile:g} with {record['tail']['samples_beyond']} "
          f"samples beyond; record {results.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
