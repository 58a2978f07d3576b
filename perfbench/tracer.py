"""Spans around the public functions of every ``dyck4d`` module, installed from outside.

:meth:`Tracer.install` wraps each non-underscore function a ``dyck4d``
module defines and rebinds *every* name that refers to it in every
``dyck4d`` module, because some modules import functions by name (render
binds ``geometry.triangle``, enumeration binds ``suffix_count_table``).
A span is ``[name, start, end, parent, request, size]``; spans stay in
memory until the run writes them out.  A function that a later version
of the package no longer defines simply produces no spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: The modules whose self time the benchmark reports.  ``errors`` defines
#: only exception types and ``__init__`` only re-exports names.
LAYERS = ("cli", "words", "lattice", "projections", "enumeration", "geometry", "render")


def _svg_bytes(result) -> int:
    if isinstance(result, tuple) and result and isinstance(result[0], str):
        result = result[0]
    return len(result.encode("utf-8")) if isinstance(result, str) else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        #: Request id stamped on new spans; ``None`` outside requests (set-up).
        self.request = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        #: Half-lengths any counting call of this process has seen so far.
        self.seen_n: set[int] = set()
        #: Requests that made a counting call, and those whose call met a new n.
        self.count_requests: set = set()
        self.new_n_requests: set = set()

    def install(self):
        """Wrap the package's public functions; idempotent until :meth:`uninstall`."""
        if self._bindings:
            return
        modules = {name: module for name, module in sys.modules.items()
                   if name == "dyck4d" or name.startswith("dyck4d.")}
        wrappers = {}
        for name, module in modules.items():
            layer = name.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != name):
                    continue
                wrappers[id(value)] = (value, self._wrap(layer, f"{layer}.{attr}", value))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    wrapper = wrappers[id(value)][1]
                    self._bindings.append((module, attr, value, wrapper))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_out = _svg_bytes if layer == "render" else None
        half_length = None
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        # Counting calls are those of lattice and enumeration that take an n or a word.
        if layer in ("lattice", "enumeration") and signature is not None and (
                {"n", "word"} & signature.parameters.keys()):
            def half_length(args, kwargs):
                bound = signature.bind_partial(*args, **kwargs).arguments
                return bound["n"] if "n" in bound else getattr(bound.get("word"), "n", None)
        geometry_nodes = name == "geometry.geometry_report"

        def traced(*args, **kwargs):
            request = self.request
            size = (args[0] + 1) * (args[0] + 2) // 2 if geometry_nodes and args else 0
            if half_length is not None:
                self._note_n(request, half_length(args, kwargs))
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, request, size]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            # Only the outermost render call counts, so nested ones add no bytes twice.
            if size_out is not None and (record[3] < 0
                                         or not spans[record[3]][0].startswith("render.")):
                record[5] = size_out(result)
            return result

        return functools.wraps(fn)(traced)

    def _note_n(self, request, n):
        if not isinstance(n, int):
            return
        if request is not None:
            self.count_requests.add(request)
            if n not in self.seen_n:
                self.new_n_requests.add(request)
        self.seen_n.add(n)


def layer_metrics(spans, bytes_out: int, symbols: int, points: int, count_requests: int,
                  new_n_requests: int, focus=None):
    """Per-layer calls, self time and work counts over the spans of requests.

    ``symbols`` and ``points`` are the word symbols and path points behind
    the requests' inputs, counted once per request by the workload, so that
    a version making fewer conversions of the same input shows a lower time
    per symbol.  Also returns calls and self time per function, and the self
    time per function of the single request ``focus``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    size = dict.fromkeys(LAYERS, 0)
    functions: dict[str, list] = {}
    focused: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        if span[4] is None:
            continue
        layer = span[0].partition(".")[0]
        own = span[2] - span[1] - children
        if span[4] == focus:
            focused[span[0]] = focused.get(span[0], 0.0) + own
        entry = functions.setdefault(span[0], [0, 0.0])
        entry[0] += 1
        entry[1] += own
        if layer in calls:
            calls[layer] += 1
            self_s[layer] += own
            size[layer] += span[5]

    def per(numerator, denominator, scale):
        return numerator * scale / denominator if denominator else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["lattice.us_per_call"] = (per(self_s["lattice"], calls["lattice"], 1e6), "us")
    metrics["lattice.new_n_share"] = (per(new_n_requests, count_requests, 1), "share")
    metrics["enumeration.us_per_call"] = (
        per(self_s["enumeration"], calls["enumeration"], 1e6), "us")
    metrics["words.symbols"] = (symbols, "count")
    metrics["words.us_per_symbol"] = (per(self_s["words"], symbols, 1e6), "us")
    metrics["projections.points"] = (points, "count")
    metrics["projections.us_per_point"] = (per(self_s["projections"], points, 1e6), "us")
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    metrics["geometry.nodes"] = (size["geometry"], "count")
    metrics["geometry.ns_per_node"] = (per(self_s["geometry"], size["geometry"], 1e9), "ns")
    metrics["render.svg_bytes"] = (size["render"], "bytes")
    table = {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(functions.items())}
    return metrics, table, dict(sorted(focused.items(), key=lambda item: -item[1]))
