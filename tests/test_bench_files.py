"""Every committed ``BENCH_<pr>.json`` parses and speaks of exactly the workloads
and end-to-end metrics that ``BENCHMARK.json`` declares, which this reads only."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_names_match_the_benchmark(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert set(bench["workloads"]) == WORKLOADS
    for workload in bench["workloads"].values():
        assert set(workload["metrics"]) == METRICS
        for metric in workload["metrics"].values():
            for side in ("parent", "change"):
                assert metric[side]["p25"] <= metric[side]["median"] <= metric[side]["p75"]
