"""The committed performance trajectory: every `BENCH_*.json` holds what
`scripts/bench_pairs.py` writes for the benchmark `BENCHMARK.json`
declares."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10  # scripts/bench_pairs.py runs ten alternating pairs per workload


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_holds_every_declared_workload_and_metric(path):
    workloads = json.loads(path.read_text())["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in DECLARED["workloads"])
    metrics = {m["name"] for m in DECLARED["end_to_end"]}
    for name, recorded in workloads.items():
        assert len(recorded["pairs"]) == PAIRS, name
        assert metrics <= set(recorded["summary"]), name
        for metric in metrics:
            summary = recorded["summary"][metric]
            assert {"parent", "change", "change_wins"} <= set(summary), (name, metric)


def test_the_trajectory_is_committed():
    assert len(list(ROOT.glob("BENCH_*.json"))) >= 1
