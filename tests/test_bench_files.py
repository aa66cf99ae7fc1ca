"""The committed performance trajectory: every `BENCH_*.json` holds what
`scripts/bench_pairs.py` writes for the benchmark `BENCHMARK.json`
declares."""
import importlib.util
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


def test_the_trajectory_has_one_row_per_committed_file():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    paths = list(ROOT.glob("BENCH_*.json"))
    columns, rows = bench_pairs.trajectory(paths)
    assert sorted(name for name, _ in rows) == sorted(path.name for path in paths)
    numbers = [int(name[len("BENCH_"):-len(".json")]) for name, _ in rows]
    assert numbers == sorted(numbers)
    assert columns == [(w["name"], metric) for w in DECLARED["workloads"]
                       for metric in ("checks_per_s", "latency_p50_ms", "peak_rss_mb")]
    for name, medians in rows:
        workloads = json.loads((ROOT / name).read_text())["workloads"]
        assert medians == [workloads[w]["summary"][metric]["change"]["median"]
                           for w, metric in columns]
