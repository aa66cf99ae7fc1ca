"""Record a performance trajectory point: alternating parent/change runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --first-seed 1501 --out BENCH_15.json

For every workload of BENCHMARK.json, each of PAIRS pairs runs
`perfbench/run.py --workload W --seed S --trace 0` once in the parent
checkout and once in the change checkout, one after the other, at
run.py's default length; the side that goes first alternates from pair
to pair, and pair k uses seed first_seed + k.  The output file, written
afresh, keeps every run's end-to-end metrics and, per workload and
metric, the median and quartiles of each side and the number of pairs
the change won.  It also records the host, the Python version, the run
command and both checkouts' commits and source digests.

    python3 scripts/bench_pairs.py

prints the trajectory instead: one row per committed BENCH_*.json, in
number order, with each workload's change medians of TRAJECTORY.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # a claimed gain must win 9 of 10 pairs
TRAJECTORY = ("checks_per_s", "latency_p50_ms", "peak_rss_mb")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    env, result = json.loads(env_line)["env"], json.loads(result_line)
    return {
        "seed": seed,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "correct": result["correct"],
        "host_slowdown": env["host_slowdown"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "env": env,
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if better == "higher" else -1
        out[name] = {
            "better": better,
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return out


def checkout_info(env: dict, checkout: Path) -> dict:
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=checkout, capture_output=True, text=True).stdout.strip()
    return {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"], "dirty": bool(dirty)}


def trajectory(paths) -> tuple[list[tuple[str, str]], list[tuple[str, list[float]]]]:
    """The trajectory's columns, (workload, metric) for each declared
    workload and each metric of TRAJECTORY, and one row per path: its
    name and the change medians of its columns."""
    columns = [(w["name"], metric) for w in declared()["workloads"] for metric in TRAJECTORY]
    rows = []
    for path in sorted(paths, key=lambda p: int(p.stem.partition("_")[2])):
        workloads = json.loads(path.read_text())["workloads"]
        rows.append((path.name, [workloads[w]["summary"][metric]["change"]["median"]
                                 for w, metric in columns]))
    return columns, rows


def print_trajectory() -> None:
    columns, rows = trajectory(ROOT.glob("BENCH_*.json"))
    print(" | ".join(["file", *(f"{w} {metric}" for w, metric in columns)]))
    for name, medians in rows:
        cells = (f"{m:,.0f}" if metric == "checks_per_s" else f"{m:.4g}"
                 for m, (_, metric) in zip(medians, columns))
        print(" | ".join([name, *cells]))


def main(argv=None) -> int:
    if not (sys.argv[1:] if argv is None else argv):
        print_trajectory()
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = declared()

    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for k in range(PAIRS):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed)
            pairs.append(pair)
            p, c = pair["parent"]["metrics"], pair["change"]["metrics"]
            print(f"{workload} seed {seed}: checks_per_s {p['checks_per_s']:.0f} -> "
                  f"{c['checks_per_s']:.0f}, p50 {p['latency_p50_ms']:.3f} -> "
                  f"{c['latency_p50_ms']:.3f} ms", flush=True)
        workloads[workload] = pairs

    env = {side: workloads[workload][0][side]["env"] for side in checkouts}
    for pairs in workloads.values():
        for pair in pairs:
            for side in checkouts:
                del pair[side]["env"]
    record = {
        "host": {"cpu_model": env["change"]["cpu_model"], "nproc": env["change"]["nproc"],
                 "platform": platform.platform()},
        "python": env["change"]["python"],
        "command": f"perfbench/run.py --workload W --seed S --trace 0 "
                   f"(default --seconds {env['change']['seconds']:g})",
        "parent": checkout_info(env["parent"], checkouts["parent"]),
        "change": checkout_info(env["change"], checkouts["change"]),
        "workloads": {
            workload: {"pairs": pairs, "summary": summary(pairs, bench["end_to_end"])}
            for workload, pairs in workloads.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
