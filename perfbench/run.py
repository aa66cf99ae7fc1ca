"""pmsem benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload prop_sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
src/ directory.  Ops run one after another until --seconds have passed,
each under a per-op deadline, and every op's output is checked (see
workloads.py).  The last line of stdout is one JSON object:

  --trace 0  end-to-end metrics (setup_s, latency, checks_per_s,
             peak_rss_mb, passed_ratio) from an untraced run, with
             timings scaled to a reference host speed (HostSampler);
  --trace 1  per-layer metrics: the same ops run untraced, then again
             with every public pmsem function wrapped (tracing.py).

The line before it records the machine, the code version, the seed,
sample counts and any failed ops.  NOTES.md explains the workloads.
"""
from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from the first statement

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("prop_sweep", "fo_sweep", "negation_stress", "cli_mix")
SETUP_PROBES = 7
# Seconds per calibration unit on the host the benchmark was defined on
# (2-vCPU Intel Xeon, Python 3.11.7, quiet): the speed timings are scaled to.
CALIBRATION_REF_S = 1.1e-3
SAMPLE_EVERY_S = 0.1  # process CPU time between two host-speed samples
SAMPLE_UNITS = 8  # calibration units per sample, about 9 ms
NEAR_SAMPLES = 2  # samples taken just before, and just after, an op that count for it
TRACE_UNTRACED_SHARE = 1 / 3  # of --seconds, spent on the untraced half of a traced run


class OpDeadline(BaseException):
    """Raised by the deadline alarm; not an Exception, so pmsem's own
    handlers (cli.main, check_proof) cannot swallow it."""


def _alarm(signum, frame):
    raise OpDeadline()


def _calibration_unit():
    """Fixed pure-Python work of the kind pmsem does: tuples,
    frozensets, dict updates and a sort."""
    table = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + len(frozenset((key, i % 7)))
    return sorted(table.items())


def host_slowdown(units: int = 120) -> float:
    """How many times slower than on the reference host the calibration
    unit runs now."""
    start = perf_counter()
    for _ in range(units):
        _calibration_unit()
    return (perf_counter() - start) / units / CALIBRATION_REF_S


class HostSampler:
    """Samples the host slowdown while ops run.

    Other tenants of a shared host change its speed by a fifth and more
    from one second to the next.  Every SAMPLE_EVERY_S of CPU time a
    SIGPROF handler runs a short calibration slice inside whatever is
    running, ops included; the slices' time is kept apart (`paused_s`)
    so that ops can leave it out.  Op times divided by the slowdown
    sampled while they ran keep the program's own cost (`timings`)."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        slowdown = host_slowdown(SAMPLE_UNITS)
        self.samples.append(slowdown)
        self.paused_s += perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        # Ignore rather than restore the default, which would end the
        # process if a last tick were still on its way.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        if not self.samples:
            self._sample(None, None)


class Tally:
    """What a sequence of ops did."""

    def __init__(self, sampler: HostSampler | None = None):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # raised or answered wrongly: the output is not correct
        self.checks = 0
        self.busy_s = 0.0
        # Per op, in order: latency (at least the deadline for a failed
        # op) and whether it passed.  Packed arrays, so that the memory
        # they take, which grows with the ops a run gets through, stays
        # small beside the program's in peak_rss_mb.
        self.latencies = array("d")
        self.passed = bytearray()
        self.failures: Counter = Counter()
        self.sampler = sampler
        # Per op: the slice of the sampler's samples taken while it ran,
        # as start and end indexes.
        self.first_sample = array("l")
        self.end_sample = array("l")

    def _paused(self) -> float:
        return self.sampler.paused_s if self.sampler else 0.0

    def run(self, op) -> None:
        self.attempted += 1
        error = None
        start = perf_counter()
        # Read after the clock here and before it below, so that a
        # sample taken in between can only lengthen the op, never make
        # its time negative.
        paused = self._paused()
        samples_before = len(self.sampler.samples) if self.sampler else 0
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
            try:
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            error = "deadline"
        except Exception as exc:  # the op's failure is the measurement
            error = f"raised {type(exc).__name__}: {exc}"
        paused = self._paused() - paused
        elapsed = perf_counter() - start - paused
        self.busy_s += elapsed
        self.first_sample.append(samples_before)
        self.end_sample.append(len(self.sampler.samples) if self.sampler else 0)
        if error is None:
            try:
                self.checks += op.check(result)
            except Exception as exc:  # a check that cannot read the output fails it too
                error = f"wrong answer: {type(exc).__name__}: {exc}"
        self.passed.append(error is None)
        if error is None:
            self.latencies.append(elapsed)
            return
        self.failed += 1
        self.wrong += error != "deadline"
        self.failures[f"{op.name}: {error[:160]}"] += 1
        # A failed op counts as missing any latency limit.
        self.latencies.append(max(elapsed, op.deadline_s))


def run_passes(passes, seconds: float, tally: Tally, tracer=None, done=None) -> None:
    """Run whole passes until `seconds` have gone, appending them to done."""
    start = perf_counter()
    for ops in passes:
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            tally.run(op)
        if done is not None:
            done.append(ops)
        if perf_counter() - start >= seconds:
            return


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_PROBES fresh interpreters, raw and divided by
    the host slowdown each measured right after.

    Each probe times itself from the first statement of this file until
    it has imported pmsem and pmsem.cli and built the run's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        elapsed, slowdown = float(words[1]), float(words[2])
        raw.append(elapsed)
        scaled.append(elapsed / slowdown)
    return raw, scaled


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pmsem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def timings(tally: Tally, scaled: bool) -> dict:
    """Latency percentiles and throughput.  Scaled, each op's time is
    divided by its host slowdown: the mean of the samples taken while
    it ran and of NEAR_SAMPLES on either side, so that every op follows
    the host at the time it ran."""
    samples = tally.sampler.samples if scaled else []
    factors = [
        statistics.fmean(samples[max(0, first - NEAR_SAMPLES):last + NEAR_SAMPLES]) if scaled else 1.0
        for first, last in zip(tally.first_sample, tally.end_sample)
    ]
    latencies = [t / f for t, f in zip(tally.latencies, factors)]
    passed_s = sum(t / f for t, f, ok in zip(tally.latencies, factors, tally.passed) if ok)
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "checks_per_s": tally.checks / passed_s if passed_s else 0.0,
    }


def end_to_end(tally: Tally, setup: list[float]) -> dict:
    # Peak memory before the per-op lists that timings() builds.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "checks_per_s": "checks/s"}
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update((name, (value, units[name])) for name, value in timings(tally, scaled=True).items())
    metrics["peak_rss_mb"] = (rss_mb, "MiB")
    metrics["passed_ratio"] = ((tally.attempted - tally.failed) / tally.attempted, "fraction")
    return metrics


def per_layer(tracer, plain: Tally, traced: Tally) -> dict:
    metrics = {}
    for target in tracer.calls:
        metrics[f"{target}.calls"] = (tracer.calls[target], "count")
        metrics[f"{target}.self_s"] = (tracer.self_s[target], "s")
    for target in ("propsem.eval_prop", "meanings.atom_meaning"):
        ratio = tracer.calls[target] / traced.checks if traced.checks else 0.0
        metrics[f"{target}.calls_per_check"] = (ratio, "calls/check")
    metrics["meanings.transversals.max_members"] = (tracer.max_members, "count")
    metrics["meanings.transversals.max_union_pairs"] = (tracer.max_union_pairs, "count")
    metrics["trace.wall_s"] = (traced.busy_s, "s")
    metrics["trace.overhead_ratio"] = (traced.busy_s / plain.busy_s, "ratio")
    return metrics


def import_program() -> str | None:
    """Import pmsem and its CLI from ROOT/src; say what is wrong if that fails."""
    src = ROOT / "src"
    if not (src / "pmsem" / "__init__.py").is_file():
        return f"no pmsem sources under {src}"
    sys.path.insert(0, str(src))
    import pmsem
    import pmsem.cli  # noqa: F401  the CLI is part of what setup imports

    if Path(pmsem.__file__).resolve().parent != src / "pmsem":
        return f"imported pmsem from {pmsem.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pmsem benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        workloads.BUILDERS[args.workload](args.seed, ROOT, OUT_DIR)
        elapsed = perf_counter() - STARTED
        print("ready", elapsed, host_slowdown())
        return 0

    setup_raw, setup = ([], []) if args.trace else measure_setup(args)
    passes = workloads.BUILDERS[args.workload](args.seed, ROOT, OUT_DIR)
    signal.signal(signal.SIGALRM, _alarm)
    env = environment(args)
    if args.trace == 0:
        with HostSampler() as sampler:
            plain = Tally(sampler)
            run_passes(passes, args.seconds, plain)
        metrics = end_to_end(plain, setup)
        tallies = [plain]
        env["setup_probes"] = len(setup)
        env["unscaled"] = timings(plain, scaled=False)
        env["unscaled"]["setup_s"] = statistics.median(setup_raw)
        env["host_slowdown"] = statistics.median(sampler.samples)
        env["host_samples"] = len(sampler.samples)
    else:
        import tracing

        plain = Tally()
        done = []
        run_passes(passes, args.seconds * TRACE_UNTRACED_SHARE, plain, done=done)
        tracer = tracing.Tracer()
        traced = Tally()
        tracer.install()
        try:
            run_passes(iter(done), float("inf"), traced, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, plain, traced)
        tallies = [plain, traced]
        env["absent"] = tracer.absent
        self_total = sum(tracer.self_s.values())
        env["self_s_total"] = self_total
        if self_total > traced.busy_s:
            print("error: layer self times exceed the traced wall time", file=sys.stderr)
            traced.wrong += 1
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans_{args.workload}_{args.seed}.json"
        tracer.write_spans(spans_path)
        env["spans_file"] = str(spans_path.relative_to(ROOT))

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = Counter()
    for t in tallies:
        failures.update(t.failures)
    env["ops"] = attempted
    env["latency_samples"] = len(plain.latencies)
    env["checks"] = plain.checks
    env["failures"] = dict(failures)
    for line in list(failures)[:5]:
        print(f"failed op: {line}", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": not any(t.wrong for t in tallies),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
