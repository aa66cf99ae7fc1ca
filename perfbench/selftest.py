"""Self-test: the benchmark's checks are not vacuous.

    python3 perfbench/selftest.py

1. A wrong evaluator injected through
   `check_equivalence(config, prop_eval=..., fo_eval=...)` and a flipped
   `classify` verdict are each reported as a failed, incorrect op,
   while the same ops with the program's own code pass.
2. A traced name that the program lacks is reported as absent.
3. The inputs of the known `minimal` transversal blowup are kept out
   of negation_stress by its choice-set limit.
4. A short run of every workload, untraced and traced, is correct,
   fails no op, and emits exactly the metrics BENCHMARK.json lists.

Exits 0 when every assertion holds.
"""
from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

import run

def tally_of(op) -> run.Tally:
    tally = run.Tally()
    tally.run(op)
    return tally


def assert_caught(good, bad, label: str) -> None:
    ok, broken = tally_of(good), tally_of(bad)
    assert (ok.failed, ok.wrong) == (0, 0), f"{label}: the program's own code failed: {dict(ok.failures)}"
    assert (broken.failed, broken.wrong) == (1, 1), f"{label}: the injected fault was not caught"
    print(f"ok  {label}: caught ({next(iter(broken.failures))})")


def injected_faults() -> None:
    import workloads
    from pmsem.fosem import eval_fo
    from pmsem.meanings import negate
    from pmsem.oracle import SweepConfig, check_equivalence
    from pmsem.propsem import eval_prop
    from pmsem.syntax import parse

    def wrong_prop(f, h, policy="minimal"):
        return negate(eval_prop(f, h, policy), policy)

    def wrong_fo(f, binding, h=None, policy="minimal"):
        return negate(eval_fo(f, binding, h, policy), policy)

    prop = SweepConfig(prop_vars=("p",), max_depth=1)
    fo = SweepConfig(include_prop=False, include_fo=True, fo_max_size=3, fo_max_individuals=2)
    for config, fault, label in ((prop, {"prop_eval": wrong_prop}, "wrong prop_eval"),
                                 (fo, {"fo_eval": wrong_fo}, "wrong fo_eval")):
        report = check_equivalence(config)
        formulas = report.prop_formulas or report.fo_formulas
        points = (report.prop_checks + report.fo_checks) // (formulas * len(config.policies))
        assert_caught(workloads.sweep_op(label, config, formulas, points),
                      workloads.sweep_op(label, config, formulas, points, **fault), label)

    f = parse("p v ~q .=>. q")
    assert_caught(workloads.classify_op("classify", f, "full"),
                  workloads.classify_op("classify", f, "full", flip=True), "flipped classify verdict")


def absent_names() -> None:
    import tracing

    tracer = tracing.Tracer(tracing.TARGETS + ("meanings.no_such_function",))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["meanings.no_such_function"], tracer.absent
    print("ok  a missing traced name is reported as absent")


def defects_kept_out() -> None:
    import workloads
    from pmsem.syntax import parse

    for name, text, point_seed in workloads.KNOWN_DEFECTS:
        if point_seed is not None:
            assert not workloads.within_choice_limit(parse(text), point_seed), name
    print("ok  the sampled blowup input is over the choice-set limit")


def workload_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            env_line, result_line = proc.stdout.strip().splitlines()[-2:]
            result, env = json.loads(result_line), json.loads(env_line)["env"]
            assert result["correct"], (workload, trace, env["failures"])
            assert result["failed"] == 0 and not env["failures"], (workload, env["failures"])
            missing = names[trace] ^ set(result["metrics"])
            assert not missing, f"{workload} trace={trace}: metrics differ: {sorted(missing)}"
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {len(result['metrics'])} metrics")


def main() -> int:
    problem = run.import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, run._alarm)
    injected_faults()
    absent_names()
    defects_kept_out()
    workload_runs()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
