"""Known defects: the inputs of the `minimal` transversal blowup.

    python3 perfbench/defects.py

No workload runs these inputs (workloads.KNOWN_DEFECTS), so that no op
of a benchmark run fails.  This runs each once under its per-op
deadline and prints its time and whether it passed, so that a faster
transversal algorithm shows them turning into passes.  Exits 0 either
way, 2 if the program cannot be imported.
"""
from __future__ import annotations

import signal
import sys

import run


def main() -> int:
    problem = run.import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    signal.signal(signal.SIGALRM, run._alarm)
    for op in workloads.known_defect_ops():
        tally = run.Tally()
        tally.run(op)
        outcome = "passed" if tally.failed == 0 else "failed: " + next(iter(tally.failures))
        print(f"{op.name}: {tally.latencies[0]:.3f} s, {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
