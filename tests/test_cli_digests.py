"""The output contract of `pm`'s reporting commands, pinned.

Each invocation below runs in process through `cli.main`, from the
root of the repository, so that the file paths in it, and in the keys
and outputs, are relative; its exit code and the sha256 of its stdout
and of its stderr must equal the entry in tests/data/cli_digests.json.
A change that alters one of these outputs regenerates the file with

    PYTHONPATH=src python tests/test_cli_digests.py

and names each changed invocation in CHANGES.md.
"""
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pmsem import cli
from pmsem.meanings import POLICIES

ROOT = Path(__file__).resolve().parent.parent
CLI_DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"
FO_WORLD = "tests/data/fo_world.txt"

SAMPLED = ("--mode", "sampled", "--seed", "7", "--count", "5")
COMPARE_CONFIGS = (
    ("--vars", "2"),
    ("--vars", "3"),
    ("--vars", "2", *SAMPLED),
    ("--vars", "3", *SAMPLED),
    ("--vars", "1", "--prop-depth", "5"),
    ("--vars", "3", "--prop-depth", "3", "--prop-size", "7"),
    ("--vars", "3", "--prop-depth", "3", "--prop-size", "8"),
    ("--no-prop", "--fo"),
    ("--no-prop", "--fo", "--fo-prop-vars", "p", "--fo-size", "5",
     "--mode", "sampled", "--seed", "7", "--count", "2"),
    ("--no-prop", "--fo", "--fo-predicates", "S,R", "--fo-prop-vars", "p", "--fo-size", "5",
     "--fo-individuals", "2"),
    ("--vars", "2", "--fo", "--fo-size", "4"),
    # past the sweep work budget: refused with exit 2
    ("--no-prop", "--fo", "--fo-individuals", "6"),
)
# Cyclic implication chains of 4 and 6 clauses, and the 6-clause
# tautology ~~C v ~C, whose 64 assignments one run decides.
CHAIN_4 = "~~((p v ~q) . (q v ~r) . (r v ~p1) . (p1 v ~p))"
CYCLE_6 = "((p v ~q) . (q v ~r) . (r v ~p1) . (p1 v ~q1) . (q1 v ~r1) . (r1 v ~p))"
CHAIN_6 = f"~~{CYCLE_6}"
TAUT_6 = f"{CHAIN_6} v ~{CYCLE_6}"
EVAL_CONFIGS = (
    ("~(p v q)",),
    ("~(p v q)", "--policy", "full"),
    ("~(p . q) v r", "--mode", "sampled", "--seed", "7", "--count", "3", "--size-bound", "2"),
    ("p v ~q", "--world", FO_WORLD),
)
FO_EVAL_FORMULAS = (
    "S(x)",
    "S(x) v R(y)",
    "(x).S(x) .=>. S(y)",
    "(Ex).(S(x) . ~R(x)) . p",
    "(x).(S(x) v ~R(x)) . ~q",
)
# Only inputs whose verdict is correct at the default bound: none of the
# formulas `fo-valid` wrongly calls logical truths (ROADMAP item 2).
FO_VALID_CONFIGS = (
    ("(x).S(x) v ~S(x)",),
    ("(x).S(x) .=>. (Ex).S(x)", "--policy", "full"),
    ("(Ex).S(x) .=>. (x).S(x)",),
    ("(x).(p v S(x)) .=>. p v (x).S(x)",),
    ("(x).(p v S(x)) .=>. p v (x).S(x)", "--mode", "sampled", "--seed", "7", "--count", "2"),
    ("(x).(S(x) . R(x)) .=>. (x).S(x)", "--max-individuals", "2"),
    ("(Ex).S(x) . (Ex).R(x) .=>. (Ex).(S(x) . R(x))", "--max-individuals", "2"),
)
TEXT_AND_JSON = ((), ("--json",))
PROOFS = sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "proofs").rglob("*.proof"))
INVOCATIONS = (
    [("compare", *c) for c in COMPARE_CONFIGS]
    + [("compare", *c, "--json") for c in COMPARE_CONFIGS]
    + [("taut", CHAIN_4, "--policy", "full"), ("taut", CHAIN_6)]
    + [("taut", CHAIN_6, "--policy", "full", *fmt) for fmt in TEXT_AND_JSON]
    + [("taut", TAUT_6, "--policy", policy, *fmt) for policy in POLICIES for fmt in TEXT_AND_JSON]
    + [("eval", *c, *fmt) for fmt in TEXT_AND_JSON for c in EVAL_CONFIGS]
    + [("fo-eval", f, "--model", FO_WORLD, "--base-mode", base, *fmt)
       for fmt in TEXT_AND_JSON for base in ("all", "any:x") for f in FO_EVAL_FORMULAS]
    + [("fo-valid", *c, *fmt) for fmt in TEXT_AND_JSON for c in FO_VALID_CONFIGS]
    + [("check-proof", path, *fmt) for fmt in TEXT_AND_JSON for path in PROOFS]
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue())}


def digests() -> dict:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return {" ".join(argv): outcome(argv) for argv in INVOCATIONS}
    finally:
        os.chdir(cwd)


@pytest.fixture
def one_sweep_per_config(monkeypatch):
    """Text and --json render one report: a sweep is deterministic (see
    acceptance test_07), so each configuration is swept once."""
    sweep, reports = cli.check_equivalence, {}

    def check_equivalence(config):
        key = repr(config)
        if key not in reports:
            reports[key] = sweep(config)
        return reports[key]

    monkeypatch.setattr(cli, "check_equivalence", check_equivalence)


def test_outputs_are_pinned(one_sweep_per_config):
    assert digests() == json.loads(CLI_DIGESTS.read_text())


if __name__ == "__main__":
    CLI_DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
