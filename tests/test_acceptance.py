"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.

The propositional space is covered exhaustively at connective depth 2
(every formula over p, q, r) and, beyond that, by every formula of at
most 7 nodes, whose depths reach 5; full enumeration of depth 5 is
beyond any interactive budget (billions of formulas), so the node
budget is the documented surrogate.  The quantified space is covered by
two complementary sweeps: one predicate over all worlds with up to 3
individuals, and two predicates plus a propositional variable over all
worlds with up to 2 individuals.
"""
import re
import time
from pathlib import Path

import pytest

from pmsem.classical import truth_table_eval
from pmsem.cli import main
from pmsem.meanings import meaning_in_world
from pmsem.oracle import SweepConfig, check_equivalence, enumerate_formulas
from pmsem.proof import check_proof, load_script
from pmsem.propsem import classify, enumerate_assignments, eval_prop
from pmsem.syntax import parse, prop_variables

ROOT = Path(__file__).resolve().parent.parent
PROOFS = ROOT / "proofs"

PROP_BUDGET_SECONDS = 120
FO_BUDGET_SECONDS = 300


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def prop_sweep():
    """Both policies against the truth table, timed."""
    start = time.monotonic()
    shallow = check_equivalence(SweepConfig(prop_vars=("p", "q", "r"), max_depth=2))
    deep = check_equivalence(
        SweepConfig(prop_vars=("p", "q", "r"), max_depth=5, max_size=7)
    )
    elapsed = time.monotonic() - start
    return shallow, deep, elapsed


@pytest.fixture(scope="module")
def fo_sweep():
    """Meaning evaluation against finite-model satisfaction, timed."""
    start = time.monotonic()
    one_pred = check_equivalence(
        SweepConfig(
            include_prop=False,
            include_fo=True,
            fo_predicates=("S",),
            fo_ind_vars=("x", "y"),
            fo_max_quantifiers=2,
            fo_max_size=6,
            fo_max_individuals=3,
        )
    )
    two_pred = check_equivalence(
        SweepConfig(
            include_prop=False,
            include_fo=True,
            fo_predicates=("S", "R"),
            fo_prop_vars=("p",),
            fo_ind_vars=("x", "y"),
            fo_max_quantifiers=2,
            fo_max_size=6,
            fo_max_individuals=2,
        )
    )
    elapsed = time.monotonic() - start
    return one_pred, two_pred, elapsed


def test_01_propositional_oracle_equivalence(prop_sweep):
    shallow, deep, elapsed = prop_sweep
    ok = (
        shallow.ok
        and deep.ok
        and shallow.prop_formulas == 243
        and deep.prop_formulas == 1872
        and elapsed < PROP_BUDGET_SECONDS
    )
    _report(
        "propositional-oracle-equivalence",
        ok,
        f"{shallow.prop_formulas} depth-2 formulas + {deep.prop_formulas} "
        f"size-7 formulas, {shallow.prop_checks + deep.prop_checks} checks, "
        f"{shallow.disagreement_count + deep.disagreement_count} disagreements, "
        f"{elapsed:.1f}s (budget {PROP_BUDGET_SECONDS}s)",
    )


def test_02_tautology_fidelity():
    formulas = enumerate_formulas(prop_vars=("p", "q", "r"), max_depth=2)
    mismatches = 0
    for f in formulas:
        names = sorted(prop_variables(f))
        table_taut = all(
            truth_table_eval(f, h.truths()) for h in enumerate_assignments(names)
        )
        if (classify(f).kind == "tautology") != table_taut:
            mismatches += 1
    named = (
        classify(parse("p v ~p")).kind == "tautology"
        and classify(parse("p . ~p")).kind == "contradiction"
        and all(
            classify(parse(t)).kind == "tautology"
            for t in (
                "(p v p) => p",
                "q => (p v q)",
                "(p v q) => (q v p)",
                "(p v (q v r)) => (q v (p v r))",
                "(q => r) => ((p v q) => (p v r))",
            )
        )
    )
    ok = mismatches == 0 and named
    _report(
        "tautology-fidelity",
        ok,
        f"{len(formulas)} formulas vs truth table, {mismatches} mismatches; "
        f"excluded middle, contradiction and the 5 axiom shapes verified",
    )


def test_03_first_order_tarskian_agreement(fo_sweep):
    one_pred, two_pred, elapsed = fo_sweep
    ok = (
        one_pred.ok
        and two_pred.ok
        and one_pred.fo_formulas == 972
        and two_pred.fo_formulas == 7625
        and elapsed < FO_BUDGET_SECONDS
    )
    _report(
        "first-order-tarskian-agreement",
        ok,
        f"{one_pred.fo_formulas} one-predicate formulas (worlds to 3 "
        f"individuals) + {two_pred.fo_formulas} two-predicate formulas "
        f"(worlds to 2), {one_pred.fo_checks + two_pred.fo_checks} checks, "
        f"{one_pred.disagreement_count + two_pred.disagreement_count} "
        f"disagreements, {elapsed:.1f}s (budget {FO_BUDGET_SECONDS}s)",
    )


def test_04_policy_invariance(prop_sweep):
    shallow, deep, _ = prop_sweep
    policy_splits = [
        d
        for report in (shallow, deep)
        for d in report.disagreements
        if d.section == "policy"
    ]
    both_policies = all(
        set(report.config.policies) == {"minimal", "full"}
        for report in (shallow, deep)
    )
    ok = not policy_splits and both_policies and shallow.ok and deep.ok
    _report(
        "policy-invariance",
        ok,
        f"minimal vs full identical on every (formula, assignment) pair "
        f"({(shallow.prop_checks + deep.prop_checks) // 2} pairs), "
        f"{len(policy_splits)} splits",
    )


def test_05_meaning_closure():
    formulas = enumerate_formulas(prop_vars=("p", "q", "r"), max_depth=2)
    checked = 0
    ungrounded = 0
    for f in formulas:
        names = sorted(prop_variables(f))
        for h in enumerate_assignments(names):
            for policy in ("minimal", "full"):
                m = eval_prop(f, h, policy)  # construction enforces non-emptiness
                checked += 1
                if not meaning_in_world(m, h.world):
                    ungrounded += 1
    ok = ungrounded == 0
    _report(
        "meaning-closure",
        ok,
        f"{checked} evaluations: members non-empty by construction, "
        f"{ungrounded} with bases outside the world's complexes",
    )


def test_06_proof_checker_soundness():
    valid = sorted((PROOFS / "valid").glob("*.proof"))
    invalid = sorted((PROOFS / "invalid").glob("*.proof"))
    valid_ok = 0
    for path in valid:
        report = check_proof(load_script(str(path)))
        if report.valid and all(lv.tautology for lv in report.lines):
            valid_ok += 1
    rejected_at_mark = 0
    for path in invalid:
        expected = re.search(r"# expect-invalid: (\S+)", path.read_text()).group(1)
        report = check_proof(load_script(str(path)))
        first = report.first_invalid()
        if not report.valid and first is not None and first.label == expected:
            rejected_at_mark += 1
    ok = (
        len(valid) >= 5
        and len(invalid) >= 5
        and valid_ok == len(valid)
        and rejected_at_mark == len(invalid)
    )
    _report(
        "proof-checker-soundness",
        ok,
        f"{valid_ok}/{len(valid)} derivations valid with all lines "
        f"tautologies; {rejected_at_mark}/{len(invalid)} corrupted scripts "
        f"rejected at the marked line",
    )


def test_07_report_determinism(tmp_path, capsys):
    pairs = []
    for name, args in {
        "canonical": ["compare", "--vars", "2", "--prop-depth", "2", "--json"],
        "sampled": [
            "compare", "--vars", "2", "--mode", "sampled", "--seed", "13",
            "--count", "6", "--json",
        ],
    }.items():
        first = tmp_path / f"{name}-1.json"
        second = tmp_path / f"{name}-2.json"
        code1 = main(args + ["--out", str(first)])
        code2 = main(args + ["--out", str(second)])
        pairs.append(
            (name, code1 == 0 and code2 == 0, first.read_bytes() == second.read_bytes())
        )
    capsys.readouterr()
    ok = all(passed and identical for _, passed, identical in pairs)
    _report(
        "report-determinism",
        ok,
        "byte-identical structured reports on repeated runs: "
        + ", ".join(f"{name} mode {'yes' if i else 'NO'}" for name, _, i in pairs),
    )
