"""Formula enumeration and agreement sweeps."""
import gc
import json
from pathlib import Path

import pytest

import pmsem.meanings as meanings
import pmsem.oracle as oracle
import pmsem.propsem as propsem
from pmsem.classical import satisfies, truth_table_eval
from pmsem.fosem import eval_fo
from pmsem.meanings import negate
from pmsem.oracle import (
    Disagreement,
    SweepConfig,
    check_equivalence,
    enumerate_formulas,
    formula_depth,
)
from pmsem.propsem import eval_prop
from pmsem.syntax import (
    PROP_LETTERS,
    Exists,
    ForAll,
    Not,
    Or,
    PredApp,
    PropVar,
    free_variables,
    parse,
    print_formula,
    prop_variables,
    subformulas,
    variable_names,
)

p = PropVar("p")

# Whole reports of the fault-injected sweeps below, so that a change to
# any record, its order or its context shows.
FAULT_REPORTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "fault_reports.json").read_text()
)


def assert_pinned(name, report):
    assert json.loads(json.dumps(report.to_dict())) == FAULT_REPORTS[name]["dict"]
    assert report.to_text() == "\n".join(FAULT_REPORTS[name]["text"])


# ---------------------------------------------------------------------------
# enumeration

def test_depth_zero_is_just_atoms():
    assert enumerate_formulas(prop_vars=("p",), max_depth=0) == [p]


def test_depth_one_single_variable():
    out = enumerate_formulas(prop_vars=("p",), max_depth=1)
    assert out == [p, Not(p), Or(p, p)]


def test_counts_increase_with_depth():
    sizes = [
        len(enumerate_formulas(prop_vars=("p", "q"), max_depth=d)) for d in range(3)
    ]
    assert sizes[0] < sizes[1] < sizes[2]


def test_depth_two_three_vars_count():
    out = enumerate_formulas(prop_vars=("p", "q", "r"), max_depth=2)
    assert len(out) == 243
    assert all(formula_depth(f) <= 2 for f in out)


def test_enumeration_is_duplicate_free():
    out = enumerate_formulas(prop_vars=("p", "q"), max_depth=2)
    assert len(out) == len(set(out))


def test_repeated_names_give_one_atom():
    assert enumerate_formulas(prop_vars=("p", "p"), max_depth=1) == enumerate_formulas(
        prop_vars=("p",), max_depth=1
    )
    report = check_equivalence(SweepConfig(prop_vars=("p", "p"), max_depth=1))
    assert (report.prop_formulas, report.prop_checks) == (3, 12)
    atoms = enumerate_formulas(predicate_names=("S", "S"), ind_vars=("x", "x"), max_depth=0)
    assert atoms == [parse("S(x)")]


def test_size_budget_caps_node_count():
    out = enumerate_formulas(prop_vars=("p",), max_depth=5, max_size=7)
    texts = {print_formula(f) for f in out}
    assert "~~~~p" in texts  # 5 nodes, depth 4
    assert all(formula_depth(f) <= 5 for f in out)


def test_quantifier_bound_respected():
    out = enumerate_formulas(
        predicate_names=("S",),
        ind_vars=("x",),
        max_depth=3,
        max_quantifiers=1,
        max_size=4,
    )
    counts = [sum(isinstance(g, (ForAll, Exists)) for g in subformulas(f)) for f in out]
    assert all(c <= 1 for c in counts)
    assert any(c == 1 for c in counts)


def test_closed_only_filters_free_variables():
    out = enumerate_formulas(
        predicate_names=("S",),
        ind_vars=("x",),
        max_depth=2,
        max_quantifiers=1,
        max_size=3,
        closed_only=True,
    )
    assert out
    from pmsem.syntax import free_variables

    assert all(not free_variables(f) for f in out)


def test_formula_budget_boundary(monkeypatch):
    # All 243 formulas of depth 2 over three variables are admitted.
    monkeypatch.setattr(oracle, "MAX_FORMULAS", 243)
    assert len(enumerate_formulas(prop_vars=("p", "q", "r"), max_depth=2)) == 243
    monkeypatch.setattr(oracle, "MAX_FORMULAS", 242)
    with pytest.raises(ValueError, match="more than 242 formulas"):
        enumerate_formulas(prop_vars=("p", "q", "r"), max_depth=2)


def test_formula_budget_counts_open_formulas(monkeypatch):
    bounds = dict(predicate_names=("S",), ind_vars=("x",), max_depth=2, max_quantifiers=1,
                  max_size=3)
    admitted = len(enumerate_formulas(**bounds))
    assert len(enumerate_formulas(**bounds, closed_only=True)) < admitted
    monkeypatch.setattr(oracle, "MAX_FORMULAS", admitted - 1)
    with pytest.raises(ValueError):
        enumerate_formulas(**bounds, closed_only=True)


@pytest.mark.parametrize("bounds, budget", [
    (dict(prop_vars=("p",), max_depth=1), 1),
    (dict(prop_vars=("p",), max_depth=1), 2),
    (dict(predicate_names=("S",), ind_vars=("x",), max_depth=1, max_quantifiers=1), 2),
], ids=["negation", "disjunction", "quantifier"])
def test_formula_budget_is_checked_in_every_pass(monkeypatch, bounds, budget):
    """The first formula past the budget is ~p, p v p and (x).S(x): one
    in each pass over a size."""
    monkeypatch.setattr(oracle, "MAX_FORMULAS", budget)
    with pytest.raises(ValueError, match=f"^sweep bounds admit more than {budget} formulas$"):
        enumerate_formulas(**bounds)


@pytest.mark.parametrize("bounds", [
    dict(prop_vars=("p", "q"), max_depth=2),
    dict(prop_vars=("p",), predicate_names=("S",), ind_vars=("x",), max_depth=3,
         max_quantifiers=1, max_size=5),
    dict(predicate_names=("S",), ind_vars=("x", "y"), max_depth=4, max_quantifiers=2,
         max_size=6),
    dict(predicate_names=("S", "R"), ind_vars=("x", "y"), max_depth=2, max_quantifiers=2,
         max_size=5),
    dict(predicate_names=("S",), ind_vars=("x", "x"), max_depth=3, max_quantifiers=2,
         max_size=5),
    dict(prop_vars=("p",), predicate_names=("S",), ind_vars=("x", "y"), max_depth=1,
         max_quantifiers=1, max_size=3),
])
def test_closed_only_lists_the_closed_formulas_and_counts_the_rest(monkeypatch, bounds):
    # Formulas no closed formula can contain are only counted, never
    # listed, but the budget still counts every formula admitted.
    admitted = enumerate_formulas(**bounds)
    closed = [f for f in admitted if not free_variables(f)]
    monkeypatch.setattr(oracle, "MAX_FORMULAS", len(admitted))
    assert enumerate_formulas(**bounds, closed_only=True) == closed
    monkeypatch.setattr(oracle, "MAX_FORMULAS", len(admitted) - 1)
    with pytest.raises(ValueError, match=f"^sweep bounds admit more than {len(admitted) - 1} "):
        enumerate_formulas(**bounds, closed_only=True)


def test_size_bound_beyond_the_depth_bound_ends_the_listing():
    assert enumerate_formulas(prop_vars=("p",), max_depth=1, max_size=10**9) == [
        p, Not(p), Or(p, p)
    ]
    assert enumerate_formulas(max_size=10**9) == []
    assert enumerate_formulas(prop_vars=("p",), max_size=0) == []


# ---------------------------------------------------------------------------
# sweeps

def test_check_budget_refuses_before_any_point(monkeypatch):
    # 8 formulas of 18 nodes in all, x 4 assignments x 2 policies
    config = SweepConfig(prop_vars=("p", "q"), max_depth=1)
    calls = []

    def counting(f, h, policy):
        calls.append(f)
        return eval_prop(f, h, policy)

    monkeypatch.setattr(oracle, "MAX_WORK", 144)
    assert check_equivalence(config, prop_eval=counting).prop_checks == len(calls) == 64
    calls.clear()
    monkeypatch.setattr(oracle, "MAX_WORK", 143)
    with pytest.raises(ValueError, match="needs 144 units of work, more than 143"):
        check_equivalence(config, prop_eval=counting)
    assert calls == []


@pytest.mark.parametrize(
    "config, message",
    [
        (SweepConfig(policies=()), "sweep has no policies"),
        (SweepConfig(policies=("minimal", "minimal")), "sweep repeats a policy"),
        (SweepConfig(policies=("minimal", "bogus")), "unknown policy 'bogus'"),
        (SweepConfig(mode="bogus"), "unknown assignment mode 'bogus'"),
    ],
)
def test_sweep_refuses_unchecked_policies_before_listing(monkeypatch, config, message):
    """No policies, a repeated or unknown policy and an unknown
    assignment mode are refused before any formula is listed."""
    def unlisted(*args, **kwargs):
        raise AssertionError("formulas listed before the config was checked")

    monkeypatch.setattr(oracle, "enumerate_formulas", unlisted)
    with pytest.raises(ValueError, match=message):
        check_equivalence(config)


def test_work_budget_weighs_quantifiers_by_the_domain(monkeypatch):
    # 10 closed formulas over S and x, at the 2 one-individual worlds
    # and the 4 two-individual ones, under 2 policies: (x).S(x) costs 2
    # units at one individual and 3 at two, (x).(x).S(x) 3 and 7.
    config = SweepConfig(include_prop=False, include_fo=True, fo_ind_vars=("x",), fo_max_size=3,
                         fo_max_individuals=2)
    calls = []

    def counting(f, world, assignment=None, policy="minimal"):
        calls.append(f)
        return eval_fo(f, world, assignment, policy)

    monkeypatch.setattr(oracle, "MAX_WORK", 528)
    assert check_equivalence(config, fo_eval=counting).fo_checks == len(calls) == 120
    calls.clear()
    monkeypatch.setattr(oracle, "MAX_WORK", 527)
    with pytest.raises(ValueError, match="needs 528 units of work, more than 527"):
        check_equivalence(config, fo_eval=counting)
    assert calls == []


def test_small_prop_sweep_agrees():
    report = check_equivalence(SweepConfig(prop_vars=("p", "q"), max_depth=2))
    assert report.ok
    assert report.prop_formulas == 74
    assert report.disagreement_count == 0


def test_fo_sweep_agrees():
    config = SweepConfig(
        include_prop=False,
        include_fo=True,
        fo_predicates=("S",),
        fo_ind_vars=("x",),
        fo_max_size=4,
        fo_max_individuals=2,
    )
    report = check_equivalence(config)
    assert report.ok
    assert report.fo_formulas > 0
    assert report.fo_checks > 0


def test_sampled_sweep_agrees_and_is_deterministic():
    config = SweepConfig(
        prop_vars=("p", "q"), max_depth=2, mode="sampled", seed=5, count=4
    )
    a = check_equivalence(config)
    b = check_equivalence(config)
    assert a.ok
    assert a.to_dict() == b.to_dict()


def test_corrupted_negation_is_caught():
    # fault injection: negation that returns its input unchanged
    def broken_eval(f, h, policy="minimal"):
        from pmsem.syntax import Not as NotNode

        if isinstance(f, NotNode):
            return eval_prop(f.operand, h, policy)
        return eval_prop(f, h, policy)

    report = check_equivalence(
        SweepConfig(prop_vars=("p",), max_depth=1), prop_eval=broken_eval
    )
    assert not report.ok
    assert report.disagreement_count >= 1
    first = report.disagreements[0]
    assert first.section == "prop"
    assert first.formula == "~p"  # minimal witness: smallest broken formula
    assert first.context.startswith("assignment 0")

    # the same fault under one policy only also splits the policies
    def full_skips_negation(f, h, policy="minimal"):
        if policy == "full" and isinstance(f, Not):
            return eval_prop(f.operand, h, policy)
        return eval_prop(f, h, policy)

    for name, config in (
        ("prop", SweepConfig(prop_vars=("p", "q"), max_depth=2)),
        ("sampled", SweepConfig(prop_vars=("p",), max_depth=2, mode="sampled", seed=5, count=3)),
    ):
        assert_pinned(name, check_equivalence(config, prop_eval=full_skips_negation))


def test_corrupted_fo_evaluator_is_caught():
    def broken(f, world, assignment=None, policy="minimal", **kw):
        m = eval_fo(f, world, assignment, policy, **kw)
        return negate(m, policy)

    config = SweepConfig(
        include_prop=False,
        include_fo=True,
        fo_predicates=("S",),
        fo_ind_vars=("x",),
        fo_max_size=2,
        fo_max_individuals=1,
    )
    report = check_equivalence(config, fo_eval=broken)
    assert not report.ok
    assert report.disagreements[0].section == "fo"

    def minimal_negates_quantified(f, world, assignment=None, policy="minimal"):
        m = eval_fo(f, world, assignment, policy)
        if policy == "minimal" and isinstance(f, (ForAll, Exists)):
            return negate(m, policy)
        return m

    config = SweepConfig(
        include_prop=False,
        include_fo=True,
        fo_ind_vars=("x",),
        fo_prop_vars=("p",),
        fo_max_size=4,
        fo_max_individuals=1,
    )
    assert_pinned("fo", check_equivalence(config, fo_eval=minimal_negates_quantified))

    # Formulas of different vocabularies interleave in the report, as
    # the sweep's own order (formula, world, assignment) has them.
    def full_negates_quantified_where_all_facts_hold(f, world, assignment=None, policy="minimal"):
        m = eval_fo(f, world, assignment, policy)
        every_fact = len(world.facts) == len(world.predicates)  # one individual
        if policy == "full" and isinstance(f, (ForAll, Exists)) and every_fact:
            return negate(m, policy)
        return m

    config = SweepConfig(
        include_prop=False,
        include_fo=True,
        fo_predicates=("S", "R"),
        fo_ind_vars=("x",),
        fo_prop_vars=("p",),
        fo_max_size=4,
        fo_max_individuals=1,
    )
    report = check_equivalence(config, fo_eval=full_negates_quantified_where_all_facts_hold)
    assert_pinned("fo_two", report)


def test_corrupted_disjunction_is_caught(monkeypatch):
    """A `disjoin` that keeps only its left operand, met through the
    sweep's computed table, is caught at a disjunction."""
    monkeypatch.setattr(propsem, "disjoin", lambda left, right: left)
    report = check_equivalence(SweepConfig(prop_vars=("p", "q"), max_depth=2))
    assert not report.ok
    assert report.disagreements[0].section == "prop"
    assert isinstance(parse(report.disagreements[0].formula), Or)


def test_corrupted_exists_is_caught(monkeypatch):
    """(Ex)q disjoins its instances through the computed table: a
    `disjoin` that keeps only its first operand is caught in a sweep of
    36 formulas with no disjunction."""
    monkeypatch.setattr(propsem, "disjoin", lambda first, *rest: first)
    config = SweepConfig(include_prop=False, include_fo=True, fo_max_size=3,
                         fo_max_individuals=2)
    formulas = enumerate_formulas((), ("S",), max_depth=4, max_quantifiers=2, max_size=3,
                                  closed_only=True)
    assert len(formulas) == 36
    assert not any(isinstance(g, Or) for f in formulas for g in subformulas(f))
    report = check_equivalence(config)
    assert not report.ok
    assert all(any(isinstance(g, Exists) for g in subformulas(parse(d.formula)))
               for d in report.disagreements)


def full_negation_keeps_its_operand(m, policy="minimal"):
    return m if policy == "full" else negate(m, policy)


def disjunction_keeps_its_first_operand(first, *rest):
    return first


REPLAYED = (
    SweepConfig(prop_vars=("p", "q"), max_depth=2),
    SweepConfig(prop_vars=("p", "q"), max_depth=2, mode="sampled", seed=5, count=3),
    SweepConfig(include_prop=False, include_fo=True, fo_prop_vars=("p",), fo_max_size=4,
                fo_max_individuals=2),
)


@pytest.mark.parametrize(("core", "fault", "config", "misses"), [
    ("negate", full_negation_keeps_its_operand, REPLAYED[0], 152),
    ("negate", full_negation_keeps_its_operand, REPLAYED[1], 204),
    ("negate", full_negation_keeps_its_operand, REPLAYED[2], 2272),
    ("disjoin", disjunction_keeps_its_first_operand, REPLAYED[0], 144),
    ("disjoin", disjunction_keeps_its_first_operand, REPLAYED[1], 72),
    ("disjoin", disjunction_keeps_its_first_operand, REPLAYED[2], 260),
])
def test_columns_report_the_misses_points_report(monkeypatch, core, fault, config, misses):
    """With one core corrupted, a sweep run over columns of points
    reports the misses, in the same order and with the same policy
    splits, that the per-point runs of eval_prop and eval_fo report."""
    monkeypatch.setattr(propsem, core, fault)
    report = check_equivalence(config)
    assert report.disagreement_count == misses
    evaluators = {"fo_eval": eval_fo} if config.include_fo else {"prop_eval": eval_prop}
    assert report.to_dict() == check_equivalence(config, **evaluators).to_dict()


def test_no_core_runs_twice_on_the_same_operands(monkeypatch):
    """Within one sweep each core runs once per distinct operands: once
    per operand and policy for `negate`, once per operands for `disjoin`,
    whether a disjunction or an (Ex)q asks, and once per instances for
    `memberwise_union`."""
    records = []

    def recording(core, record):
        def wrapper(*args):
            records.append(record(*args))
            return core(*args)
        return wrapper

    def families(operands):
        return tuple(m.members for m in operands)

    monkeypatch.setattr(propsem, "disjoin", recording(
        propsem.disjoin, lambda *operands: ("disjoin", *families(operands))))
    monkeypatch.setattr(propsem, "negate", recording(
        propsem.negate, lambda m, policy: ("negate", policy, m.members)))
    monkeypatch.setattr(propsem, "memberwise_union", recording(
        propsem.memberwise_union, lambda instances: ("memberwise_union", *families(instances))))
    # One section per sweep: its computed table dies with it, so a
    # second sweep runs the cores again.
    for config in (
        SweepConfig(prop_vars=("p", "q", "r")),
        SweepConfig(include_prop=False, include_fo=True),
        SweepConfig(include_prop=False, include_fo=True, fo_prop_vars=("p",),
                    fo_max_individuals=2),
    ):
        records.clear()
        assert check_equivalence(config).ok
        assert records and len(set(records)) == len(records)


def test_sampled_fo_misses_replay_across_worlds_and_assignments():
    # Misses at 1- and 2-individual worlds, at more than one sampled
    # assignment of a world, replayed in (formula, world, assignment) order.
    def full_negates_quantified_where_p_has_members(f, world, assignment=None, policy="minimal"):
        m = eval_fo(f, world, assignment, policy)
        p_value = assignment.values.get("p")
        if (policy == "full" and isinstance(f, (ForAll, Exists)) and p_value is not None
                and len(p_value.members) > 1 and world.facts):
            return negate(m, policy)
        return m

    config = SweepConfig(
        include_prop=False,
        include_fo=True,
        fo_ind_vars=("x",),
        fo_prop_vars=("p",),
        fo_max_size=4,
        fo_max_individuals=2,
        mode="sampled",
        seed=2,
        count=3,
    )
    report = check_equivalence(config, fo_eval=full_negates_quantified_where_p_has_members)
    assert_pinned("fo_sampled", report)


def test_fo_eval_is_called_once_per_check():
    calls = []

    def counting(f, world, assignment=None, policy="minimal"):
        calls.append(f)
        return eval_fo(f, world, assignment, policy)

    config = SweepConfig(
        include_prop=False,
        include_fo=True,
        fo_prop_vars=("p",),
        fo_max_size=4,
        fo_max_individuals=2,
    )
    report = check_equivalence(config, fo_eval=counting)
    assert report.ok
    # Every formula is swept over the 6 worlds over S of up to 2
    # individuals, at each canonical assignment, under both policies.
    formulas = enumerate_formulas(("p",), ("S",), max_depth=4, max_quantifiers=2, max_size=4,
                                  closed_only=True)
    assert len(calls) == report.fo_checks == 2 * 6 * sum(
        2 ** len(prop_variables(f)) for f in formulas
    )


def test_sweep_referees_once_per_formula_and_vocabulary(monkeypatch):
    """The referee decides every point of a vocabulary in one call per
    formula, its worlds of every domain in one block: the one-predicate
    sweep's 972 formulas over their one vocabulary, S, and the depth-2
    propositional sweep's 243 over its one block.  Only the sweep's
    calls are counted; the recursion inside `classical` calls its own
    name."""
    calls = []

    def counting(*args):
        calls.append(args[0])
        return satisfies(*args)

    monkeypatch.setattr(oracle, "satisfies", counting)
    report = check_equivalence(SweepConfig(include_prop=False, include_fo=True))
    assert report.ok and report.fo_formulas == 972
    assert len(calls) == 972
    calls.clear()
    report = check_equivalence(SweepConfig(prop_vars=("p", "q", "r"), max_depth=2))
    assert report.ok and report.prop_formulas == 243
    assert len(calls) == 243


def test_fault_at_the_highest_bit_is_reported():
    """A fault only at the last of 128 canonical assignments, the bit
    past the first two machine words of the block's masks, is reported
    there for every formula under both policies."""
    names = variable_names(PROP_LETTERS, 7)

    def wrong_at_the_last(f, h, policy="minimal"):
        m = eval_prop(f, h, policy)
        return negate(m, policy) if not any(h.truths().values()) else m

    config = SweepConfig(prop_vars=names, max_depth=1)
    report = check_equivalence(config, prop_eval=wrong_at_the_last)
    formulas = enumerate_formulas(names, max_depth=1)
    assert report.prop_checks == len(formulas) * 128 * 2
    assert report.disagreement_count == len(formulas) * 2
    last = ", ".join(f"{v}=false" for v in sorted(names))
    falsity = dict.fromkeys(names, False)
    expected = [
        Disagreement("prop", print_formula(f), f"assignment 127: {last}",
                     str(truth_table_eval(f, falsity)).lower(),
                     f"{policy}: {str(not truth_table_eval(f, falsity)).lower()}")
        for f in formulas for policy in config.policies
    ]
    assert report.disagreements == expected[:len(report.disagreements)]
    assert len(report.disagreements) == 25


def test_sweep_drops_its_tables():
    """A sweep keeps no table once it returns: the Meanings it made die
    with it, and the table of live Meanings is again as large as before
    the sweep.  Meanings alive before it, such as the equal ones other
    tests hold, rightly stay."""
    gc.collect()
    before = len(meanings._live)
    sizes = []

    def counted(evaluate):
        def evaluator(*args):
            m = evaluate(*args)
            sizes.append(len(meanings._live))
            return m
        return evaluator

    config = SweepConfig(prop_vars=("p",), max_depth=2, include_fo=True, fo_prop_vars=("p",),
                         fo_max_size=4, fo_max_individuals=2)
    assert check_equivalence(config, counted(eval_prop), counted(eval_fo)).ok
    assert max(sizes) > before
    gc.collect()
    assert len(meanings._live) == before


def test_sweep_frees_its_formulas_by_reference_counting():
    """With the cyclic collector off, a sweep still leaves every formula
    class's table of live nodes, and the table of live Meanings, as large
    as before it: nothing it builds, its programs included, sits in a
    reference cycle."""
    classes = (PropVar, PredApp, Or, Not, ForAll, Exists)
    config = SweepConfig(prop_vars=("p", "q"), max_depth=2, include_fo=True, fo_prop_vars=("p",),
                         fo_max_size=5, fo_max_individuals=2)
    gc.collect()
    gc.disable()
    try:
        before = [len(cls._live) for cls in classes] + [len(meanings._live)]
        assert check_equivalence(config).ok
        after = [len(cls._live) for cls in classes] + [len(meanings._live)]
    finally:
        gc.enable()
    assert after == before


def test_refused_negation_leaves_no_entry(monkeypatch):
    """A ValueError from `negate`, such as a transversal budget's
    refusal, comes out of the sweep, and the computed table keeps
    nothing for the refused operand: the next run asks `negate` again."""
    calls = []

    def refuse_first(m, policy="minimal"):
        calls.append(m)
        if len(calls) == 1:
            raise ValueError("refused")
        return negate(m, policy)

    monkeypatch.setattr(propsem, "negate", refuse_first)
    with pytest.raises(ValueError, match="refused"):
        check_equivalence(SweepConfig(prop_vars=("p",), max_depth=1))

    calls.clear()
    h = list(propsem.enumerate_assignments(["p"]))[0]
    program = propsem.compile_program([Not(p)], ["p"])
    computed = {}
    with pytest.raises(ValueError, match="refused"):
        propsem.run(program, h.values, None, "minimal", computed)
    assert computed == {}
    out = propsem.run(program, h.values, None, "minimal", computed)
    assert out[program.roots[0]] == negate(h.values["p"])
    assert len(calls) == 2


def test_report_dict_shape():
    report = check_equivalence(SweepConfig(prop_vars=("p",), max_depth=1))
    d = report.to_dict()
    assert d["verdict"] == "PASS"
    assert d["disagreement_count"] == 0
    assert list(d["config"]["prop_vars"]) == ["p"]
    assert "prop_checks" in d


def test_report_text_mentions_seed_in_sampled_mode():
    config = SweepConfig(prop_vars=("p",), max_depth=1, mode="sampled", seed=9, count=2)
    text = check_equivalence(config).to_text()
    assert "seed=9" in text
