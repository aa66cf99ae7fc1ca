"""Propositional evaluation, assignments and the tautology decision."""
import re
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from pmsem import fosem, propsem
from pmsem.fosem import enumerate_worlds
from pmsem.meanings import (
    POLICIES,
    Meaning,
    atom_meaning,
    disjoin,
    is_true,
    meaning,
    meaning_in_world,
    memberwise_union,
    negate,
    render_meaning,
)
from pmsem.ontology import Complex, Pair, World, constant_name
from pmsem.oracle import enumerate_formulas
from pmsem.propsem import (
    MAX_ASSIGNMENTS,
    MAX_SIZE_BOUND,
    PropAssignment,
    Verdict,
    classify,
    compile_program,
    declared_assignment,
    default_world,
    enumerate_assignments,
    eval_fo,
    eval_prop,
    restrict,
    run,
    run_columns,
)
from pmsem.syntax import (
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    PredApp,
    PropVar,
    conjoin,
    equivalent,
    free_variables,
    parse,
    print_formula,
    prop_variables,
)
from test_cli import assert_usage_error
from test_fosem import counting_builds, table_free

P_TRUE = meaning({Pair(Complex("P", (), True), True)})
P_FALSE = meaning({Pair(Complex("P", (), False), False)})
Q_TRUE = meaning({Pair(Complex("Q", (), True), True)})
Q_FALSE = meaning({Pair(Complex("Q", (), False), False)})


def h_of(**values):
    w = default_world(values).with_constants(
        {constant_name(v): is_true(m) for v, m in values.items()}
    )
    return PropAssignment(values=dict(values), world=w)


# ---------------------------------------------------------------------------
# the connective cases

def test_variable_returns_its_meaning():
    assert eval_prop(parse("p"), h_of(p=P_TRUE)) == P_TRUE


def test_negation_of_true_atom():
    m = eval_prop(parse("~p"), h_of(p=P_TRUE))
    assert m == meaning({Pair(Complex("P", (), True), False)})
    assert not is_true(m)


def test_negated_disjunction_pairs_both_rejections():
    h = h_of(p=P_TRUE, q=Q_FALSE)
    m = eval_prop(parse("~(p v q)"), h)
    assert m == meaning(
        {Pair(Complex("P", (), True), False), Pair(Complex("Q", (), False), True)}
    )
    assert not is_true(m)


def test_disjunction_unions_families():
    h = h_of(p=P_TRUE, q=Q_FALSE)
    m = eval_prop(parse("p v q"), h)
    assert m == meaning(
        {Pair(Complex("P", (), True), True)}, {Pair(Complex("Q", (), False), False)}
    )
    assert is_true(m)


def test_eval_rejects_uncovered_variable():
    with pytest.raises(ValueError):
        eval_prop(parse("p v q"), h_of(p=P_TRUE))


def test_eval_rejects_quantified_formulas():
    with pytest.raises(ValueError):
        eval_prop(parse("(x).S(x)"), h_of())


@pytest.mark.parametrize(
    "text, message",
    [
        # the leftmost refusal wins, whichever kind it is
        ("p1 v S(x)", "assignment does not cover variable p1"),
        ("S(x) v p1", "eval_prop takes propositional formulas; use eval_fo for predicates"),
        ("~((Ex).S(x)) v p1", "eval_prop takes propositional formulas; use eval_fo for quantifiers"),
        ("p v ~p1 v (x).S(x)", "assignment does not cover variable p1"),
    ],
)
def test_eval_prop_refuses_the_leftmost_name(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eval_prop(parse(text), h_of(p=P_TRUE))


@pytest.mark.parametrize(
    "text, any_variable, message",
    [
        ("S(x9)", None, "unbound individual variables: ['x9']"),
        # every unbound variable of the formula is named
        ("S(x) v S(y9) v S(x9)", None, "unbound individual variables: ['x9', 'y9']"),
        ("p1 v S(x9)", None, "assignment does not cover variable p1"),
        ("S(x9) v p1", None, "unbound individual variables: ['x9']"),
        ("S(x9) v p1", "x1", "designated variable x1 is not in the valuation"),
        ("(x).S(x) v S(y9)", "x", "unbound individual variables: ['y9']"),
    ],
)
def test_eval_fo_refuses_the_leftmost_name(text, any_variable, message):
    world = World(individuals=("a", "b"), predicates=("S",))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eval_fo(parse(text), world, None, "minimal", any_variable)


def test_unknown_policy_is_refused_without_a_negation():
    """The policy is checked before anything is evaluated, not only
    where a negation reads it."""
    h = h_of(p=P_TRUE, q=Q_FALSE)
    world = World(individuals=("a",), predicates=("S",))
    for evaluate in (
        lambda: eval_prop(parse("p v q"), h, "bogus"),
        lambda: eval_fo(parse("(Ex).S(x) v (x).S(x)"), world, policy="bogus"),
        lambda: classify(parse("p v q"), policy="bogus"),
    ):
        with pytest.raises(ValueError, match="^unknown policy 'bogus'$"):
            evaluate()


# ---------------------------------------------------------------------------
# canonical assignments

def test_canonical_one_variable():
    hs = enumerate_assignments(["p"])
    assert [h.values["p"] for h in hs] == [P_TRUE, P_FALSE]


def test_canonical_counts_grow_as_powers_of_two():
    assert len(enumerate_assignments(["p", "q"])) == 4
    assert len(enumerate_assignments(["p", "q", "r"])) == 8


def test_canonical_assignments_are_grounded():
    for h in enumerate_assignments(["p", "q"]):
        for m in h.values.values():
            assert meaning_in_world(m, h.world)


def test_canonical_needs_declared_constants():
    w = World(constants=(("P", True),))
    message = "world lacks propositional constants for ['q'] (canonical mode)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enumerate_assignments(["p", "q"], w)


def test_declared_assignment_reads_constants():
    w = World(constants=(("P", True), ("Q", False)))
    h = declared_assignment(["p", "q"], w)
    assert h.values["p"] == P_TRUE
    assert h.values["q"] == Q_FALSE


def test_sampled_assignments_are_reproducible():
    w = default_world(["p", "q"])
    a = list(enumerate_assignments(["p", "q"], w, "sampled", seed=1, count=10))
    b = list(enumerate_assignments(["p", "q"], w, "sampled", seed=1, count=10))
    assert len(a) == 10
    assert [h.values for h in a] == [h.values for h in b]


@pytest.mark.parametrize("mode, kwargs", [
    ("canonical", {}),
    ("sampled", dict(seed=1, count=5)),
    ("worlds", dict(max_individuals=2)),
])
def test_assignments_are_counted_then_built_as_iterated(monkeypatch, mode, kwargs):
    """An enumeration, of assignments or of worlds, builds nothing until
    it is iterated, and each iteration builds its items afresh: equal
    ones, in order."""
    if mode == "worlds":  # domains {a} and {a,b}: 2 + 4 fact subsets
        built, total = counting_builds(monkeypatch, fosem, "World"), 6
        items = enumerate_worlds(["S"], ["p"], **kwargs)
    else:  # 2^2 corners, or 5 draws
        built, total = counting_builds(monkeypatch), kwargs.get("count", 4)
        items = enumerate_assignments(["q", "p", "q"], None, mode, **kwargs)
    assert (len(items), built) == (total, [])
    first = list(items)
    assert first == built
    again = list(items)
    assert again == first and all(a is not b for a, b in zip(again, first))
    assert len(built) == 2 * total


def test_sampled_assignments_respect_size_bound():
    w = default_world(["p"])
    for h in enumerate_assignments(["p"], w, "sampled", seed=3, count=20, size_bound=2):
        m = h.values["p"]
        assert len(m.members) <= 2
        assert all(len(member) <= 2 for member in m.members)


def test_sampled_mode_requires_seed():
    with pytest.raises(ValueError):
        enumerate_assignments(["p"], None, "sampled", seed=None, count=5)


@pytest.mark.parametrize("variables", [[], ["p"]])
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=None, count=5),
        dict(seed=1, count=None),
        dict(seed=1, count=0),
        dict(seed=1, count=5, size_bound=0),
        dict(seed=1, count=5, size_bound=MAX_SIZE_BOUND + 1),
    ],
)
def test_sampled_mode_rejects_bad_inputs(variables, kwargs):
    with pytest.raises(ValueError):
        enumerate_assignments(variables, default_world(["p"]), "sampled", **kwargs)


def test_assignment_budget():
    names = [f"p{i}" for i in range(13)]
    for world in (None, World()):  # the budget comes before the world's constants
        with pytest.raises(ValueError, match=str(MAX_ASSIGNMENTS)):
            enumerate_assignments(names, world)
    with pytest.raises(ValueError, match=str(MAX_ASSIGNMENTS)):
        enumerate_assignments(["p"], default_world(["p"]), "sampled", seed=1,
                              count=MAX_ASSIGNMENTS + 1)
    assert len(enumerate_assignments([], default_world([]), "sampled", seed=1,
                                     count=MAX_ASSIGNMENTS)) == 1
    assert len(enumerate_assignments(names[:4])) == 16


@pytest.mark.parametrize("variables, mode, kwargs, message", [
    ([f"p{i}" for i in range(13)], "canonical", {},
     f"13 variables give more than {MAX_ASSIGNMENTS} canonical assignments"),
    (["p"], "exhaustive", {}, "unknown assignment mode 'exhaustive'"),
    (["p"], "sampled", dict(seed=None, count=5), "sampled mode needs a seed"),
    (["p"], "sampled", dict(seed=1, count=0), "sampled mode needs a positive count"),
    ([], "sampled", dict(seed=1, count=MAX_ASSIGNMENTS + 1),
     f"sampled count must be at most {MAX_ASSIGNMENTS}"),
    (["p"], "sampled", dict(seed=1, count=5, size_bound=0), "size bound must be at least 1"),
    (["p"], "sampled", dict(seed=1, count=5, size_bound=MAX_SIZE_BOUND + 1),
     f"size bound must be at most {MAX_SIZE_BOUND}"),
    # of several refusals, the first in this order comes out
    (["p"], "sampled", dict(seed=None, count=0, size_bound=0), "sampled mode needs a seed"),
    ([], "sampled", dict(seed=1, count=MAX_ASSIGNMENTS + 1, size_bound=0),
     f"sampled count must be at most {MAX_ASSIGNMENTS}"),
], ids=["budget", "mode", "seed", "count", "count-budget", "least-size", "most-size",
        "seed-first", "count-first"])
def test_enumeration_refuses_with_its_message(variables, mode, kwargs, message):
    with pytest.raises(ValueError) as refused:
        enumerate_assignments(variables, None, mode, **kwargs)
    assert str(refused.value) == message


def test_sampled_assignments_at_the_size_bound():
    (h,) = enumerate_assignments(["p"], default_world(["p"]), "sampled", seed=1, count=1,
                                 size_bound=MAX_SIZE_BOUND)
    assert len(h.values["p"].members) <= MAX_SIZE_BOUND


@pytest.mark.parametrize("world", [default_world([]), default_world(["p"])], ids=["empty", "P"])
@pytest.mark.parametrize("kwargs", [{}, dict(mode="sampled", seed=1, count=5)])
def test_no_variables_give_one_empty_assignment(world, kwargs):
    assert len(enumerate_assignments([], world, **kwargs)) == 1
    (h,) = enumerate_assignments([], world, **kwargs)
    assert h.values == {}
    assert h.world == world


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        enumerate_assignments(["p"], None, "exhaustive")


@pytest.mark.parametrize("world, argv, message", [
    ("relation S/1\n", ["fo-eval", "(x).S(x)", "--model"], "world has no individuals"),
    ("individual a\n", ["fo-eval", "p", "--model"],
     "world lacks propositional constants for ['p']"),
    ("", ["eval", "p", "--mode", "sampled", "--seed", "1", "--count", "2", "--world"],
     "world has no complexes to sample from"),
], ids=["no-individuals", "no-constants", "no-complexes"])
def test_worlds_with_nothing_to_assign_are_refused(tmp_path, capsys, world, argv, message):
    path = tmp_path / "w.txt"
    path.write_text(world)
    assert assert_usage_error(capsys, *argv, str(path)) == f"error: {message}\n"


# ---------------------------------------------------------------------------
# classification

def test_excluded_middle_is_tautology():
    assert classify(parse("p v ~p")).kind == "tautology"


def test_contradiction_detected():
    assert classify(parse("p . ~p")).kind == "contradiction"


def test_contingent_with_witnesses():
    v = classify(parse("p v q"))
    assert v.kind == "contingent"
    assert v.witness_true is not None
    assert not any(v.witness_false.truths().values())


def test_axiom_shapes_are_tautologies():
    for text in (
        "(p v p) => p",
        "q => (p v q)",
        "(p v q) => (q v p)",
        "(p v (q v r)) => (q v (p v r))",
        "(q => r) => ((p v q) => (p v r))",
    ):
        assert classify(parse(text)).kind == "tautology", text


def test_classify_counts_assignments():
    assert classify(parse("p v q")).assignments_checked == 4


def test_classify_sampled_mode():
    v = classify(parse("p v ~p"), mode="sampled", seed=11, count=16)
    assert v.kind == "tautology"
    assert v.assignments_checked == 16


def counting_runs(monkeypatch) -> list:
    """The values of every `propsem.run` call made from here on."""
    calls = []

    def counting(program, values, *args):
        calls.append(values)
        return run(program, values, *args)

    monkeypatch.setattr(propsem, "run", counting)
    return calls


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("text", ["p . q", "p v q", "(p v ~p) . (q v ~q)", "q . ~q . p"])
def test_canonical_classify_runs_its_program_once(monkeypatch, policy, text):
    """Contingent, tautology or contradiction: one run, at the all-true
    assignment, decides all four assignments."""
    calls = counting_runs(monkeypatch)
    assert classify(parse(text), policy=policy).assignments_checked == 4
    assert calls == [{"p": P_TRUE, "q": Q_TRUE}]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "text, evaluated",
    [
        # at seed 3 the first true assignment is the 7th, the first false one the 1st
        ("p . q", 7),
        ("p v q", 3),
        # a sampled tautology runs every assignment
        ("(p v ~p) . (q v ~q)", 8),
    ],
)
def test_sampled_classify_stops_at_its_second_witness(monkeypatch, policy, text, evaluated):
    calls = counting_runs(monkeypatch)
    v = classify(parse(text), mode="sampled", policy=policy, seed=3, count=8)
    assert v.assignments_checked == 8
    assert len(calls) == evaluated


def test_sampled_classify_draws_only_the_assignments_it_runs(monkeypatch):
    """p v q is settled at its third of 4,096 sampled assignments; no
    later one is drawn, though all 4,096 are counted."""
    built = counting_builds(monkeypatch)
    calls = counting_runs(monkeypatch)
    v = classify(parse("p v q"), mode="sampled", seed=3, count=4096)
    assert (v.kind, v.assignments_checked) == ("contingent", 4096)
    assert [h.values for h in built] == calls
    assert len(calls) == 3


def test_sampled_classify_runs_through_one_computed_table(monkeypatch):
    """Every run of one sampled classify shares its table; the next call
    starts a table of its own."""
    tables = []

    def recording(program, values, world, policy, computed):
        tables.append(computed)
        return run(program, values, world, policy, computed)

    monkeypatch.setattr(propsem, "run", recording)
    f = parse("(p v ~p) . (q v ~q)")  # a sampled tautology: every assignment runs
    for _ in range(2):
        classify(f, mode="sampled", seed=3, count=8)
    first, second = tables[:8], tables[8:]
    assert len(second) == 8 and first[0] is not second[0]
    assert all(t is first[0] for t in first) and all(t is second[0] for t in second)


def reference_classify(f, mode, policy, **kwargs):
    """The reference verdict: evaluate every assignment, then take the
    first true and the first false one as witnesses."""
    assignments = enumerate_assignments(prop_variables(f), None, mode, **kwargs)
    witness_true = witness_false = None
    for h in assignments:
        if is_true(eval_prop(f, h, policy)):
            if witness_true is None:
                witness_true = h
        else:
            if witness_false is None:
                witness_false = h
    if witness_false is None:
        kind = "tautology"
    elif witness_true is None:
        kind = "contradiction"
    else:
        kind = "contingent"
    return Verdict(kind, witness_true, witness_false, len(assignments))


def cyclic_chain(clauses: int) -> Formula:
    """The cyclic implication chain (p v ~q) . (q v ~r) ... (x v ~p) of
    up to 5 clauses over p, q, r, p1 and q1."""
    names = ["p", "q", "r", "p1", "q1"][:clauses]
    return reduce(conjoin, [Or(PropVar(a), Not(PropVar(b)))
                            for a, b in zip(names, names[1:] + names[:1])])


# Formulas of 3 to 6 variables whose truth masks span 8 to 64
# assignments: the cyclic chains, as ~~C (contingent) and ~~C v ~C (a
# tautology whose negations face the chain's transversals), and a
# contingent formula, a tautology and a contradiction over more variables.
WIDE_FORMULAS = [g for k in (3, 4, 5) for g in (Not(Not(cyclic_chain(k))),
                                                Or(Not(Not(cyclic_chain(k))), Not(cyclic_chain(k))))]
WIDE_FORMULAS += [parse(text) for text in (
    "p v q v r v p1 v ~q1",
    "p . q . r . p1 . q1 . r1 .=>. p v ~r1",
    "p . q . r . p1 . q1 . ~(r1 v q1)",
)]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode, kwargs", [("canonical", {}), ("sampled", {"seed": 5, "count": 8})])
def test_classify_matches_the_evaluate_every_point_loop(policy, mode, kwargs):
    formulas = enumerate_formulas(("p", "q", "r"), max_depth=2)
    assert len(formulas) == 243

    def summary(v, points):
        return (
            v.kind,
            None if v.witness_true is None else points.index(v.witness_true),
            None if v.witness_false is None else points.index(v.witness_false),
            v.assignments_checked,
        )

    def kind(f) -> str:
        points = list(enumerate_assignments(prop_variables(f), None, mode, **kwargs))
        got = classify(f, mode=mode, policy=policy, **kwargs)
        assert summary(got, points) == summary(reference_classify(f, mode, policy, **kwargs), points)
        return got.kind

    # depth 2 holds no contradiction
    assert {kind(f) for f in formulas} == {"tautology", "contingent"}
    if mode == "canonical":  # only canonical verdicts are read from a mask
        assert [kind(f) for f in WIDE_FORMULAS] == ["contingent", "tautology"] * 3 + [
            "contingent", "tautology", "contradiction"]


FOUR_VARIABLE_TREES = st.recursive(
    st.sampled_from([PropVar(v) for v in ("p", "q", "r", "p1")]),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(Or, sub, sub), st.builds(conjoin, sub, sub)),
    max_leaves=6,
)


def renamed(m: Meaning, h: PropAssignment) -> Meaning:
    """sigma_h(m): each pair <P+,d> of a variable p that h makes false
    becomes <P-,not d>."""
    false = {constant_name(v) for v, truth in h.truths().items() if not truth}

    def rename(pair):
        if pair.base.relation not in false:
            return pair
        return Pair(Complex(pair.base.relation, (), not pair.base.positive), not pair.diagonal)

    return Meaning(frozenset(frozenset(map(rename, member)) for member in m.members))


@given(FOUR_VARIABLE_TREES, st.sampled_from(POLICIES))
@settings(max_examples=60, deadline=None)
def test_every_canonical_meaning_renames_the_all_true_one(f, policy):
    """The symmetry canonical `classify` rests on: at every canonical h,
    f's Meaning is the all-true one renamed by sigma_h."""
    assignments = list(enumerate_assignments(prop_variables(f)))
    everywhere = eval_prop(f, assignments[0], policy)
    for h in assignments:
        assert renamed(everywhere, h) is eval_prop(f, h, policy)


# ---------------------------------------------------------------------------
# properties

_meanings = st.sampled_from([P_TRUE, P_FALSE, Q_TRUE, Q_FALSE])


@given(_meanings, _meanings)
@settings(max_examples=60)
def test_de_morgan_truth(mp, mq):
    h = h_of(p=mp, q=mq)
    lhs = eval_prop(parse("~(p v q)"), h)
    rhs = eval_prop(parse("~p . ~q"), h)
    assert is_true(lhs) == is_true(rhs)


@given(_meanings)
@settings(max_examples=40)
def test_double_negation_truth(mp):
    h = h_of(p=mp)
    assert is_true(eval_prop(parse("~(~p)"), h)) == is_true(eval_prop(parse("p"), h))


@given(_meanings, _meanings)
@settings(max_examples=60)
def test_policy_choice_never_changes_truth(mp, mq):
    h = h_of(p=mp, q=mq)
    for text in ("~(p v q)", "~(~p v ~q)", "p . q", "p => q", "p <=> q"):
        f = parse(text)
        assert is_true(eval_prop(f, h, "minimal")) == is_true(eval_prop(f, h, "full"))


def test_render_of_negated_disjunction():
    h = h_of(p=P_TRUE, q=Q_FALSE)
    m = eval_prop(parse("~(p v q)"), h)
    assert render_meaning(m) == "{{<P+,0>, <Q-,=>}}"


# ---------------------------------------------------------------------------
# programs against a fresh evaluation

def copied(f):
    """f rebuilt from its printed text: hash-consing makes it f itself."""
    return parse(print_formula(f))


PROP_TREES = st.recursive(
    st.sampled_from([PropVar("p"), PropVar("q")]),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Or, sub, sub),
        st.builds(equivalent, sub, sub),
        st.builds(lambda f: Or(f, copied(f)), sub),
    ),
    max_leaves=4,
)


def meanings_of(program, values, world, policy, computed):
    """The Meaning of each formula program was compiled from, in order."""
    out = run(program, values, world, policy, computed)
    return [out[slot] for slot in program.roots]


@given(
    st.lists(st.tuples(PROP_TREES, st.sampled_from(("minimal", "full"))), min_size=1, max_size=12),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 2**16)),
)
@settings(max_examples=60, deadline=None)
def test_memo_point_matches_fresh_evaluation(calls, index, seed):
    """One program of formulas and their copies, run at one point under
    interleaved policies with one computed table, gives each the
    Meaning a fresh evaluation gives; so does a lone eval_prop."""
    if seed is None:
        h = list(enumerate_assignments(["p", "q"]))[index]
    else:
        h = list(enumerate_assignments(["p", "q"], default_world(["p", "q"]), "sampled",
                                       seed=seed, count=1, size_bound=2))[0]
    program = compile_program([g for f, _ in calls for g in (f, copied(f))], h.values)
    computed = {}
    for k, (f, policy) in enumerate(calls):
        fresh = table_free(f, h.world, h, policy)
        assert meanings_of(program, h.values, None, policy, computed)[2 * k:2 * k + 2] == [fresh] * 2
        assert eval_prop(f, h, policy) == fresh


def test_memo_stays_with_its_point():
    """A run reads only the values it is given."""
    h, other = enumerate_assignments(["p"])
    program = compile_program([parse("p")], ["p"])
    computed = {}
    assert meanings_of(program, h.values, None, "minimal", computed) == [h.values["p"]]
    assert meanings_of(program, other.values, None, "minimal", computed) == [other.values["p"]]
    assert not is_true(eval_prop(parse("p"), replace(h, values=other.values)))


# ---------------------------------------------------------------------------
# programs and the computed table of a sweep

FO_TREES = st.recursive(
    st.sampled_from([PropVar("p"), PredApp("S", "x"), PredApp("S", "y")]),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Or, sub, sub),
        st.builds(ForAll, st.sampled_from("xy"), sub),
        st.builds(Exists, st.sampled_from("xy"), sub),
    ),
    max_leaves=4,
)


@given(
    st.lists(st.tuples(PROP_TREES, st.sampled_from(POLICIES)), min_size=1, max_size=6),
    st.lists(st.tuples(FO_TREES, st.sampled_from(POLICIES)), min_size=1, max_size=6),
    st.one_of(st.none(), st.integers(0, 2**16)),
    st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_sweep_tables_match_fresh_evaluation(prop_calls, fo_calls, seed, individuals):
    """Programs whose runs share one sweep's computed table give, at
    every point and under interleaved policies, the Meanings a fresh
    evaluation gives.  Two sweeps run in turn, each with a table of its
    own, and the quantified program is compiled once per domain."""
    mode = "canonical" if seed is None else "sampled"

    def points(variables, world):
        return enumerate_assignments(variables, world, mode, seed=seed, count=2, size_bound=2)

    for _ in range(2):
        shared = {}
        program = compile_program([f for f, _ in prop_calls], ["p", "q"])
        for h in points(["p", "q"], None):
            for k, (f, policy) in enumerate(prop_calls):
                got = meanings_of(program, h.values, None, policy, shared)[k]
                assert got == table_free(f, h.world, h, policy)
        domain = None
        for world in enumerate_worlds(["S"], ["p"], individuals):
            if world.individuals != domain:
                program = compile_program([f for f, _ in fo_calls], ["p"], world)
                domain = world.individuals
            for h in points(["p"], world):
                for k, (f, policy) in enumerate(fo_calls):
                    got = meanings_of(program, h.values, world, policy, shared)[k]
                    assert got == table_free(f, world, h, policy)


THREE_VARIABLE_TREES = st.recursive(
    st.sampled_from([PropVar(v) for v in ("p", "q", "r")]),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(Or, sub, sub)),
    max_leaves=5,
)


@given(
    st.lists(THREE_VARIABLE_TREES, min_size=1, max_size=5),
    st.lists(FO_TREES, min_size=1, max_size=5),
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(0, 2**16)),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_columns_hold_what_each_point_runs_to(prop_formulas, fo_formulas, individuals, seed,
                                              data):
    """`run_columns` over a block of points, canonical or sampled, and
    over its first point alone, gives at every slot and point the very
    Meaning `run` gives at that point alone, under either policy, with
    one computed table for the whole program.  One-point runs share that
    table, at every other point before the block and at every point
    after it, and give the very same Meanings too."""
    mode = "canonical" if seed is None else "sampled"

    def points(variables, world):
        return [(h.values, world) for h in enumerate_assignments(
            variables, world, mode, seed=seed, count=3, size_bound=2)]

    worlds = [w for w in enumerate_worlds(["S"], ["p"], individuals)
              if len(w.individuals) == individuals]
    for program, pool in (
        (compile_program(prop_formulas, ["p", "q", "r"]), points(["p", "q", "r"], None)),
        (compile_program(fo_formulas, ["p"], worlds[0]),
         [point for w in worlds for point in points(["p"], w)]),
    ):
        block = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool)))
        computed = {}
        for run_block in (block, block[:1]):
            for policy in POLICIES:
                before = {k: run(program, values, world, policy, computed)
                          for k, (values, world) in enumerate(run_block) if k % 2}
                columns = run_columns(program, run_block, policy, computed)
                assert len(columns) == len(program.steps)
                assert {len(column) for column in columns} == {len(run_block)}
                for k, (values, world) in enumerate(run_block):
                    alone = run(program, values, world, policy, {})
                    after = run(program, values, world, policy, computed)
                    for meanings in ([column[k] for column in columns],
                                     before.get(k, alone), after):
                        assert len(meanings) == len(alone)
                        assert all(m is n for m, n in zip(meanings, alone))


def test_a_refusal_in_a_block_records_no_column(monkeypatch):
    """A ValueError at the second point of a block comes out of
    `run_columns`: the table keeps the first point's negation, a result,
    and no column, so the next run asks `negate` again at the second
    point only."""
    calls = []

    def refuse_second(m, policy="minimal"):
        calls.append(m)
        if len(calls) == 2:
            raise ValueError("refused")
        return negate(m, policy)

    monkeypatch.setattr(propsem, "negate", refuse_second)
    points = [(h.values, None) for h in enumerate_assignments(["p"])]
    first, second = (values["p"] for values, _ in points)
    program = compile_program([parse("~p")], ["p"])
    computed = {}
    with pytest.raises(ValueError, match="refused"):
        run_columns(program, points, "minimal", computed)
    assert list(computed) == [(refuse_second, "minimal", first)]
    columns = run_columns(program, points, "minimal", computed)
    assert columns[program.roots[0]] == (negate(first), negate(second))
    assert calls == [first, second, second]


def counting_cores(monkeypatch) -> list:
    """The computed-table key of every call propsem makes from here on
    to disjoin, negate and memberwise_union, in call order."""
    calls = []

    def disjoining(*operands):
        calls.append((disjoining, *operands))
        return disjoin(*operands)

    def negating(m, policy="minimal"):
        calls.append((negating, policy, m))
        return negate(m, policy)

    def uniting(instances):
        calls.append((uniting, *instances))
        return memberwise_union(instances)

    for name, core in (("disjoin", disjoining), ("negate", negating),
                       ("memberwise_union", uniting)):
        monkeypatch.setattr(propsem, name, core)
    return calls


@given(st.lists(FO_TREES, min_size=1, max_size=5), st.sampled_from(POLICIES))
@settings(max_examples=30, deadline=None)
def test_a_run_records_one_entry_per_missed_core_call(formulas, policy):
    """`run` on a fresh table calls each core once per distinct
    operands and records exactly those calls, keyed by the core and the
    operand Meanings: no key holds a tuple.  With p and q equal, ~p v ~q
    runs three core steps and records two entries."""
    world = World(individuals=("a", "b"), predicates=("S",), facts=frozenset({("S", ("a",))}))
    cases = [(compile_program([parse("~p v ~q")], ["p", "q"]), {"p": P_TRUE, "q": P_TRUE}, None),
             (compile_program(formulas, ["p"], world), {"p": P_FALSE}, world)]
    entries = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = counting_cores(monkeypatch)
        for program, values, at in cases:
            calls.clear()
            computed = {}
            run(program, values, at, policy, computed)
            assert len(set(calls)) == len(calls) == len(computed)
            assert set(computed) == set(calls)
            assert not any(isinstance(item, tuple) for key in computed for item in key)
            entries.append(len(computed))
    assert len(cases[0][0].steps) == 5 and entries[0] == 2


def test_a_block_after_a_run_calls_no_core_at_its_point(monkeypatch):
    """A block run on the table a one-point run filled reads that
    point's Meanings from it: `negate` is called for the other point
    only, and the block's column holds the run's Meaning itself."""
    calls = counting_cores(monkeypatch)
    (first, _), (second, _) = points = [(h.values, None) for h in enumerate_assignments(["p"])]
    program = compile_program([parse("~p")], ["p"])
    computed = {}
    alone = run(program, first, None, "minimal", computed)[program.roots[0]]
    assert [call[2] for call in calls] == [first["p"]]
    column = run_columns(program, points, "minimal", computed)[program.roots[0]]
    assert [call[2] for call in calls] == [first["p"], second["p"]]
    assert column[0] is alone and column[1] == negate(second["p"])


def test_a_refusal_in_a_run_records_nothing(monkeypatch):
    """A ValueError at a one-point run's second negation comes out of
    `run` and leaves the table as the first negation left it, so the
    next run asks `negate` again for the refused operand only."""
    calls = []

    def refuse_second(m, policy="minimal"):
        calls.append(m)
        if len(calls) == 2:
            raise ValueError("refused")
        return negate(m, policy)

    monkeypatch.setattr(propsem, "negate", refuse_second)
    program = compile_program([parse("~~p")], ["p"])
    values = {"p": P_TRUE}
    computed = {}
    with pytest.raises(ValueError, match="refused"):
        run(program, values, None, "minimal", computed)
    once = negate(P_TRUE)
    assert computed == {(refuse_second, "minimal", P_TRUE): once}
    assert run(program, values, None, "minimal", computed)[program.roots[0]] == negate(once)
    assert calls == [P_TRUE, once, once]


def test_computed_negations_are_kept_per_policy():
    """~(p v q) with p = {{a, b}} and q = {{c}} has different `minimal`
    and `full` Meanings; one program and computed table give each as a
    table-free evaluation does, in either order, so no negation is
    served across policies."""
    a, b, c = (Pair(Complex(name, (), True), True) for name in "ABC")
    h = PropAssignment({"p": meaning({a, b}), "q": meaning({c})}, default_world(["p", "q"]))
    f = parse("~(p v q)")
    fresh = {policy: table_free(f, h.world, h, policy) for policy in POLICIES}
    assert fresh["minimal"] != fresh["full"]
    program = compile_program([f], h.values)
    for order in (POLICIES, POLICIES[::-1]):
        computed = {}
        for policy in order:
            assert meanings_of(program, h.values, None, policy, computed) == [fresh[policy]]


def test_reordered_quantifiers_ground_no_atom_again(monkeypatch):
    """(x)(y)g and (y)(x)g reach g in the same environments, whose keys
    are sorted, so at one sweep point the second formula grounds no atom
    the first has not; and each atom is grounded once per run."""
    grounded = []

    def counting(world, relation, args):
        grounded.append((relation, args))
        return atom_meaning(world, relation, args)

    monkeypatch.setattr(propsem, "atom_meaning", counting)
    world = World(individuals=("a", "b"), predicates=("S",), facts=frozenset({("S", ("a",))}))
    first, second = parse("(x).(y).(S(x) v S(y))"), parse("(y).(x).(S(x) v S(y))")
    alone = meanings_of(compile_program([first], (), world), {}, world, "minimal", {})
    ground_first = len(grounded)
    grounded.clear()
    both = meanings_of(compile_program([first, second], (), world), {}, world, "minimal", {})
    assert len(grounded) == ground_first
    assert sorted(grounded) == [("S", ("a",)), ("S", ("b",))]
    assert both == alone * 2 == [table_free(first, world, None, "minimal")] * 2


CLOSED_SRP_TREES = st.builds(
    lambda f, quantifiers: reduce(lambda g, v: quantifiers[v](v, g),
                                  sorted(free_variables(f)), f),
    st.recursive(
        st.sampled_from([PropVar("p")] + [PredApp(s, v) for s in "RS" for v in "xy"]),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Or, sub, sub),
            st.builds(ForAll, st.sampled_from("xy"), sub),
            st.builds(Exists, st.sampled_from("xy"), sub),
        ),
        max_leaves=6,
    ),
    st.fixed_dictionaries({v: st.sampled_from((ForAll, Exists)) for v in "xy"}),
)


def prefix_world(n):
    """A world over R and S of the first n of a, b, c, d, carrying p."""
    return World(("a", "b", "c", "d")[:n], ("R", "S"), frozenset(), (("P", True),))


def assert_restrictions_compile(formulas, largest=4):
    """restrict gives, for every prefix of the largest domain, the very
    Program `compile_program` gives there, slot order included."""
    program = compile_program(formulas, ["p"], prefix_world(largest))
    for n in range(1, largest + 1):
        individuals = prefix_world(n).individuals
        assert restrict(program, individuals) == compile_program(formulas, ["p"],
                                                                  prefix_world(n))


@given(st.lists(CLOSED_SRP_TREES, min_size=1, max_size=6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_restriction_compiles_the_smaller_domain(formulas, largest):
    """Closed formulas over S, R and p, compiled for a domain of 1 to 4
    individuals and restricted to each of its prefixes."""
    assert_restrictions_compile(formulas, largest)


@pytest.mark.parametrize("prop_vars, predicates", [((), ("S",)), (("p",), ("S", "R"))],
                         ids=["one_predicate", "two_predicate"])
def test_restriction_compiles_the_acceptance_listings(prop_vars, predicates):
    """The 972- and 7,625-formula quantified acceptance listings, each
    compiled as one program."""
    formulas = enumerate_formulas(prop_vars, predicates, ("x", "y"), 4, 2, 6, closed_only=True)
    assert len(formulas) == {1: 972, 2: 7625}[len(predicates)]
    assert_restrictions_compile(formulas)


def test_restriction_refuses_a_root_outside_it():
    """A formula that reads an individual only the larger domain has,
    under base mode "any", has no program in the restriction."""
    world = prefix_world(2)
    program = compile_program([parse("S(y)")], (), world, any_variable="y")
    with pytest.raises(ValueError, match="outside the restriction"):
        restrict(program, ("a",))


@pytest.mark.parametrize("policy", POLICIES)
def test_lone_evaluation_negates_each_distinct_negation_once(monkeypatch, policy):
    """A lone `eval_prop` compiles its formula, whose repeated subformulas
    share their slots, and runs it with a computed table of its own: the
    four distinct negations of ~(p v q) <=> ~(p v q) are computed once
    each."""
    calls = []

    def counting_negate(m, policy):
        calls.append(m)
        return negate(m, policy)

    monkeypatch.setattr(propsem, "negate", counting_negate)
    h = list(enumerate_assignments(["p", "q"]))[0]
    f = parse("~(p v q) <=> ~(p v q)")
    assert eval_prop(f, h, policy) == table_free(f, h.world, h, policy)
    assert len(calls) == 4


def test_unknown_policy_is_refused():
    h = h_of(p=P_TRUE)
    world = World(individuals=("a",), predicates=("S",))
    for evaluate in (
        lambda: eval_prop(parse("~p"), h, "bogus"),
        lambda: run(compile_program([parse("p")], ["p"]), h.values, None, "bogus", {}),
        lambda: eval_fo(parse("(x).S(x)"), world, policy="bogus"),
        lambda: classify(parse("p v ~p"), policy="bogus"),
    ):
        with pytest.raises(ValueError, match="^unknown policy 'bogus'$"):
            evaluate()
