"""Quantified evaluation over finite worlds."""
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pmsem.fosem import (
    Binding,
    default_binding,
    enumerate_worlds,
    eval_fo,
    logical_truth,
)
from pmsem.meanings import POLICIES, is_true, meaning, render_meaning
from pmsem.ontology import Complex, Pair, World
from pmsem.oracle import describe_world, enumerate_formulas
from pmsem.propsem import PropAssignment, canonical_assignments, declared_assignment
from pmsem.syntax import (
    IND_LETTERS,
    Exists,
    ForAll,
    Not,
    Or,
    PredApp,
    PropVar,
    parse,
    print_formula,
    variable_names,
)


def w(facts=("a",), individuals=("a", "b")):
    return World(
        individuals=tuple(individuals),
        predicates=("S",),
        facts=frozenset({("S", (i,)) for i in facts}),
    )


def diag(ind, positive=True):
    return Pair(Complex("S", (ind,), positive), True)


def flip(ind, positive=False):
    return Pair(Complex("S", (ind,), positive), False)


# ---------------------------------------------------------------------------
# bindings

def test_default_binding_covers_domain():
    b = default_binding(w())
    assert set(b.xi.values()) == {"a", "b"}
    assert len(b.xi) >= 3
    b = default_binding(w(individuals=("a", "b", "c", "d")))
    assert tuple(b.xi) == ("x", "y", "z", "x1")
    assert b.xi == {"x": "a", "y": "b", "z": "c", "x1": "d"}


def test_default_binding_min_pool():
    b = default_binding(w(individuals=("a",)))
    assert len(b.xi) == 3
    assert set(b.xi.values()) == {"a"}


def test_binding_requires_surjectivity():
    with pytest.raises(ValueError):
        Binding(world=w(), xi={"x": "a"})


def test_binding_requires_valuation_cover():
    with pytest.raises(ValueError):
        Binding(world=w(), xi={"x": "a", "y": "c"})


# ---------------------------------------------------------------------------
# quantifier meanings

def test_universal_over_all_facts():
    m = eval_fo(parse("(x).S(x)"), default_binding(w(facts=("a", "b"))))
    assert m == meaning({diag("a"), diag("b")})
    assert is_true(m)


def test_universal_with_failing_instance():
    m = eval_fo(parse("(x).S(x)"), default_binding(w()))
    assert any(flip("b") in member for member in m.members)
    assert not is_true(m)


def test_existential_collects_instances():
    m = eval_fo(parse("(Ex).S(x)"), default_binding(w()))
    assert m == meaning({diag("a")}, {flip("b")})
    assert is_true(m)


def test_existential_false_when_no_fact():
    m = eval_fo(parse("(Ex).S(x)"), default_binding(w(facts=())))
    assert not is_true(m)


def test_universal_truth_is_instance_conjunction():
    for facts in [(), ("a",), ("b",), ("a", "b")]:
        world = w(facts=facts)
        m = eval_fo(parse("(x).S(x)"), default_binding(world))
        assert is_true(m) == (set(facts) == {"a", "b"})


def test_existential_truth_is_instance_disjunction():
    for facts in [(), ("a",), ("b",), ("a", "b")]:
        world = w(facts=facts)
        m = eval_fo(parse("(Ex).S(x)"), default_binding(world))
        assert is_true(m) == bool(facts)


def test_vacuous_alternation_over_singleton_domain():
    world = w(facts=("a",), individuals=("a",))
    assert is_true(eval_fo(parse("(x)(Ey). S(x) v S(y)"), default_binding(world)))


def test_negated_quantifier():
    m = eval_fo(parse("~((x).S(x))"), default_binding(w()))
    assert is_true(m)


def test_prop_variable_mixes_with_quantifier():
    world = World(
        individuals=("a", "b"),
        predicates=("S",),
        facts=frozenset(),
        constants=(("P", True),),
    )
    h = declared_assignment(["p"], world)
    m = eval_fo(parse("(x). S(x) v p"), default_binding(world), h)
    assert is_true(m)


def test_free_variable_base_mode_all():
    m = eval_fo(parse("S(x)"), default_binding(w(facts=("a", "b"))))
    assert is_true(m)
    assert not is_true(eval_fo(parse("S(x)"), default_binding(w())))


def test_free_variable_base_mode_any():
    b = default_binding(w())
    m = eval_fo(parse("S(x)"), b, any_variable="x")
    assert is_true(m) == (b.xi["x"] == "a")
    b = Binding(world=w(), xi={"x": "a", "y": "b"})
    f = parse("S(x)")
    assert eval_fo(f, b, any_variable="x") == meaning({diag("a")})
    assert eval_fo(f, b, any_variable="y") == meaning({flip("b")})


def test_designated_variable_must_be_in_the_valuation():
    b = Binding(world=w(), xi={"x": "a", "y": "b"})
    with pytest.raises(ValueError, match="designated variable z is not in the valuation"):
        eval_fo(parse("S(x)"), b, any_variable="z")


def test_render_universal_example():
    m = eval_fo(parse("(x).S(x)"), default_binding(w(facts=("a", "b"))))
    assert render_meaning(m) == "{{<S(a)+,=>, <S(b)+,=>}}"


# ---------------------------------------------------------------------------
# memo-carrying assignments

IND_VARS = st.sampled_from(("x", "y"))

FO_TREES = st.recursive(
    st.one_of(st.builds(PredApp, st.sampled_from(("S", "R")), IND_VARS), st.just(PropVar("p"))),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Or, sub, sub),
        st.builds(ForAll, IND_VARS, sub),
        st.builds(Exists, IND_VARS, sub),
        st.builds(lambda f: Or(f, parse(print_formula(f))), sub),
    ),
    max_leaves=3,
)

FACTS = [(r, (i,)) for r in ("R", "S") for i in ("a", "b")]


@given(
    st.lists(
        st.tuples(
            FO_TREES,
            st.sampled_from(("minimal", "full")),
            st.sampled_from([None, "x", "y"]),
        ),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from([("a",), ("a", "b")]),
    st.sets(st.sampled_from(FACTS)),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_memo_binding_matches_fresh_evaluation(calls, individuals, facts, p_true):
    """One memo-carrying assignment serves formulas in any order, under
    interleaved policies and base modes, with the Meanings a fresh
    evaluation gives."""
    world = World(
        individuals=individuals,
        predicates=("R", "S"),
        facts=frozenset(f for f in facts if f[1][0] in individuals),
        constants=(("P", True),),
    )
    h = canonical_assignments(["p"], world)[0 if p_true else 1]
    binding = default_binding(h.world)
    point = PropAssignment(values=h.values, world=h.world)
    point.memo = {}
    for f, policy, any_variable in calls:
        fresh = eval_fo(f, default_binding(h.world), h, policy, any_variable)
        assert eval_fo(f, binding, point, policy, any_variable) == fresh


def test_memo_is_not_served_to_another_assignment():
    world = World(individuals=("a",), predicates=("S",), constants=(("P", True),))
    h_true, h_false = canonical_assignments(["p"], world)
    binding = default_binding(world)
    h_true.memo = {}
    f = parse("(x).p")
    assert is_true(eval_fo(f, binding, h_true))
    assert not is_true(eval_fo(f, binding, h_false))


def test_memo_is_not_served_to_another_binding():
    (h,) = canonical_assignments([], w())
    h.memo = {}
    f = parse("(x).S(x)")
    assert not is_true(eval_fo(f, default_binding(w()), h))
    assert is_true(eval_fo(f, default_binding(w(facts=("a", "b"))), h))


# ---------------------------------------------------------------------------
# world enumeration and logical truth

def test_enumerate_worlds_counts():
    worlds = enumerate_worlds(["S"], [], max_individuals=2)
    # domains {a} and {a,b}: 2 + 4 fact subsets
    assert len(worlds) == 6


def test_enumerate_worlds_includes_prop_constants():
    worlds = enumerate_worlds(["S"], ["p"], max_individuals=1)
    assert all("P" in w_.constant_values for w_ in worlds)


def test_excluded_middle_under_quantifier_is_valid():
    assert logical_truth(parse("(x). S(x) v ~S(x)")).kind == "logical_truth"


def test_universal_implies_existential():
    assert logical_truth(parse("(x).S(x) .=>. (Ex).S(x)")).kind == "logical_truth"


def test_existential_does_not_imply_universal():
    v = logical_truth(parse("(Ex).S(x) .=>. (x).S(x)"))
    assert v.kind == "falsifiable"
    assert v.witness_world is not None
    assert v.witness_world.facts == frozenset({("S", ("a",))})


def test_logical_truth_requires_closed_formula():
    with pytest.raises(ValueError):
        logical_truth(parse("S(x)"))


def test_logical_truth_counts_worlds():
    v = logical_truth(parse("(x). S(x) v ~S(x)"), max_individuals=2)
    assert v.worlds_checked == 6
    v = logical_truth(parse("(x).S(x) v p v ~p"))
    assert (v.kind, v.worlds_checked) == ("logical_truth", 14)


def test_falsifying_world_is_the_assignments_grounded_world():
    v = logical_truth(parse("(x).S(x) v p"))
    assert (v.kind, v.worlds_checked) == ("falsifiable", 1)
    assert v.witness_world is v.witness_assignment.world
    assert v.witness_world.constant_values == {"P": False}
    assert describe_world(v.witness_world) == "individuals {a}; facts {none}; P=false"


# ---------------------------------------------------------------------------
# properties

_fact_sets = st.sets(st.sampled_from(["a", "b", "c"]))


@given(_fact_sets)
@settings(max_examples=40)
def test_quantifier_duality(facts):
    world = w(facts=tuple(facts), individuals=("a", "b", "c"))
    b = default_binding(world)
    lhs = eval_fo(parse("~((x).S(x))"), b)
    rhs = eval_fo(parse("(Ex).~S(x)"), b)
    assert is_true(lhs) == is_true(rhs)


@given(_fact_sets)
@settings(max_examples=40)
def test_policy_invariance_under_quantifiers(facts):
    world = w(facts=tuple(facts), individuals=("a", "b", "c"))
    b = default_binding(world)
    for text in ("~((x).S(x))", "(x).~S(x)", "~((Ex). S(x) v ~S(x))"):
        f = parse(text)
        assert is_true(eval_fo(f, b, policy="minimal")) == is_true(
            eval_fo(f, b, policy="full")
        )


CLOSED_FO_TREES = st.builds(
    lambda outer, inner, body: outer("x", inner("y", body)),
    st.sampled_from((ForAll, Exists)),
    st.sampled_from((ForAll, Exists)),
    FO_TREES,
)


@given(
    CLOSED_FO_TREES,
    st.sampled_from(("minimal", "full")),
    st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]),
    st.sets(st.sampled_from(FACTS)),
    st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_closed_meaning_ignores_the_valuation(f, policy, individuals, facts, extra, rng):
    """A closed formula takes the same Meaning under every onto
    valuation, one that repeats individuals included."""
    world = World(
        individuals=individuals,
        predicates=("R", "S"),
        facts=frozenset(fact for fact in facts if fact[1][0] in individuals),
        constants=(("P", True),),
    )
    values = list(individuals) + [i for i in extra if i in individuals] + [individuals[0]]
    rng.shuffle(values)
    xi = dict(zip(variable_names(IND_LETTERS, len(values)), values))
    (h, _) = canonical_assignments(["p"], world)
    expected = eval_fo(f, default_binding(world), h, policy)
    assert eval_fo(f, Binding(world=world, xi=xi), h, policy) == expected


# Rendered Meanings of every formula of up to 4 nodes over S, x and y,
# open ones included, in every world over S of up to 3 individuals,
# under both policies and three base modes: one sha256 per (world,
# policy, base mode) over the newline-joined renders.
MEANING_DIGESTS = Path(__file__).resolve().parent / "data" / "meaning_digests.json"
BASE_MODES = {"all": None, "any:x": "x", "any:y": "y"}


def test_rendered_meanings_are_pinned():
    formulas = enumerate_formulas(
        predicate_names=("S",), ind_vars=("x", "y"), max_depth=5, max_quantifiers=2, max_size=4
    )
    assert len(formulas) == 248
    digests = {}
    for world in enumerate_worlds(["S"], [], 3):
        binding = default_binding(world)
        for policy in POLICIES:
            for name, any_variable in BASE_MODES.items():
                text = "\n".join(
                    render_meaning(eval_fo(f, binding, None, policy, any_variable))
                    for f in formulas
                )
                key = f"{describe_world(world)} | {policy} | {name}"
                digests[key] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == json.loads(MEANING_DIGESTS.read_text())
