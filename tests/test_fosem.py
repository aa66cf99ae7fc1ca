"""Quantified evaluation over finite worlds."""
import functools
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pmsem import fosem, propsem
from pmsem.fosem import default_binding, enumerate_worlds, eval_fo, logical_truth
from pmsem.meanings import (
    POLICIES,
    atom_meaning,
    disjoin,
    is_true,
    meaning,
    memberwise_union,
    negate,
    render_meaning,
)
from pmsem.ontology import Complex, Pair, World, describe_world
from pmsem.oracle import SweepConfig, check_equivalence, enumerate_formulas
from pmsem.propsem import (
    compile_program,
    declared_assignment,
    enumerate_assignments,
    run,
)
from pmsem.syntax import (
    Exists,
    ForAll,
    Not,
    Or,
    PredApp,
    PropVar,
    parse,
    print_formula,
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
# the valuation

def test_default_binding_covers_domain():
    xi = default_binding(w())
    assert set(xi.values()) == {"a", "b"}
    assert len(xi) >= 3
    xi = default_binding(w(individuals=("a", "b", "c", "d")))
    assert tuple(xi) == ("x", "y", "z", "x1")
    assert xi == {"x": "a", "y": "b", "z": "c", "x1": "d"}


def test_default_binding_min_pool():
    xi = default_binding(w(individuals=("a",)))
    assert len(xi) == 3
    assert set(xi.values()) == {"a"}


def test_valuation_is_built_once_per_program(monkeypatch):
    calls = []

    def counting(world):
        calls.append(world)
        return default_binding(world)

    monkeypatch.setattr(propsem, "default_binding", counting)
    config = SweepConfig(include_prop=False, include_fo=True, fo_max_size=3)
    report = check_equivalence(config)
    assert report.ok and report.fo_formulas > 1
    # One vocabulary, S, whose worlds have 1, 2 or 3 individuals: one
    # lowering, and one valuation, for its largest domain; the smaller
    # domains' programs are restricted from it.
    assert [len(world.individuals) for world in calls] == [3]


# ---------------------------------------------------------------------------
# quantifier meanings

def test_universal_over_all_facts():
    m = eval_fo(parse("(x).S(x)"), w(facts=("a", "b")))
    assert m == meaning({diag("a"), diag("b")})
    assert is_true(m)


def test_universal_with_failing_instance():
    m = eval_fo(parse("(x).S(x)"), w())
    assert any(flip("b") in member for member in m.members)
    assert not is_true(m)


def test_existential_collects_instances():
    m = eval_fo(parse("(Ex).S(x)"), w())
    assert m == meaning({diag("a")}, {flip("b")})
    assert is_true(m)


def test_existential_false_when_no_fact():
    m = eval_fo(parse("(Ex).S(x)"), w(facts=()))
    assert not is_true(m)


def test_universal_truth_is_instance_conjunction():
    for facts in [(), ("a",), ("b",), ("a", "b")]:
        world = w(facts=facts)
        m = eval_fo(parse("(x).S(x)"), world)
        assert is_true(m) == (set(facts) == {"a", "b"})


def test_existential_truth_is_instance_disjunction():
    for facts in [(), ("a",), ("b",), ("a", "b")]:
        world = w(facts=facts)
        m = eval_fo(parse("(Ex).S(x)"), world)
        assert is_true(m) == bool(facts)


def test_vacuous_alternation_over_singleton_domain():
    world = w(facts=("a",), individuals=("a",))
    assert is_true(eval_fo(parse("(x)(Ey). S(x) v S(y)"), world))


def test_negated_quantifier():
    m = eval_fo(parse("~((x).S(x))"), w())
    assert is_true(m)


def test_prop_variable_mixes_with_quantifier():
    world = World(
        individuals=("a", "b"),
        predicates=("S",),
        facts=frozenset(),
        constants=(("P", True),),
    )
    h = declared_assignment(["p"], world)
    m = eval_fo(parse("(x). S(x) v p"), world, h)
    assert is_true(m)


def test_free_variable_base_mode_all():
    m = eval_fo(parse("S(x)"), w(facts=("a", "b")))
    assert is_true(m)
    assert not is_true(eval_fo(parse("S(x)"), w()))


def test_free_variable_base_mode_any():
    f = parse("S(x)")
    assert eval_fo(f, w(), any_variable="x") == meaning({diag("a")})
    assert eval_fo(f, w(), any_variable="y") == meaning({flip("b")})
    # z repeats the first individual of a two-individual world.
    assert eval_fo(f, w(), any_variable="z") == meaning({diag("a")})


def test_designated_variable_must_be_in_the_valuation():
    f = parse("S(x)")
    with pytest.raises(ValueError, match="designated variable x1 is not in the valuation"):
        eval_fo(f, w(), any_variable="x1")
    world = w(facts=("d",), individuals=("a", "b", "c", "d"))
    assert eval_fo(f, world, any_variable="x1") == meaning({diag("d")})


def test_render_universal_example():
    m = eval_fo(parse("(x).S(x)"), w(facts=("a", "b")))
    assert render_meaning(m) == "{{<S(a)+,=>, <S(b)+,=>}}"


# ---------------------------------------------------------------------------
# programs against a fresh evaluation

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


def table_free(f, world, h, policy="minimal", any_variable=None):
    """The Meaning of f in world under h by the induction `propsem`
    states, evaluated afresh with no table: the reference the compiled
    programs are compared against.  A world without individuals (a
    propositional assignment's) has no valuation."""
    xi = default_binding(world) if world.individuals else {}
    start = {} if any_variable is None else dict.fromkeys(xi, xi[any_variable])

    def ev(g, env):
        if isinstance(g, PropVar):
            return h.values[g.name]
        if isinstance(g, Not):
            return negate(ev(g.operand, env), policy)
        if isinstance(g, Or):
            return disjoin(ev(g.left, env), ev(g.right, env))
        if isinstance(g, PredApp):
            if g.argument in env:
                return atom_meaning(world, g.predicate, (env[g.argument],))
            return ev(ForAll(g.argument, g), env)
        instances = [ev(g.body, {**env, g.variable: d}) for d in world.individuals]
        if isinstance(g, Exists):
            return functools.reduce(disjoin, instances)
        return memberwise_union(instances)

    return ev(f, start)


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
    """One program per base mode, run under interleaved policies with one
    computed table, gives every formula, in any order, the Meaning a
    fresh evaluation gives; so does a lone eval_fo."""
    world = World(
        individuals=individuals,
        predicates=("R", "S"),
        facts=frozenset(f for f in facts if f[1][0] in individuals),
        constants=(("P", True),),
    )
    h = list(enumerate_assignments(["p"], world))[0 if p_true else 1]
    formulas = [f for f, _, _ in calls]
    programs = {u: compile_program(formulas, h.values, world, u) for u in (None, "x", "y")}
    computed = {}
    for k, (f, policy, any_variable) in enumerate(calls):
        fresh = table_free(f, h.world, h, policy, any_variable)
        program = programs[any_variable]
        assert run(program, h.values, world, policy, computed)[program.roots[k]] == fresh
        assert eval_fo(f, h.world, h, policy, any_variable) == fresh


def test_memo_is_not_served_to_another_assignment():
    """One program and computed table serve both assignments: a run
    keeps no slot for the next."""
    world = World(individuals=("a",), predicates=("S",), constants=(("P", True),))
    h_true, h_false = enumerate_assignments(["p"], world)
    program = compile_program([parse("(x).p")], ["p"], world)
    computed = {}
    assert is_true(run(program, h_true.values, world, "minimal", computed)[program.roots[0]])
    assert not is_true(run(program, h_false.values, world, "minimal", computed)[program.roots[0]])


def test_memo_is_not_served_to_another_binding():
    """A program compiled in one world runs in another of the same
    domain, and reads that world's facts."""
    program = compile_program([parse("(x).S(x)")], (), w())
    computed = {}
    assert not is_true(run(program, {}, w(), "minimal", computed)[program.roots[0]])
    assert is_true(run(program, {}, w(facts=("a", "b")), "minimal", computed)[program.roots[0]])


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
    assert v.witness_assignment.world.facts == frozenset({("S", ("a",))})


def test_logical_truth_requires_closed_formula():
    with pytest.raises(ValueError):
        logical_truth(parse("S(x)"))


def test_logical_truth_counts_worlds():
    v = logical_truth(parse("(x). S(x) v ~S(x)"), max_individuals=2)
    assert v.worlds_checked == 6
    v = logical_truth(parse("(x).S(x) v p v ~p"))
    assert (v.kind, v.worlds_checked) == ("logical_truth", 14)


def test_worlds_are_counted_then_built_as_reached(monkeypatch):
    """logical_truth builds no world past the falsifying one, and a
    listing builds its worlds again at each iteration."""
    built = counting_builds(monkeypatch, fosem, "World")
    worlds = enumerate_worlds(["S", "R"], ["p"], max_individuals=3)
    assert (len(worlds), built) == (4 + 16 + 64, [])
    v = logical_truth(parse("(x).S(x) v (x).R(x)"))
    assert (v.kind, v.worlds_checked) == ("falsifiable", 1)
    assert [w.facts for w in built] == [frozenset()]
    assert list(worlds) == list(worlds) and len(built) == 1 + 2 * 84


def counting_builds(monkeypatch, module=propsem, name="PropAssignment") -> list:
    """Every object module builds by name from here on: by default,
    every PropAssignment propsem builds."""
    built = []
    build = getattr(module, name)

    def building(**fields):
        built.append(build(**fields))
        return built[-1]

    monkeypatch.setattr(module, name, building)
    return built


def test_sampled_assignments_are_drawn_as_reached(monkeypatch):
    """Sampled logical_truth draws no assignment past the falsifying one,
    here the first of 4,096 at the first world."""
    built, runs = counting_builds(monkeypatch), []

    def running(program, values, *args):
        runs.append(values)
        return run(program, values, *args)

    monkeypatch.setattr(fosem, "run", running)
    v = logical_truth(parse("(x).S(x) v p"), mode="sampled", seed=3, count=4096)
    assert (v.kind, v.worlds_checked) == ("falsifiable", 1)
    assert [h.values for h in built] == runs == [v.witness_assignment.values]


def test_falsifying_world_is_the_assignments_grounded_world():
    v = logical_truth(parse("(x).S(x) v p"))
    assert (v.kind, v.worlds_checked) == ("falsifiable", 1)
    assert v.witness_assignment.world.constant_values == {"P": False}
    assert describe_world(v.witness_assignment.world) == "individuals {a}; facts {none}; P=false"


# ---------------------------------------------------------------------------
# properties

_fact_sets = st.sets(st.sampled_from(["a", "b", "c"]))


@given(_fact_sets)
@settings(max_examples=40)
def test_quantifier_duality(facts):
    world = w(facts=tuple(facts), individuals=("a", "b", "c"))
    lhs = eval_fo(parse("~((x).S(x))"), world)
    rhs = eval_fo(parse("(Ex).~S(x)"), world)
    assert is_true(lhs) == is_true(rhs)


@given(_fact_sets)
@settings(max_examples=40)
def test_policy_invariance_under_quantifiers(facts):
    world = w(facts=tuple(facts), individuals=("a", "b", "c"))
    for text in ("~((x).S(x))", "(x).~S(x)", "~((Ex). S(x) v ~S(x))"):
        f = parse(text)
        assert is_true(eval_fo(f, world, policy="minimal")) == is_true(
            eval_fo(f, world, policy="full")
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
    st.sampled_from([("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")]),
    st.sets(st.sampled_from(FACTS)),
)
@settings(max_examples=60, deadline=None)
def test_closed_meaning_ignores_the_valuation(f, policy, individuals, facts):
    """A closed formula takes the same Meaning under base mode "all" and
    under "any:v" for every variable v of the valuation."""
    world = World(
        individuals=individuals,
        predicates=("R", "S"),
        facts=frozenset(fact for fact in facts if fact[1][0] in individuals),
        constants=(("P", True),),
    )
    (h, _) = enumerate_assignments(["p"], world)
    expected = eval_fo(f, world, h, policy)
    for v in default_binding(world):
        assert eval_fo(f, world, h, policy, v) == expected


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
        for policy in POLICIES:
            for name, any_variable in BASE_MODES.items():
                text = "\n".join(
                    render_meaning(eval_fo(f, world, None, policy, any_variable))
                    for f in formulas
                )
                key = f"{describe_world(world)} | {policy} | {name}"
                digests[key] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == json.loads(MEANING_DIGESTS.read_text())
