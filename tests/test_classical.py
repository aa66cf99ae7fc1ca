"""The classical referee, and Meaning truth refereed by it."""
import re

import pytest
from hypothesis import given, settings, strategies as st

from pmsem.classical import TarskiModel, satisfies, tarski_eval, truth_table_eval
from pmsem.fosem import default_binding, enumerate_worlds, eval_fo
from pmsem.meanings import POLICIES, is_true
from pmsem.ontology import World
from pmsem.propsem import enumerate_assignments
from pmsem.syntax import Exists, ForAll, Not, Or, PredApp, PropVar, free_variables, parse
from test_propsem import FO_TREES, PROP_TREES

p = PropVar("p")


def model(world):
    """The Tarskian model of a World: its individuals and its facts."""
    return TarskiModel(world.individuals, world.facts, {})


# ---------------------------------------------------------------------------
# truth tables

def test_excluded_middle_true_everywhere():
    f = parse("p v ~p")
    assert truth_table_eval(f, {"p": True})
    assert truth_table_eval(f, {"p": False})


def test_disjunction_false_only_at_false_false():
    f = parse("p v q")
    assert not truth_table_eval(f, {"p": False, "q": False})
    assert truth_table_eval(f, {"p": True, "q": False})


def test_conditional_reflexive():
    f = parse("p .=>. p")
    assert truth_table_eval(f, {"p": True})
    assert truth_table_eval(f, {"p": False})


def test_truth_table_rejects_predicates():
    with pytest.raises(ValueError):
        truth_table_eval(parse("S(x)"), {})


def test_truth_table_rejects_missing_variable():
    with pytest.raises(ValueError):
        truth_table_eval(parse("p"), {})


_vals = st.fixed_dictionaries({"p": st.booleans(), "q": st.booleans()})


@given(_vals)
@settings(max_examples=40)
def test_oracle_matches_itself_via_de_morgan(vals):
    lhs = truth_table_eval(parse("~(p v q)"), vals)
    rhs = truth_table_eval(parse("~p . ~q"), vals)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# finite models

def _model(facts, individuals=("a", "b")):
    w = World(
        individuals=tuple(individuals),
        predicates=("S",),
        facts=frozenset({("S", (i,)) for i in facts}),
    )
    return model(w)


def test_universal_true_when_extension_full():
    assert tarski_eval(parse("(x).S(x)"), _model(("a", "b")))


def test_existential_false_when_extension_empty():
    assert not tarski_eval(parse("(Ex).S(x)"), _model(()))


def test_universal_false_on_partial_extension():
    assert not tarski_eval(parse("(x).S(x)"), _model(("a",)))


def test_tarski_uses_valuation_for_prop_vars():
    f = parse("(x). S(x) v p")
    assert tarski_eval(f, _model(()), None, {"p": True})
    assert not tarski_eval(f, _model(()), None, {"p": False})


def test_tarski_needs_a_model_for_quantifiers():
    with pytest.raises(ValueError):
        tarski_eval(parse("(x).p"), None, None, {"p": True})


def test_tarski_needs_a_model_for_bound_predicate_applications():
    with pytest.raises(ValueError, match="predicate applications need a model"):
        tarski_eval(parse("S(x)"), None, {"x": "a"})


def test_tarski_rejects_unbound_individual():
    with pytest.raises(ValueError):
        tarski_eval(parse("S(x)"), _model(("a",)))


def classical_key(f, env):
    """The key of (f, env) in a classical table, as `satisfies` lays it
    out."""
    return (f, tuple(env.items())) if env else f


WORLDS = enumerate_worlds(["S"], [], 3)


@st.composite
def blocks(draw):
    """A block of points of one domain: worlds over S, each with a
    valuation of p, and of q at every point or at none."""
    n = draw(st.integers(1, 3))
    names = draw(st.sampled_from([("p",), ("p", "q")]))
    return draw(st.lists(
        st.tuples(st.sampled_from([w for w in WORLDS if len(w.individuals) == n]),
                  st.fixed_dictionaries({v: st.booleans() for v in names})),
        min_size=1,
        max_size=8,
    ))


def block_masks(block):
    """The domain, facts and valuation of a block of (world, valuation)
    points, each individual, fact and variable mapped to the mask of the
    points where it is present or holds, and the mask of all of them."""
    domain, facts, valuation = {}, {}, {}
    for k, (world, values) in enumerate(block):
        for individual in world.individuals:
            domain[individual] = domain.get(individual, 0) | 1 << k
        for fact in world.facts:
            facts[fact] = facts.get(fact, 0) | 1 << k
        for name, truth in values.items():
            valuation[name] = valuation.get(name, 0) | truth << k
    return domain, facts, valuation, (1 << len(block)) - 1


def pointwise(g, block, env):
    """`tarski_eval` of g at each point of block: a truth, or the
    message of the ValueError it raises."""
    out = []
    for world, values in block:
        try:
            out.append(tarski_eval(g, model(world), env, values))
        except ValueError as error:
            out.append(str(error))
    return out


@given(
    st.lists(
        st.tuples(
            st.one_of(PROP_TREES, FO_TREES),
            st.dictionaries(st.sampled_from("xy"), st.integers(0, 2), max_size=2),
        ),
        min_size=1,
        max_size=8,
    ),
    blocks(),
)
@settings(max_examples=60, deadline=None)
def test_classical_table_matches_tarski_eval(calls, block):
    """One table serves a block's masks for formulas in any order, open
    ones at non-empty environments included, and bit k of each is the
    truth `tarski_eval` gives without a table at the block's k-th point.
    Each formula is asked, then its negation, which finds it recorded,
    then both again with neither a model nor a valuation, which only the
    table can answer; p v ~p and its negation come first, so a recorded
    all-points mask and a recorded 0 are both served.  An unbound
    variable or a missing valuation raises an error `tarski_eval` raises
    at some point of the block, and records nothing for the formula."""
    individuals = block[0][0].individuals
    domain, facts, valuation, full = block_masks(block)
    table = {}
    excluded_middle = Or(p, Not(p))
    for f, picks in [(excluded_middle, {})] + calls:
        env = {v: individuals[i % len(individuals)] for v, i in picks.items()}
        for g in (f, Not(f)):
            expected = pointwise(g, block, env)
            errors = [e for e in expected if isinstance(e, str)]
            if errors:
                with pytest.raises(ValueError) as raised:
                    satisfies(g, domain, facts, env, valuation, table, full)
                assert str(raised.value) in errors
                assert classical_key(g, env) not in table
                continue
            mask = satisfies(g, domain, facts, env, valuation, table, full)
            assert [bool(mask >> k & 1) for k in range(len(block))] == expected
            assert satisfies(g, None, None, env, None, table, full) == mask
    zero = Not(excluded_middle)
    assert (table[excluded_middle], table[zero]) == (full, 0)
    # served alone: recomputing the 0 would need p's valuation
    assert satisfies(zero, None, None, {}, None, {zero: 0}, full) == 0
    for key, mask in table.items():
        g, items = key if isinstance(key, tuple) else (key, ())
        for k, (world, values) in enumerate(block):
            assert tarski_eval(g, model(world), dict(items), values) is bool(mask >> k & 1)


def _world(*facts):
    return World(individuals=("a", "b"), predicates=("R", "S"),
                 facts=frozenset((name, (i,)) for name, i in facts))


@pytest.mark.parametrize("text, block", [
    # ~p holds at the first point and p at the second: none reaches q
    ("~p v (p v q)", [(_world(), {"p": False}), (_world(), {"p": True})]),
    # the b instance is reached only where the a instance holds, the
    # first point, where R(b) holds: none reaches q
    ("(x).(S(x) . (R(x) v q))", [
        (_world(("S", "a"), ("S", "b"), ("R", "a"), ("R", "b")), {}),
        (_world(("S", "b")), {}),
    ]),
])
def test_block_needs_only_what_its_points_reach(text, block):
    """A disjunct or instance no point of the block reaches may lack a
    truth value, as it may at each point for `tarski_eval`."""
    f = parse(text)
    domain, facts, valuation, full = block_masks(block)
    mask = satisfies(f, domain, facts, {}, valuation, {}, full)
    assert [bool(mask >> k & 1) for k in range(len(block))] == pointwise(f, block, {})


def closed(f, quantifier):
    """f with each free variable bound, in name order, by quantifier."""
    for v in sorted(free_variables(f)):
        f = quantifier(v, f)
    return f


CLOSED_FO_TREES = st.builds(closed, FO_TREES, st.sampled_from((ForAll, Exists)))


@st.composite
def mixed_blocks(draw):
    """A block of points of worlds over S of 1, 2 and 3 individuals, at
    least one of each size, in any order, each with a valuation of p,
    and of q at every point or at none."""
    names = draw(st.sampled_from([("p",), ("p", "q")]))
    values = st.fixed_dictionaries({v: st.booleans() for v in names})
    sized = [draw(st.sampled_from([w for w in WORLDS if len(w.individuals) == n]))
             for n in (1, 2, 3)]
    more = draw(st.lists(st.sampled_from(list(WORLDS)), max_size=5))
    return [(world, draw(values)) for world in draw(st.permutations(sized + more))]


@given(
    st.lists(st.one_of(PROP_TREES, CLOSED_FO_TREES, st.builds(Or, CLOSED_FO_TREES, PROP_TREES)),
             min_size=1, max_size=6),
    mixed_blocks(),
)
@settings(max_examples=60, deadline=None)
def test_mixed_domains_match_tarski_eval(formulas, block):
    """A block whose worlds have 1, 2 and 3 individuals gives each closed
    formula, at each point, the truth `tarski_eval` gives in that point's
    world: an instance counts only where its individual is present.  A
    formula that reaches a missing q raises an error `tarski_eval` raises
    at some point.  Each table entry is that point's truth wherever the
    point's world has its environment's individuals."""
    domain, facts, valuation, full = block_masks(block)
    table = {}
    for f in formulas:
        expected = pointwise(f, block, {})
        errors = [e for e in expected if isinstance(e, str)]
        if errors:
            with pytest.raises(ValueError) as raised:
                satisfies(f, domain, facts, {}, valuation, table, full)
            assert str(raised.value) in errors
            continue
        mask = satisfies(f, domain, facts, {}, valuation, table, full)
        assert [bool(mask >> k & 1) for k in range(len(block))] == expected
    for key, mask in table.items():
        g, items = key if isinstance(key, tuple) else (key, ())
        for k, (world, values) in enumerate(block):
            if all(d in world.individuals for _, d in items):
                assert tarski_eval(g, model(world), dict(items), values) is bool(mask >> k & 1)


def _sized(n, *members):
    return World(individuals=("a", "b", "c")[:n], predicates=("S",),
                 facts=frozenset(("S", (i,)) for i in members))


@pytest.mark.parametrize("block, expected", [
    # b's instance reaches q at the first point, which lacks b: the
    # block raises, and a point at a time none reaches q
    ([(_sized(1, "a"), {}), (_sized(2, "a", "b"), {})], [True, True]),
    # the second point, of three individuals, lacks S(b) and reaches q,
    # and raises as `tarski_eval` does there
    ([(_sized(1, "a"), {}), (_sized(3, "a", "c"), {}), (_sized(2, "a", "b"), {})],
     [True, "no truth value for propositional variable q", True]),
])
def test_mixed_block_falls_back_to_present_individuals(block, expected):
    """A block that raises is decided a point at a time, each point over
    its own individuals only, as `tarski_eval` decides it."""
    f = parse("(x).(S(x) v q)")
    assert pointwise(f, block, {}) == expected
    domain, facts, valuation, full = block_masks(block)
    errors = [e for e in expected if isinstance(e, str)]
    if errors:
        with pytest.raises(ValueError, match=errors[0]):
            satisfies(f, domain, facts, {}, valuation, {}, full)
    else:
        assert satisfies(f, domain, facts, {}, valuation, {}, full) == full


# ---------------------------------------------------------------------------
# Meaning truth against the referee, beyond the acceptance vocabularies

PREDICATES = ("R", "S", "T")

THREE_PREDICATE_TREES = st.recursive(
    st.sampled_from([PropVar("p"), PropVar("q")]
                    + [PredApp(s, v) for s in PREDICATES for v in "xy"]),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Or, sub, sub),
        st.builds(ForAll, st.sampled_from("xy"), sub),
        st.builds(Exists, st.sampled_from("xy"), sub),
    ),
    max_leaves=8,
)


@st.composite
def worlds(draw):
    """A world over R, S and T of 1 to 4 individuals, with constants
    carrying p and q."""
    individuals = ("a", "b", "c", "d")[: draw(st.integers(1, 4))]
    facts = draw(st.frozensets(st.tuples(
        st.sampled_from(PREDICATES), st.tuples(st.sampled_from(individuals)))))
    return World(individuals, PREDICATES, facts, (("P", True), ("Q", True)))


def universal_atoms(f, bound=frozenset()):
    """f with each atom whose variable no quantifier binds closed by a
    universal quantifier of its own: how base mode "all" reads it."""
    if isinstance(f, PredApp):
        return f if f.argument in bound else ForAll(f.argument, f)
    if isinstance(f, Not):
        return Not(universal_atoms(f.operand, bound))
    if isinstance(f, Or):
        return Or(universal_atoms(f.left, bound), universal_atoms(f.right, bound))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.variable, universal_atoms(f.body, bound | {f.variable}))
    return f


# The transversal budget's refusals, which are not disagreements.
BUDGET = re.compile("too large|choice sets")


@given(
    THREE_PREDICATE_TREES,
    worlds(),
    st.one_of(st.integers(0, 3), st.integers(4, 2**16)),
)
@settings(max_examples=300, deadline=None)
def test_meaning_truth_agrees_with_tarski_eval(f, world, pick):
    """`eval_fo`'s truth is the classical truth in worlds of up to four
    individuals over three predicates and two propositional variables,
    under both policies and both base modes, at canonical assignments
    (pick 0-3) and sampled ones (pick a seed).  Under base mode "all"
    each free atom is its own universal closure; under "any:x" every
    valuation variable names x's individual."""
    if pick < 4:
        h = list(enumerate_assignments(("p", "q"), world))[pick]
    else:
        h = list(enumerate_assignments(("p", "q"), world, "sampled", seed=pick, count=1,
                                       size_bound=2))[0]
    xi = default_binding(h.world)
    classical = {
        None: tarski_eval(universal_atoms(f), model(h.world), None, h.truths()),
        "x": tarski_eval(f, model(h.world), dict.fromkeys(xi, xi["x"]), h.truths()),
    }
    for policy in POLICIES:
        for any_variable, expected in classical.items():
            try:
                got = is_true(eval_fo(f, h.world, h, policy, any_variable))
            except ValueError as error:
                assert BUDGET.search(str(error)), error
                continue
            assert got is expected, (policy, any_variable)
