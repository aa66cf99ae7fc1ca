"""Complexes, pairs, worlds and their file format."""
import copy
import gc
import pickle
import re

import pytest
from hypothesis import given, strategies as st

import pmsem.ontology as ontology
from pmsem.ontology import (
    Complex,
    Pair,
    World,
    WorldError,
    all_pairs,
    existing_complexes,
    opposite,
    parse_world,
    swap,
)
from test_cli import assert_usage_error


def w_one():
    return World(individuals=("a",), predicates=("S",), facts=frozenset({("S", ("a",))}))


def w_two():
    return World(
        individuals=("a", "b"),
        predicates=("S",),
        facts=frozenset({("S", ("a",))}),
    )


# ---------------------------------------------------------------------------
# complexes

def test_opposite_flips_polarity():
    c = Complex("S", ("a",), True)
    assert opposite(c) == Complex("S", ("a",), False)
    assert opposite(opposite(c)) == c


def test_opposite_on_negative():
    c = Complex("S", ("a",), False)
    assert opposite(c).positive


def test_render_complex():
    assert Complex("S", ("a",), True).render() == "S(a)+"
    assert Complex("P", (), False).render() == "P-"


_complexes = st.builds(
    Complex,
    relation=st.sampled_from(["S", "R", "P"]),
    args=st.sampled_from([(), ("a",), ("a", "b")]),
    positive=st.booleans(),
)


@given(_complexes)
def test_opposite_is_an_involution(c):
    assert opposite(opposite(c)) == c
    assert opposite(c) != c


# ---------------------------------------------------------------------------
# pairs

def test_swap_toggles_tag():
    c = Complex("S", ("a",), True)
    assert swap(Pair(c, True)) == Pair(c, False)
    assert swap(Pair(c, False)) == Pair(c, True)


@given(_complexes, st.booleans())
def test_swap_is_an_involution(c, diag):
    pr = Pair(c, diag)
    assert swap(swap(pr)) == pr
    assert swap(pr) != pr


def test_render_pair():
    c = Complex("S", ("a",), True)
    assert Pair(c, True).render() == "<S(a)+,=>"
    assert Pair(c, False).render() == "<S(a)+,0>"


# ---------------------------------------------------------------------------
# hash-consing

@given(_complexes, st.booleans())
def test_equal_pairs_are_one_object(c, diag):
    """A pair over an equal but distinct complex is the pair itself,
    its swap is the pair with the other tag, and its hash is the
    object's own."""
    twin = Complex(c.relation, tuple(list(c.args)), c.positive)
    assert twin is not c
    pr = Pair(c, diag)
    assert Pair(twin, diag) is pr
    assert swap(swap(pr)) is pr
    assert swap(pr) is Pair(pr.base, not pr.diagonal)
    assert hash(pr) == object.__hash__(pr)


def test_pair_equality_and_repr_are_its_own():
    pr = Pair(Complex("S", ("a",), True), True)
    assert Pair.__eq__ is object.__eq__
    assert Pair.__hash__ is object.__hash__
    assert repr(pr) == "Pair(base=Complex(relation='S', args=('a',), positive=True), diagonal=True)"


def test_copies_and_pickles_are_the_pair():
    for pr in (Pair(Complex("S", ("a",), True), True), Pair(Complex("P", (), False), False)):
        assert copy.copy(pr) is pr
        assert copy.deepcopy(pr) is pr
        assert pickle.loads(pickle.dumps(pr)) is pr


def test_pairs_nobody_uses_are_freed():
    """The table holds its pairs weakly: a pair and its swap hold each
    other, and the next collection frees both."""
    gc.collect()
    before = len(ontology._live)
    built = [Pair(Complex(f"Q{i}", (), True), True) for i in range(500)]
    assert len(ontology._live) == before + 2 * len(built)
    del built
    gc.collect()
    assert len(ontology._live) == before


# ---------------------------------------------------------------------------
# existing complexes

def test_single_fact_world():
    assert existing_complexes(w_one()) == frozenset({Complex("S", ("a",), True)})


def test_missing_fact_becomes_negative():
    assert existing_complexes(w_two()) == frozenset(
        {Complex("S", ("a",), True), Complex("S", ("b",), False)}
    )


def test_one_polarity_per_tuple():
    existing = existing_complexes(w_two())
    keys = {(c.relation, c.args) for c in existing}
    assert len(keys) == len(existing)


def test_constants_contribute_nullary_complexes():
    w = World(constants=(("P", True), ("Q", False)))
    assert existing_complexes(w) == frozenset(
        {Complex("P", (), True), Complex("Q", (), False)}
    )


def test_all_pairs_covers_both_tags():
    pairs = all_pairs(w_one())
    assert Pair(Complex("S", ("a",), True), True) in pairs
    assert Pair(Complex("S", ("a",), True), False) in pairs


# ---------------------------------------------------------------------------
# world construction and parsing

def test_fact_requires_declared_relation():
    with pytest.raises(WorldError):
        World(individuals=("a",), facts=frozenset({("S", ("a",))}))


def test_fact_requires_declared_individuals():
    with pytest.raises(WorldError):
        World(
            individuals=("a",),
            predicates=("S",),
            facts=frozenset({("S", ("b",))}),
        )


def test_fact_arity_must_match():
    with pytest.raises(WorldError):
        World(
            individuals=("a",),
            predicates=("S",),
            facts=frozenset({("S", ("a", "a"))}),
        )


def test_parse_world_directives():
    w = parse_world(
        """
        # a two-individual world
        individual a
        individual b
        relation S/1
        fact S(a)
        prop P true
        """
    )
    assert w.individuals == ("a", "b")
    assert w.holds("S", ("a",))
    assert not w.holds("S", ("b",))
    assert w.constant_values == {"P": True}


def test_parse_world_individual_names():
    """Individual names are one class, shared by `individual` and `fact`."""
    w = parse_world("individual a\nindividual bob2X\nrelation S/1\nfact S(bob2X)")
    assert w.individuals == ("a", "bob2X") and w.holds("S", ("bob2X",))
    for name in ("a,b", "a;", "{b}", "B", "2a"):
        with pytest.raises(WorldError, match=f"individual '{re.escape(name)}' is not"):
            parse_world(f"individual {name}")


def test_parse_world_rejects_unknown_directive():
    with pytest.raises(WorldError):
        parse_world("planet mars")


def test_parse_world_rejects_bad_fact():
    with pytest.raises(WorldError):
        parse_world("individual a\nfact S(a)")


def test_with_constants_overrides_values():
    w = World(constants=(("P", True),))
    assert w.with_constants({"P": False}).constant_values == {"P": False}


def test_with_constants_changing_nothing_is_the_world_itself():
    w = World(constants=(("P", True), ("Q", False)))
    assert w.with_constants({}) is w
    assert w.with_constants({"Q": False}) is w
    # declarations out of name order are sorted, so that is a change
    unsorted = World(constants=(("Q", False), ("P", True)))
    assert unsorted.with_constants({}) == w


@pytest.mark.parametrize("text, message", [
    ("individual a\nindividual a", ": duplicate individual a"),
    ("relation S/1\nrelation S/1", ": duplicate relation declaration"),
    ("prop P true\nprop P false", ": duplicate propositional constant"),
    ("relation P/1\nprop P true", ": name used as both relation and constant: ['P']"),
    ("individual a b", ":1: individual takes one name"),
    ("prop P maybe", ":1: expected 'prop NAME true|false'"),
])
def test_world_file_refusals(tmp_path, capsys, text, message):
    path = tmp_path / "w.txt"
    path.write_text(text + "\n")
    err = assert_usage_error(capsys, "fo-eval", "(x).S(x)", "--model", str(path))
    assert err == f"error: {path}{message}\n"


@pytest.mark.parametrize("call, message", [
    (lambda w: w.holds("Q", ()), "unknown propositional constant Q"),
    (lambda w: w.holds("S", ("c",)), "unknown individual c"),
    (lambda w: w.with_constants({"Q": True}), "unknown propositional constant Q"),
], ids=["holds-constant", "holds-individual", "with-constants"])
def test_world_refuses_unknown_names(call, message):
    with pytest.raises(WorldError, match=f"^{message}$"):
        call(w_two())
