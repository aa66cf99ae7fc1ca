"""Meaning families and the operations the connectives are built from."""
import copy
import dataclasses
import gc
import itertools
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pmsem.meanings as meanings
import pmsem.ontology as ontology
from pmsem.meanings import (
    Meaning,
    atom_meaning,
    disjoin,
    is_true,
    meaning,
    meaning_in_world,
    memberwise_union,
    negate,
    render_meaning,
    sorted_members,
    swap_family,
    transversals,
)
from pmsem.ontology import Complex, Pair, World, pair_key

A = Pair(Complex("S", ("a",), True), True)
B = Pair(Complex("S", ("b",), False), False)
C = Pair(Complex("P", (), True), True)


def w_two():
    return World(
        individuals=("a", "b"),
        predicates=("S",),
        facts=frozenset({("S", ("a",))}),
    )


# ---------------------------------------------------------------------------
# construction invariants

def test_meaning_rejects_empty_family():
    with pytest.raises(ValueError, match="a Meaning needs at least one member"):
        Meaning(frozenset())
    assert frozenset() not in meanings._live


def test_meaning_rejects_empty_member():
    with pytest.raises(ValueError, match="Meaning members must be non-empty"):
        meaning(set())
    with pytest.raises(ValueError, match="Meaning members must be non-empty"):
        meaning({A}, set())
    assert frozenset({frozenset({A}), frozenset()}) not in meanings._live


def test_meaning_is_hashable_and_comparable():
    assert meaning({A}) == meaning({A})
    assert hash(meaning({A})) == hash(meaning({A}))


# ---------------------------------------------------------------------------
# truth and ordering

def test_all_diagonal_singleton_is_true():
    assert is_true(meaning({A}))


def test_flipped_singleton_is_false():
    assert not is_true(meaning({B}))


def test_one_diagonal_member_suffices():
    m = meaning({B, Pair(Complex("Q", (), False), True)}, {Pair(Complex("Q", (), False), True)})
    assert is_true(m)


def test_diagonal_members_sort_first():
    m = meaning({B}, {A})
    first, second = sorted_members(m)
    assert all(p.diagonal for p in first)
    assert not all(p.diagonal for p in second)


def test_render_uses_sorted_order():
    m = meaning({B}, {A})
    assert render_meaning(m) == "{{<S(a)+,=>}, {<S(b)-,0>}}"


def test_meaning_in_world_checks_bases():
    assert meaning_in_world(meaning({A}), w_two())
    other = meaning({Pair(Complex("S", ("b",), True), True)})
    assert not meaning_in_world(other, w_two())


# ---------------------------------------------------------------------------
# transversals

def test_transversal_of_singleton_family():
    fam = frozenset({frozenset({A})})
    for policy in ("minimal", "full"):
        assert transversals(fam, policy) == fam


def test_transversal_of_two_singletons():
    fam = frozenset({frozenset({A}), frozenset({B})})
    expected = frozenset({frozenset({A, B})})
    for policy in ("minimal", "full"):
        assert transversals(fam, policy) == expected


def test_transversal_of_one_doubleton():
    fam = frozenset({frozenset({A, B})})
    assert transversals(fam, "minimal") == frozenset({frozenset({A}), frozenset({B})})
    assert transversals(fam, "full") == frozenset(
        {frozenset({A}), frozenset({B}), frozenset({A, B})}
    )


def test_transversal_rejects_unknown_policy():
    with pytest.raises(ValueError):
        transversals(frozenset({frozenset({A})}), "median")


NINETEEN = frozenset(Pair(Complex("S", (f"a{i}",), True), True) for i in range(19))


@pytest.mark.parametrize("family, policy, message", [
    ([], "minimal", "transversal of an empty family"),
    ([frozenset()], "minimal", "transversal family has an empty member"),
    ([NINETEEN], "full", "full transversal family over 19 pairs is too large"),
], ids=["empty-family", "empty-member", "full-over-19-pairs"])
def test_transversal_refusals(family, policy, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        transversals(family, policy)


def test_minimal_transversals_are_inclusion_minimal():
    fam = frozenset({frozenset({A, B}), frozenset({A, C})})
    out = transversals(fam, "minimal")
    for s in out:
        for t in out:
            assert not (t < s)


def test_full_contains_minimal():
    fam = frozenset({frozenset({A, B}), frozenset({B, C})})
    assert transversals(fam, "minimal") <= transversals(fam, "full")


def test_every_transversal_hits_every_member():
    fam = frozenset({frozenset({A, B}), frozenset({B, C}), frozenset({A, C})})
    for policy in ("minimal", "full"):
        for t in transversals(fam, policy):
            assert all(t & m for m in fam)


def test_minimal_transversal_budget():
    # 19 disjoint members of two pairs: 2^19 choice sets, past the budget.
    fam = [
        frozenset({Pair(Complex("S", (f"a{i}",), True), d) for d in (True, False)})
        for i in range(19)
    ]
    with pytest.raises(ValueError, match="choice sets"):
        transversals(fam, "minimal")


def test_minimal_transversal_budget_counts_subset_tests():
    # 17 disjoint two-pair members, then a three-pair member holding one
    # pair of a1's member: its step builds only 2^18 sets, but each of the
    # 2^16 sets that miss it would be tested against the 2^16 that hold
    # that pair.
    def pair(name, diagonal=True):
        return Pair(Complex("S", (name,), True), diagonal)

    fam = [frozenset({pair(f"a{i}"), pair(f"a{i}", False)}) for i in range(17)]
    fam.append(frozenset({pair("a1"), pair("c"), pair("d")}))
    with pytest.raises(ValueError, match="choice sets"):
        transversals(fam, "minimal")


def brute_force_transversals(family, policy):
    """Reference: minimal keeps the inclusion-minimal choice sets of one
    pair per member; full keeps every subset of the union that meets
    each member."""
    members = [frozenset(m) for m in family]
    if policy == "minimal":
        candidates = {frozenset(choice) for choice in itertools.product(*members)}
        return frozenset(c for c in candidates if not any(other < c for other in candidates))
    union = sorted(frozenset().union(*members), key=pair_key)
    return frozenset(
        frozenset(subset)
        for size in range(1, len(union) + 1)
        for subset in itertools.combinations(union, size)
        if all(set(subset) & m for m in members)
    )


_EIGHT_PAIRS = [
    Pair(base, diagonal)
    for base in (A.base, B.base, C.base, Complex("Q", (), False))
    for diagonal in (True, False)
]


@given(
    st.lists(
        # at most 4 pairs a member keeps the reference's product small
        st.sets(st.sampled_from(_EIGHT_PAIRS), min_size=1, max_size=4).map(frozenset),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=300)
def test_transversals_match_the_brute_force(family):
    for policy in ("minimal", "full"):
        assert transversals(family, policy) == brute_force_transversals(family, policy)


@given(
    st.sets(
        st.sets(st.sampled_from(_EIGHT_PAIRS[:6]), min_size=1).map(frozenset),
        min_size=1,
        max_size=4,
    ).map(frozenset),
    st.sampled_from(("minimal", "full")),
    st.sampled_from((meanings._TRANSVERSAL_LIMIT, 24, 8)),
    st.data(),
)
@settings(max_examples=300)
def test_a_frozenset_family_is_taken_as_it_is(family, policy, limit, data):
    """A frozenset family of frozensets, taken as it is, gives what its
    members as a list of sets, repeats included, give: the same
    transversals or, past a lowered budget, the same refusal.  The
    budget of a `minimal` step depends on the order of members of one
    size, so the list keeps the family's order, each repeat after its
    first copy."""
    members = list(family)
    listed = []
    for k, m in enumerate(members):
        repeats = data.draw(st.lists(st.integers(0, k), max_size=2), label=f"repeats after {k}")
        listed += [set(m)] + [set(members[j]) for j in repeats]

    def outcome(fam):
        try:
            return transversals(fam, policy)
        except ValueError as refusal:
            return str(refusal)

    with mock.patch.object(meanings, "_TRANSVERSAL_LIMIT", limit):
        assert outcome(family) == outcome(listed)


# ---------------------------------------------------------------------------
# swap family

def test_swap_family_pointwise():
    fam = frozenset({frozenset({A})})
    out = swap_family(fam)
    assert out == frozenset({frozenset({Pair(A.base, False)})})


def test_swap_family_mixed_member():
    d = Pair(Complex("c", (), True), True)
    f = Pair(Complex("d", (), True), False)
    fam = frozenset({frozenset({d, f})})
    (member,) = swap_family(fam)
    assert member == frozenset({Pair(d.base, False), Pair(f.base, True)})


@given(
    st.sets(
        st.sets(
            st.builds(
                Pair,
                base=st.builds(
                    Complex,
                    relation=st.sampled_from(["S", "P"]),
                    args=st.sampled_from([(), ("a",)]),
                    positive=st.booleans(),
                ),
                diagonal=st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ).map(frozenset),
        min_size=1,
        max_size=3,
    ).map(frozenset)
)
def test_swap_family_is_an_involution(fam):
    assert swap_family(swap_family(fam)) == fam


# ---------------------------------------------------------------------------
# connective cores

def test_disjoin_unions_members():
    assert disjoin(meaning({A}), meaning({B})) == meaning({A}, {B})


def test_negate_singleton_member_swaps_pointwise():
    m = meaning({A, B})
    assert negate(m) == meaning({Pair(A.base, False)}, {Pair(B.base, True)})


def test_negate_multi_member_swaps_transversals():
    m = meaning({A}, {B})
    assert negate(m) == meaning({Pair(A.base, False), Pair(B.base, True)})


@pytest.mark.parametrize("policy", ["minimal", "full"])
@pytest.mark.parametrize("m", [meaning({A}, {B, C}), meaning({A, B, C})])
def test_negate_builds_no_pair(monkeypatch, policy, m):
    """Negation reads each pair's swap; it never constructs a Pair."""
    built = []
    new = ontology.Pair.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ontology.Pair, "__new__", staticmethod(counting_new))
    assert negate(m, policy) is not m
    assert built == []


def test_negate_full_policy_keeps_truth():
    m = meaning({A}, {B, C})
    for policy in ("minimal", "full"):
        assert is_true(negate(m, policy)) == (not is_true(m))


_small_meanings = st.sets(
    st.sets(st.sampled_from([A, B, C]), min_size=1, max_size=3).map(frozenset),
    min_size=1,
    max_size=3,
).map(lambda ms: Meaning(frozenset(ms)))


@given(_small_meanings)
@settings(max_examples=200)
def test_negation_flips_truth_under_both_policies(m):
    for policy in ("minimal", "full"):
        assert is_true(negate(m, policy)) == (not is_true(m))


@given(_small_meanings)
@settings(max_examples=200)
def test_double_negation_preserves_truth(m):
    for policy in ("minimal", "full"):
        assert is_true(negate(negate(m, policy), policy)) == is_true(m)


@given(_small_meanings, _small_meanings)
def test_disjunction_truth_is_classical(m1, m2):
    assert is_true(disjoin(m1, m2)) == (is_true(m1) or is_true(m2))


@given(_small_meanings)
def test_cached_truth_is_invisible(m):
    """A Meaning whose truth was read prints and converts as its members
    alone, is still the Meaning an equal family gives, and keeps
    answering the same."""
    truth = is_true(m)
    assert repr(m) == f"Meaning(members={m.members!r})"
    assert dataclasses.asdict(m) == {"members": m.members}
    assert Meaning(frozenset(m.members)) is m
    assert is_true(m) is truth is is_true(meaning(*m.members))


# ---------------------------------------------------------------------------
# member-wise union

def test_memberwise_union_of_singletons():
    d1 = meaning({Pair(Complex("S", ("a",), True), True)})
    d2 = meaning({Pair(Complex("S", ("b",), True), True)})
    assert memberwise_union([d1, d2]) == meaning(
        {Pair(Complex("S", ("a",), True), True), Pair(Complex("S", ("b",), True), True)}
    )


def test_memberwise_union_mixed_tags():
    d1 = meaning({Pair(Complex("S", ("a",), True), True)})
    d2 = meaning({Pair(Complex("S", ("b",), False), False)})
    assert memberwise_union([d1, d2]) == meaning(
        {
            Pair(Complex("S", ("a",), True), True),
            Pair(Complex("S", ("b",), False), False),
        }
    )


def test_memberwise_union_identity_on_one_input():
    m = meaning({A}, {B})
    assert memberwise_union([m]) == m


def test_memberwise_union_pads_short_families():
    m = memberwise_union([meaning({A}), meaning({B}, {C})])
    assert len(m.members) == 2


def test_memberwise_union_rejects_empty_sequence():
    with pytest.raises(ValueError):
        memberwise_union([])


@given(_small_meanings, _small_meanings)
def test_memberwise_union_is_commutative(m1, m2):
    if len(m1.members) != len(m2.members):
        return
    assert memberwise_union([m1, m2]) == memberwise_union([m2, m1])


# ---------------------------------------------------------------------------
# atoms

def test_atom_for_holding_fact():
    m = atom_meaning(w_two(), "S", ("a",))
    assert m == meaning({Pair(Complex("S", ("a",), True), True)})
    assert is_true(m)


def test_atom_for_failing_fact():
    m = atom_meaning(w_two(), "S", ("b",))
    assert m == meaning({Pair(Complex("S", ("b",), False), False)})
    assert not is_true(m)


def test_atom_for_false_constant():
    w = World(constants=(("P", False),))
    m = atom_meaning(w, "P")
    assert m == meaning({Pair(Complex("P", (), False), False)})
    assert not is_true(m)


def test_atom_meanings_are_grounded():
    w = w_two()
    assert meaning_in_world(atom_meaning(w, "S", ("a",)), w)
    assert meaning_in_world(atom_meaning(w, "S", ("b",)), w)


# ---------------------------------------------------------------------------
# hash-consing

@given(_small_meanings)
@settings(max_examples=200)
def test_equal_families_are_one_meaning(m):
    """Any family equal to m's, built afresh or by a core, gives m
    itself, and its hash is the object's own."""
    assert Meaning(frozenset(frozenset(set(member)) for member in m.members)) is m
    assert meaning(*m.members) is m
    assert disjoin(m, m) is m
    for policy in ("minimal", "full"):
        assert negate(m, policy) is negate(meaning(*m.members), policy)
    assert hash(m) == object.__hash__(m)


def test_copies_and_pickles_are_the_meaning():
    for m in (meaning({A}), meaning({A, B}, {C})):
        assert copy.copy(m) is m
        assert copy.deepcopy(m) is m
        assert pickle.loads(pickle.dumps(m)) is m


def test_meanings_nobody_uses_are_freed():
    """The table holds its Meanings weakly: dropped Meanings leave it
    as large as before they were built."""
    gc.collect()
    before = len(meanings._live)
    built = [meaning({Pair(Complex(f"Q{i}", (), True), True)}) for i in range(500)]
    assert len(meanings._live) == before + len(built)
    del built
    gc.collect()
    assert len(meanings._live) == before
