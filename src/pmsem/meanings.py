"""Meanings: non-empty sets of non-empty sets of tagged pairs.

A Meaning is the denotation of a formula over a world of complexes: a
finite family of members, each member a finite non-empty set of Pairs.
A Meaning is true exactly when some member is all-diagonal.

Canonical member order sorts all-diagonal members first and then by
content.  Everything that needs a deterministic reading of a Meaning
(printing, member-wise union) goes through that order.

`transversals` builds the family of hitting sets of a family: sets
drawn from the family's union that intersect every member.  The
`minimal` policy keeps only inclusion-minimal hitting sets, found by
Berge's sequential dualization one member at a time; `full` keeps them
all, the upward closure of the minimal ones within the union.  Both
refuse work past one budget, _TRANSVERSAL_LIMIT: a `minimal` step
counts the tests and candidates it would make, and `full` counts the
subsets of the union.  A Meaning's members are already frozen and
distinct, so `transversals` takes a frozenset family as it is and
freezes and deduplicates only other iterables.  `swap_family` pushes
the tag swap through a family pointwise.  Pairs are hash-consed in
`ontology` and each holds its swap, so negation builds no Pair, and a
set of pairs hashes its pairs by identity, in C.

Meanings are hash-consed through `hashcons`, keyed by the member
family.  The tables that cache the cores belong to an evaluation (see
`propsem`).  `is_true` caches its answer, a bool, on the Meaning
itself, so each live Meaning is scanned once.
"""
from __future__ import annotations

from dataclasses import dataclass

from .hashcons import HashConsed, record
from .ontology import Pair, World, existing_complexes, pair_key

POLICIES = ("minimal", "full")

_TRANSVERSAL_LIMIT = 2**18
_live: dict = {}  # member family -> weak reference to its one live Meaning


@dataclass(frozen=True, eq=False, init=False)
class Meaning(HashConsed):
    # No __len__ or __bool__: a Meaning is never falsy, which the
    # computed table's `get(key) or ...` in `propsem` relies on.
    members: frozenset[frozenset[Pair]]

    _truth = None  # set by is_true; not a field, so repr ignores it

    def __new__(cls, members):
        ref = _live.get(members)
        m = ref and ref()
        if m is None:
            if not members:
                raise ValueError("a Meaning needs at least one member")
            if not all(members):
                raise ValueError("Meaning members must be non-empty")
            m = object.__new__(cls)
            object.__setattr__(m, "members", members)
            record(_live, members, m)
        return m


def meaning(*members) -> Meaning:
    """Convenience constructor from iterables of Pairs."""
    return Meaning(frozenset(frozenset(m) for m in members))


def member_key(member: frozenset[Pair]) -> tuple:
    diag = all(p.diagonal for p in member)
    return (0 if diag else 1, tuple(sorted(pair_key(p) for p in member)))


def sorted_members(m: Meaning) -> list[frozenset[Pair]]:
    return sorted(m.members, key=member_key)


def is_true(m: Meaning) -> bool:
    """True exactly when some member consists of diagonal pairs only;
    the answer is cached on m, which is immutable."""
    truth = m._truth
    if truth is None:
        truth = any(all(p.diagonal for p in member) for member in m.members)
        object.__setattr__(m, "_truth", truth)
    return truth


def render_meaning(m: Meaning) -> str:
    rendered = []
    for member in sorted_members(m):
        inner = ", ".join(p.render() for p in sorted(member, key=pair_key))
        rendered.append("{" + inner + "}")
    return "{" + ", ".join(rendered) + "}"


def meaning_in_world(m: Meaning, w: World) -> bool:
    """Do all base complexes of m exist in w?"""
    existing = existing_complexes(w)
    return all(p.base in existing for member in m.members for p in member)


# ---------------------------------------------------------------------------
# family operations

def transversals(family, policy: str = "minimal") -> frozenset[frozenset[Pair]]:
    """Hitting sets of the family, drawn from its union.

    minimal: inclusion-minimal hitting sets only.
    full: every subset of the union that meets each member, that is the
    upward closure of the minimal ones within the union.

    Either policy raises ValueError rather than do more than
    _TRANSVERSAL_LIMIT units of work: a `minimal` step counts the tests
    and candidates it would make, `full` counts the subsets of the union.

    A frozenset family, such as a Meaning's members, must hold
    frozensets and is taken as it is; any other iterable is frozen
    member by member and deduplicated, keeping its order.
    """
    if not isinstance(family, frozenset):
        family = dict.fromkeys(frozenset(m) for m in family)
    members = sorted(family, key=len)
    if not members:
        raise ValueError("transversal of an empty family")
    if not members[0]:
        raise ValueError("transversal family has an empty member")
    if policy == "minimal":
        return frozenset(_minimal_transversals(members))
    if policy == "full":
        union = frozenset().union(*members)
        if 2 ** len(union) > _TRANSVERSAL_LIMIT:
            raise ValueError(f"full transversal family over {len(union)} pairs is too large")
        out = set(_minimal_transversals(members))
        for single in _singletons(union):
            out |= {t | single for t in out if single.isdisjoint(t)}
        return frozenset(out)
    raise ValueError(f"unknown policy {policy!r}")


def _minimal_transversals(members: list[frozenset[Pair]]) -> list[frozenset[Pair]]:
    """Berge's sequential dualization over members sorted by size.

    The partial transversals of the members seen so far are an antichain.
    A new member m keeps those that meet it (hits) and grows each one
    that misses it by one pair of m.  A grown set t | {b} contains no
    other grown set and lies in no hit, so it is minimal unless it
    contains a hit, and any such hit contains b.

    A step counts its work before doing it: one unit per partial
    transversal and pair b of m (a test that files the hits holding b,
    or the candidate a miss grows into), then one subset test per miss
    and hit holding b.  Past _TRANSVERSAL_LIMIT it refuses.
    """
    first, *rest = members
    partial = _singletons(first)
    for m in rest:
        hits, misses = [], []
        for t in partial:
            (misses if m.isdisjoint(t) else hits).append(t)
        if not misses:
            continue
        _within_budget(len(partial) * len(m), members)
        blocked = [(single, [h for h in hits if not single.isdisjoint(h)])
                   for single in _singletons(m)]
        _within_budget(len(misses) * sum(len(blockers) for _, blockers in blocked), members)
        partial = hits.copy()
        for single, blockers in blocked:
            for t in misses:
                grown = t | single
                if not any(h <= grown for h in blockers):
                    partial.append(grown)
    return partial


def _within_budget(work: int, members: list[frozenset[Pair]]) -> None:
    if work > _TRANSVERSAL_LIMIT:
        raise ValueError(
            f"minimal transversal of {len(members)} members needs more than "
            f"{_TRANSVERSAL_LIMIT} choice sets"
        )


def _singletons(m: frozenset[Pair]) -> list[frozenset[Pair]]:
    # A one-pair set is its own singleton; reusing it saves building a frozenset.
    return [m] if len(m) == 1 else [frozenset((b,)) for b in m]


def swap_family(family) -> frozenset[frozenset[Pair]]:
    """Apply the tag swap to every pair of every set in the family."""
    return frozenset(frozenset(p.swapped for p in m) for m in family)


# ---------------------------------------------------------------------------
# connective cores shared by the propositional and quantified evaluators

def disjoin(first: Meaning, *rest: Meaning) -> Meaning:
    """Meaning of the disjunction of one or more Meanings: the union of
    their families."""
    members = first.members
    for m in rest:
        members = members | m.members
    return Meaning(members)


def negate(m: Meaning, policy: str = "minimal") -> Meaning:
    """Meaning of the negation of m.

    A single-member family maps each pair of its member to a swapped
    singleton; a larger family takes the swap of its hitting sets.
    """
    members = m.members
    if len(members) == 1:
        (only,) = members
        return Meaning(frozenset(frozenset({p.swapped}) for p in only))
    return Meaning(swap_family(transversals(members, policy)))


# ---------------------------------------------------------------------------
# member-wise union

def memberwise_union(meanings) -> Meaning:
    """Union of corresponding members under the canonical order.

    The k-th members in canonical order are unioned; a shorter family
    repeats its last member, so any non-empty list of meanings merges.
    """
    sorted_families = [sorted_members(m) for m in meanings]
    if not sorted_families:
        raise ValueError("member-wise union of no meanings")
    width = max(map(len, sorted_families))
    merged = []
    for k in range(width):
        bucket: set[Pair] = set()
        for fam in sorted_families:
            bucket.update(fam[min(k, len(fam) - 1)])
        merged.append(frozenset(bucket))
    return Meaning(frozenset(merged))


# ---------------------------------------------------------------------------
# atoms

def atom_meaning(w: World, relation: str, args: tuple[str, ...] = ()) -> Meaning:
    """Meaning of an atomic assertion in w.

    When the fact holds the existing positive complex appears diagonal;
    when it fails the existing negative complex appears flipped.  Either
    way the result is a single singleton member.
    """
    c = w.existing(relation, args)
    return meaning({Pair(c, c.positive)})
