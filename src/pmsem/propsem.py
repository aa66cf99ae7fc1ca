"""Propositional evaluation of formulas into Meanings.

An assignment h grounds propositional variables in Meanings over a
world.  Evaluation follows the connective cores: disjunction unions the
two families, negation swaps the hitting-set family (or maps a lone
member to swapped singletons).

`canonical_assignments` enumerates the 2^n classical corners: each
variable is carried by its own propositional constant (p by P, q1 by
Q1, ...) and is mapped either to the diagonal positive singleton (true)
or the flipped negative singleton (false).  Each assignment carries the
world adjusted so those complexes exist, keeping every base complex
grounded.  `sampled_assignments` draws arbitrary Meanings over the
world's existing complexes from a seeded generator.

`classify` sweeps assignments and reports tautology / contradiction /
contingent with witness assignments.

Memos.  `eval_prop` builds a formula's Meaning from the Meanings of its
subformulas, kept in a memo.  An assignment whose `memo` is set carries
that memo across calls: the agreement sweep (`oracle.check_equivalence`)
makes such an assignment for each point, evaluates every formula there,
and drops it.  Every other caller (`classify`, the CLI, the proof
checker) passes a plain assignment, and each call then evaluates the
whole tree: a memo that lives for one call costs more in hashing than
the few subformulas it could share.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .meanings import Memo, Meaning, disjoin, is_true, meaning, negate
from .ontology import Complex, Pair, World, all_pairs
from .syntax import Formula, Not, Or, PredApp, PropVar, prop_variables

__all__ = [
    "PropAssignment",
    "Verdict",
    "canonical_assignments",
    "classify",
    "constant_name",
    "declared_assignment",
    "default_world",
    "enumerate_assignments",
    "eval_prop",
    "sampled_assignments",
]


def constant_name(variable: str) -> str:
    """The propositional constant carrying a variable: p -> P, q1 -> Q1."""
    return variable.upper()


def default_world(variables) -> World:
    """A world holding one true propositional constant per variable."""
    constants = tuple((constant_name(v), True) for v in sorted(set(variables)))
    return World(constants=constants)


@dataclass
class PropAssignment:
    """Meanings for propositional variables, grounded in a world."""

    values: dict[str, Meaning]
    world: World
    # Set by the sweep that owns this point; never copied by replace().
    memo: Memo | None = field(default=None, init=False, repr=False, compare=False)

    def truths(self) -> dict[str, bool]:
        return {var: is_true(m) for var, m in self.values.items()}

    def describe(self) -> str:
        truths = self.truths()
        return ", ".join(f"{v}={'true' if truths[v] else 'false'}" for v in sorted(truths))


def eval_prop(f: Formula, h: PropAssignment, policy: str = "minimal") -> Meaning:
    """Meaning of a propositional formula under h."""
    memo = h.memo
    if memo is None:
        return _eval_prop(f, h.values, policy, None, None)
    table = memo.table(policy)
    return table.get(f) or _eval_prop(f, h.values, policy, table, memo.interned)


def _eval_prop(f, values, policy, table, interned) -> Meaning:
    """Evaluate f, reading and recording subformula Meanings in table.

    Without a table (None) every subformula is evaluated afresh.  An
    empty table and a miss are both falsy, and Meanings never are, so
    `table and table.get(g) or ...` recurses exactly when g is not
    recorded.  interned, when given, maps each Meaning to its one
    shared copy.
    """
    if isinstance(f, Or):
        left, right = f.left, f.right
        m = disjoin(
            table and table.get(left) or _eval_prop(left, values, policy, table, interned),
            table and table.get(right) or _eval_prop(right, values, policy, table, interned),
        )
    elif isinstance(f, Not):
        operand = f.operand
        m = negate(
            table and table.get(operand) or _eval_prop(operand, values, policy, table, interned),
            policy,
        )
    elif isinstance(f, PropVar):
        try:
            m = values[f.name]
        except KeyError:
            raise ValueError(f"assignment does not cover variable {f.name}") from None
    elif isinstance(f, PredApp):
        raise ValueError("eval_prop takes propositional formulas; use eval_fo for predicates")
    else:
        raise ValueError("eval_prop takes propositional formulas; use eval_fo for quantifiers")
    if table is not None:
        if interned is not None:
            m = interned.setdefault(m, m)
        table[f] = m
    return m


# ---------------------------------------------------------------------------
# assignments

def _canonical_pair(variable: str, value: bool) -> Meaning:
    c = Complex(constant_name(variable), (), value)
    return meaning({Pair(c, value)})


def canonical_assignments(variables, world: World | None = None) -> list[PropAssignment]:
    """The 2^n corner assignments, true combinations first.

    Every variable needs its carrying constant declared in the world;
    each emitted assignment is grounded in the world adjusted so the
    assigned complexes are the existing ones.
    """
    names = sorted(set(variables))
    if world is None:
        world = default_world(names)
    declared = world.constant_values
    missing = [v for v in names if constant_name(v) not in declared]
    if missing:
        raise ValueError(
            f"world lacks propositional constants for {missing} (canonical mode)"
        )
    out = []
    for bits in itertools.product((True, False), repeat=len(names)):
        values = {v: _canonical_pair(v, bit) for v, bit in zip(names, bits)}
        grounded = world.with_constants(
            {constant_name(v): bit for v, bit in zip(names, bits)}
        )
        out.append(PropAssignment(values=values, world=grounded))
    return out


def declared_assignment(variables, world: World) -> PropAssignment:
    """The single assignment given by the world's declared constant values."""
    names = sorted(set(variables))
    declared = world.constant_values
    missing = [v for v in names if constant_name(v) not in declared]
    if missing:
        raise ValueError(f"world lacks propositional constants for {missing}")
    values = {v: _canonical_pair(v, declared[constant_name(v)]) for v in names}
    return PropAssignment(values=values, world=world)


def sampled_assignments(
    variables,
    world: World,
    seed: int,
    count: int,
    size_bound: int = 3,
) -> list[PropAssignment]:
    """Pseudo-random assignments over the world's pairs; reproducible by seed."""
    if seed is None:
        raise ValueError("sampled mode needs a seed")
    if count is None or count < 1:
        raise ValueError("sampled mode needs a positive count")
    if size_bound < 1:
        raise ValueError("size bound must be at least 1")
    names = sorted(set(variables))
    pool = list(all_pairs(world))  # random.sample is slower on a tuple
    if not pool:
        raise ValueError("world has no complexes to sample from")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        values = {}
        for v in names:
            n_members = rng.randint(1, size_bound)
            members = []
            for _ in range(n_members):
                size = rng.randint(1, min(size_bound, len(pool)))
                members.append(frozenset(rng.sample(pool, size)))
            values[v] = Meaning(frozenset(members))
        out.append(PropAssignment(values=values, world=world))
    return out


def enumerate_assignments(
    variables,
    world: World | None = None,
    mode: str = "canonical",
    *,
    seed: int | None = None,
    count: int | None = None,
    size_bound: int = 3,
) -> list[PropAssignment]:
    if mode == "canonical":
        return canonical_assignments(variables, world)
    if mode == "sampled":
        if world is None:
            world = default_world(variables)
        return sampled_assignments(variables, world, seed, count, size_bound)
    raise ValueError(f"unknown assignment mode {mode!r}")


# ---------------------------------------------------------------------------
# tautology decision

@dataclass
class Verdict:
    kind: str  # tautology | contradiction | contingent
    witness_true: PropAssignment | None = None
    witness_false: PropAssignment | None = None
    assignments_checked: int = 0


def classify(
    f: Formula,
    world: World | None = None,
    mode: str = "canonical",
    policy: str = "minimal",
    *,
    seed: int | None = None,
    count: int | None = None,
    size_bound: int = 3,
) -> Verdict:
    """Sweep assignments and classify f as tautology/contradiction/contingent."""
    names = sorted(prop_variables(f))
    if world is None:
        world = default_world(names)
    assignments = enumerate_assignments(
        names, world, mode, seed=seed, count=count, size_bound=size_bound
    )
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
    return Verdict(
        kind=kind,
        witness_true=witness_true,
        witness_false=witness_false,
        assignments_checked=len(assignments),
    )
