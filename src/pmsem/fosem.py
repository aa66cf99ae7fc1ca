"""Quantified evaluation of monadic formulas into Meanings.

A Binding fixes the world, an ordered pool of individual variables,
and a valuation xi of pool variables onto individuals (onto: every
individual is some variable's value; by default one variable per
individual).

Evaluation runs one unified induction:

  * propositional variables come from the propositional assignment;
  * a predicate application whose variable was bound by an enclosing
    quantifier takes the atom meaning at that variable's individual;
  * a free predicate application takes, under base mode "all", the
    member-wise union of its atom meanings across the whole pool, and
    under base mode "any" the atom meaning at one designated variable;
  * disjunction and negation run the propositional cores on the
    computed Meanings;
  * (x)q merges the instance meanings of q at every pool variable
    member by member; (Ex)q pools all members of all instances into
    one family.

The universal merge (`memberwise_union`) uses the canonical member
order (all-diagonal members first) and repeats a shorter family's last
member when counts differ, which keeps the merge total and makes its
truth value exactly the conjunction of the instance truth values; the
existential family union is exactly the disjunction.

Memos.  Evaluation builds each subformula's Meaning once per
environment and keeps it in a memo: one table per environment (the
tuple of variable -> individual entries the enclosing quantifiers
set), keyed by subformula.  A Binding whose `memo` is set carries that
memo across calls made with the assignment it was made for: the
agreement sweep (`oracle.check_equivalence`) sets one for each world
and assignment, evaluates every formula there, and drops it.  Other
callers (`logical_truth`, the CLI) pass a plain Binding, and each call
then keeps its own memo for the one formula it evaluates; it serves the
quantifier instances that repeat when pool variables share an
individual (the pool has at least three variables).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .meanings import (
    Meaning,
    Memo,
    atom_meaning,
    disjoin,
    is_true,
    memberwise_union,
    negate,
)
from .ontology import World
from .propsem import PropAssignment, constant_name, enumerate_assignments
from .syntax import (
    IND_LETTERS,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    PredApp,
    PropVar,
    free_variables,
    predicates,
    prop_variables,
    variable_names,
)

__all__ = [
    "Binding",
    "FoVerdict",
    "default_binding",
    "enumerate_worlds",
    "eval_fo",
    "logical_truth",
]


@dataclass
class Binding:
    """World, variable pool, and pool valuation for quantified evaluation."""

    world: World
    pool: tuple[str, ...]
    xi: dict[str, str]
    # Set by the sweep that owns this point; never copied by replace().
    memo: Memo | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pool:
            raise ValueError("binding pool is empty")
        for v in self.pool:
            if v not in self.xi:
                raise ValueError(f"pool variable {v} has no value")
        individuals = set(self.world.individuals)
        for v, ind in self.xi.items():
            if ind not in individuals:
                raise ValueError(f"{v} is bound to unknown individual {ind}")
        if individuals - {self.xi[v] for v in self.pool}:
            raise ValueError("pool valuation must cover every individual")


def default_binding(world: World, min_pool: int = 3) -> Binding:
    """One pool variable per individual (x, y, z, x1, ...), in name order."""
    individuals = sorted(world.individuals)
    if not individuals:
        raise ValueError("world has no individuals")
    names = variable_names(IND_LETTERS, max(len(individuals), min_pool))
    xi = {v: individuals[i % len(individuals)] for i, v in enumerate(names)}
    return Binding(world=world, pool=names, xi=xi)


def eval_fo(
    f: Formula,
    binding: Binding,
    assignment: PropAssignment | None = None,
    policy: str = "minimal",
    base_mode: str = "all",
    any_variable: str | None = None,
) -> Meaning:
    """Meaning of a monadic formula under binding and assignment."""
    if base_mode not in ("all", "any"):
        raise ValueError(f"unknown base mode {base_mode!r}")
    if base_mode == "any":
        if any_variable is None:
            raise ValueError("base mode 'any' needs a designated variable")
        if any_variable not in binding.xi:
            raise ValueError(f"designated variable {any_variable} is not in the pool valuation")
    world = binding.world
    xi = binding.xi
    pool_values = [xi[z] for z in binding.pool]
    memo = binding.memo
    if memo is not None and memo.assignment is assignment:
        tables, interned = memo.table((policy, base_mode, any_variable)), memo.interned
    else:
        tables, interned = {}, None

    def ev(g: Formula, env: dict[str, str], table: dict) -> Meaning:
        if isinstance(g, Or):
            m = disjoin(
                table.get(g.left) or ev(g.left, env, table),
                table.get(g.right) or ev(g.right, env, table),
            )
        elif isinstance(g, Not):
            m = negate(table.get(g.operand) or ev(g.operand, env, table), policy)
        elif isinstance(g, PredApp):
            if g.argument in env:
                m = atom_meaning(world, g.predicate, (env[g.argument],))
            elif g.argument not in xi:
                unbound = sorted(free_variables(f) - set(xi))
                raise ValueError(f"unbound individual variables: {unbound}")
            elif base_mode == "any":
                m = atom_meaning(world, g.predicate, (xi[any_variable],))
            else:
                m = memberwise_union([atom_meaning(world, g.predicate, (d,)) for d in pool_values])
        elif isinstance(g, PropVar):
            if assignment is None or g.name not in assignment.values:
                raise ValueError(f"assignment does not cover variable {g.name}")
            m = assignment.values[g.name]
        elif isinstance(g, (ForAll, Exists)):
            # The body's Meaning with g's variable at each pool value.
            instances = []
            for d in pool_values:
                inner = {**env, g.variable: d}
                key = tuple(inner.items())
                inner_table = tables.get(key)
                if inner_table is None:
                    inner_table = tables[key] = {}
                instances.append(inner_table.get(g.body) or ev(g.body, inner, inner_table))
            if isinstance(g, ForAll):
                m = memberwise_union(instances)
            else:
                m = Meaning(frozenset().union(*(i.members for i in instances)))
        else:
            raise TypeError(f"not a formula: {g!r}")
        if interned is not None:
            m = interned.setdefault(m, m)
        table[g] = m
        return m

    root = tables.get(())
    if root is None:
        root = tables[()] = {}
    try:
        return root.get(f) or ev(f, {}, root)
    finally:
        # ev refers to itself; emptying its cell frees the tables of a
        # throwaway memo now, not at the next cyclic garbage collection.
        del ev


# ---------------------------------------------------------------------------
# logical truth over finite worlds

@dataclass
class FoVerdict:
    kind: str  # logical_truth | falsifiable
    worlds_checked: int
    witness_world: World | None = None
    witness_assignment: PropAssignment | None = None


# Most worlds enumerate_worlds builds.  The acceptance sweeps need at
# most 20 per vocabulary, and `pm fo-valid` by default 2^k + 4^k + 8^k
# for a formula with k predicates: 584 for three.
MAX_WORLDS = 2**16


def enumerate_worlds(
    predicate_names,
    prop_vars,
    max_individuals: int = 3,
) -> list[World]:
    """Every world over the given unary relations, up to max_individuals.

    Domains {a}, {a, b}, ... and every subset of facts, smaller and
    lexicographically earlier subsets first.  Constants carrying the
    propositional variables are declared true; assignment sweeps vary
    their values, so world enumeration does not.  There are
    sum(2^(k*n) for n in 1..max_individuals) worlds over k predicates;
    more than MAX_WORLDS raises ValueError before any is built.
    """
    preds = sorted(set(predicate_names))
    if max_individuals < 1:
        raise ValueError(f"worlds need at least 1 individual, got {max_individuals}")
    total = 0
    for n in range(1, max_individuals + 1):
        total += 2 ** (len(preds) * n)
        if total > MAX_WORLDS:
            raise ValueError(
                f"more than {MAX_WORLDS} worlds over {len(preds)} predicate(s) "
                f"with up to {max_individuals} individuals"
            )
    constants = tuple((constant_name(v), True) for v in sorted(set(prop_vars)))
    letters = [chr(ord("a") + i) for i in range(max_individuals)]
    out = []
    for n in range(1, max_individuals + 1):
        individuals = tuple(letters[:n])
        atoms = sorted((p, (ind,)) for p in preds for ind in individuals)
        for size in range(len(atoms) + 1):
            for chosen in itertools.combinations(atoms, size):
                out.append(
                    World(
                        individuals=individuals,
                        relations=tuple((p, 1) for p in preds),
                        facts=frozenset(chosen),
                        constants=constants,
                    )
                )
    return out


def logical_truth(
    f: Formula,
    worlds=None,
    *,
    max_individuals: int = 3,
    policy: str = "minimal",
    mode: str = "canonical",
    seed: int | None = None,
    count: int | None = None,
    size_bound: int = 3,
) -> FoVerdict:
    """Is f true in every finite world (and assignment) swept?"""
    if free_variables(f):
        raise ValueError("logical truth needs a closed formula")
    pvars = sorted(prop_variables(f))
    if worlds is None:
        worlds = enumerate_worlds(sorted(predicates(f)) or ["S"], pvars, max_individuals)
    checked = 0
    for w in worlds:
        binding = default_binding(w)
        if pvars:
            assignments = enumerate_assignments(
                pvars, w, mode, seed=seed, count=count, size_bound=size_bound
            )
        else:
            assignments = [PropAssignment(values={}, world=w)]
        for h in assignments:
            checked += 1
            if not is_true(eval_fo(f, binding, h, policy)):
                return FoVerdict(
                    kind="falsifiable",
                    worlds_checked=checked,
                    witness_world=w,
                    witness_assignment=h,
                )
    return FoVerdict(kind="logical_truth", worlds_checked=checked)
