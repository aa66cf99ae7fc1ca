"""Small worlds and logical truth for monadic formulas.

`eval_fo` and `default_binding` live in `propsem`, beside `eval_prop`,
and are re-exported here; `propsem` states the induction, the
valuation of free individual variables and the program it compiles.

`enumerate_worlds` counts every small world over a vocabulary, refusing
too many, and then streams them: each world is built as an iteration
reaches it.  It returns a `propsem.Enumeration`, as
`enumerate_assignments` does.  `logical_truth` checks a closed formula
in each of them: it compiles the formula once per domain, as the worlds
come in domain order, and runs the program at each world and assignment
with a computed table of its own (see `propsem`).  It stops at the first
falsifying world and assignment, building no world and drawing no
assignment after them, and otherwise reports the counted total.  The
falsifying assignment, if any, carries the world it is grounded in.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .meanings import is_true
from .ontology import World, constant_name
from .propsem import (
    Enumeration,
    PropAssignment,
    compile_program,
    default_binding,
    enumerate_assignments,
    eval_fo,
    run,
)
from .syntax import Formula, PredApp, PropVar, free_variables, subformulas

__all__ = [
    "FoVerdict",
    "default_binding",
    "enumerate_worlds",
    "eval_fo",
    "logical_truth",
    "world_vocabulary",
]


# ---------------------------------------------------------------------------
# logical truth over finite worlds

def world_vocabulary(f: Formula) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The predicates (S when f has none) and propositional variables,
    each sorted, of the worlds f is checked in."""
    preds, pvars = set(), set()
    for g in subformulas(f):  # one walk for both
        if isinstance(g, PredApp):
            preds.add(g.predicate)
        elif isinstance(g, PropVar):
            pvars.add(g.name)
    return tuple(sorted(preds)) or ("S",), tuple(sorted(pvars))


@dataclass
class FoVerdict:
    kind: str  # logical_truth | falsifiable
    worlds_checked: int  # up to the falsifying one, if any
    witness_assignment: PropAssignment | None = None


# Most worlds enumerate_worlds admits.  The acceptance sweeps need at
# most 20 per vocabulary, and `pm fo-valid` by default 2^k + 4^k + 8^k
# for a formula with k predicates: 584 for three.
MAX_WORLDS = 2**16


def enumerate_worlds(
    predicate_names,
    prop_vars,
    max_individuals: int = 3,
) -> Enumeration:
    """Every world over the given predicates, up to max_individuals.

    Domains {a}, {a, b}, ... and every subset of facts, smaller and
    lexicographically earlier subsets first.  Constants carrying the
    propositional variables are declared true; assignment sweeps vary
    their values, so world enumeration does not.  There are
    sum(2^(k*n) for n in 1..max_individuals) worlds over k predicates,
    counted first: more than MAX_WORLDS raises ValueError before any is
    built.  Then they are streamed, each built as it is reached.
    """
    preds = tuple(sorted(set(predicate_names)))
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
    return Enumeration(total, partial(_worlds, preds, constants, max_individuals))


def _worlds(predicates, constants, max_individuals: int):
    letters = [chr(ord("a") + i) for i in range(max_individuals)]
    for n in range(1, max_individuals + 1):
        individuals = tuple(letters[:n])
        atoms = sorted((p, (ind,)) for p in predicates for ind in individuals)
        for size in range(len(atoms) + 1):
            for chosen in itertools.combinations(atoms, size):
                yield World(
                    individuals=individuals,
                    predicates=predicates,
                    facts=frozenset(chosen),
                    constants=constants,
                )


def logical_truth(
    f: Formula,
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
    preds, pvars = world_vocabulary(f)
    worlds = enumerate_worlds(preds, pvars, max_individuals)
    program = domain = None
    for checked, w in enumerate(worlds, 1):
        if program is None or w.individuals != domain:
            program, domain = compile_program([f], pvars, w), w.individuals
        for h in enumerate_assignments(pvars, w, mode, seed=seed, count=count,
                                       size_bound=size_bound):
            if not is_true(run(program, h.values, w, policy, {})[program.roots[0]]):
                return FoVerdict(kind="falsifiable", worlds_checked=checked, witness_assignment=h)
    return FoVerdict(kind="logical_truth", worlds_checked=len(worlds))
