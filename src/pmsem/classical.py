"""The classical referee: Tarskian satisfaction over finite models.

`tarski_eval` decides a formula by boolean recursion and, over a finite
model, quantification; `truth_table_eval` is its model-free case.  This
module imports nothing from the package but `syntax`, so it shares only
the AST with the meaning evaluators it referees.  `satisfies` decides
a block of points at once by one mask recursion (Knuth, TAOCP 4A,
7.1.3): a truth is a mask, an int whose bit k is the truth at the k-th
point of the block, so ~ and v are ^ with the all-points mask and |.
The points may differ in their individuals, their facts and their
valuation: the domain maps each individual, and facts and valuation
each fact and each variable, to the mask of the points where it is
present or holds.  So (x)g is the & over the individuals d of g at d
or d absent, and (Ex)g the | of g at d and d present, and worlds of
every size share one block.  `tarski_eval` is the block of one point.
`satisfies` records each (subformula, environment) mask it decides in
a table: one per `tarski_eval` call, and one per vocabulary in a sweep,
dropped with its block.  Where a block raises, its points are decided
one at a time (see `satisfies`).
"""
from __future__ import annotations

from dataclasses import dataclass

from .syntax import Exists, ForAll, Formula, Not, Or, PredApp, PropVar

__all__ = ["TarskiModel", "satisfies", "tarski_eval", "truth_table_eval"]


def truth_table_eval(f: Formula, valuation: dict[str, bool]) -> bool:
    """Classical boolean value of a propositional formula."""
    return tarski_eval(f, None, None, valuation)


@dataclass
class TarskiModel:
    domain: tuple[str, ...]
    facts: frozenset[tuple[str, tuple[str, ...]]]
    prop_values: dict[str, bool]


def tarski_eval(
    f: Formula,
    model: TarskiModel | None = None,
    env: dict[str, str] | None = None,
    valuation: dict[str, bool] | None = None,
) -> bool:
    """Classical satisfaction over a finite model; a propositional
    formula needs no model."""
    domain = facts = None
    if model is not None:
        domain, facts = dict.fromkeys(model.domain, 1), dict.fromkeys(model.facts, 1)
    return bool(satisfies(f, domain, facts, env or {}, valuation, {}, 1))


def satisfies(f: Formula, domain, facts, env, valuation, table, full) -> int:
    """The mask of the points of a block where f holds under env, by the
    satisfaction clauses over their domains.  domain maps each
    individual, in order, to the mask of the points whose domain has it
    (None: no model), and facts and valuation map each fact (predicate,
    (individual,)) and each propositional variable to the mask of the
    points where it holds (a fact missing from facts holds at none);
    full is the mask of all the points.  table records each
    (subformula, environment) mask, under the formula alone at the empty
    environment.  A point reaches a disjunct or a quantifier instance
    only where the ones before it leave its truth open, and an instance
    only where it has the instance's individual, but a block decides
    each at all its points: so a block that raises is decided again a
    point at a time, over that point's individuals and each with a table
    of its own, and raises the first error a point raises, as
    `tarski_eval` there would, recording nothing for f."""
    try:
        return _decide(f, domain, facts, env, valuation, table, full)
    except ValueError:
        if full & (full - 1) == 0:  # a block of one point (or none)
            raise
    truth = 0
    for k in range(full.bit_length()):
        if point := full & 1 << k:
            point_domain = domain and {d: mask & point for d, mask in domain.items()}
            point_facts = facts and {fact: mask & point for fact, mask in facts.items()}
            point_values = valuation and {name: mask & point for name, mask in valuation.items()}
            truth |= _decide(f, point_domain, point_facts, env, point_values, {}, point)
    table[(f, tuple(env.items())) if env else f] = truth
    return truth


def _decide(f: Formula, domain, facts, env, valuation, table, full) -> int:
    """The mask recursion of `satisfies`, which decides every disjunct,
    and every instance whose individual some point has, at every point
    of the block."""
    key = (f, tuple(env.items())) if env else f
    truth = table.get(key)
    if truth is not None:  # a recorded 0 is a hit too
        return truth
    if isinstance(f, PropVar):
        try:
            truth = valuation[f.name]
        except (KeyError, TypeError):  # TypeError: no valuation at all
            raise ValueError(f"no truth value for propositional variable {f.name}") from None
    elif isinstance(f, Not):
        truth = full ^ _decide(f.operand, domain, facts, env, valuation, table, full)
    elif isinstance(f, Or):
        truth = _decide(f.left, domain, facts, env, valuation, table, full)
        if truth != full:
            truth |= _decide(f.right, domain, facts, env, valuation, table, full)
    elif isinstance(f, PredApp):
        if f.argument not in env:
            raise ValueError(f"unbound individual variable {f.argument}")
        try:
            truth = facts.get((f.predicate, (env[f.argument],)), 0)
        except AttributeError:  # no facts: no model at all
            raise ValueError("predicate applications need a model") from None
    elif domain is None:
        raise ValueError("quantified formulas need a model")
    # Loops, not generators: a closure would give every call, the
    # propositional ones included, cell variables to set up.
    elif isinstance(f, ForAll):
        truth = full
        for d, present in domain.items():
            if present:  # an individual no point has is reached by none
                truth &= full ^ present | _decide(f.body, domain, facts, {**env, f.variable: d},
                                                  valuation, table, full)
                if not truth:
                    break
    elif isinstance(f, Exists):
        truth = 0
        for d, present in domain.items():
            if present:
                truth |= present & _decide(f.body, domain, facts, {**env, f.variable: d},
                                           valuation, table, full)
                if truth == full:
                    break
    else:
        raise TypeError(f"not a formula: {f!r}")
    table[key] = truth
    return truth
