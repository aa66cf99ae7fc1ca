"""The classical referee: Tarskian satisfaction over finite models.

`tarski_eval` decides a formula by boolean recursion and, over a finite
model, quantification; `truth_table_eval` is its model-free case.  This
module imports nothing from the package but `syntax`, so it shares only
the AST with the meaning evaluators it referees.  Its one recursion,
`satisfies`, decides a block of points at once (Knuth, TAOCP 4A,
7.1.3): a truth is a mask, an int whose bit k is the truth at the k-th
point of the block, so ~, v, (x) and (Ex) are ^ with the all-points
mask, |, & and |.  A block shares one domain; the points differ in
their facts and their valuation, which map each fact and each variable
to the mask of the points where it holds.  `tarski_eval` is the block
of one point.  `satisfies` records each (subformula, environment) mask
it decides in a table: one per `tarski_eval` call, and one per domain
in a sweep, dropped with the domain.
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
        domain, facts = model.domain, dict.fromkeys(model.facts, 1)
    return bool(satisfies(f, domain, facts, env or {}, valuation, {}, 1))


def satisfies(f: Formula, domain, facts, env, valuation, table, full) -> int:
    """The mask of the points of a block where f holds under env, by the
    satisfaction clauses over their domain (None: no model).  facts and
    valuation map each fact (predicate, (individual,)) and each
    propositional variable to the mask of the points where it holds (a
    fact missing from facts holds at none), and full is the mask of all
    the points.  table records each (subformula, environment) mask,
    under the formula alone at the empty environment; a ValueError
    records none.  A point reaches a disjunct or an instance only where
    the ones before it leave its truth open, so one that raises is
    decided again at those points alone (`_reached`): it raises if one
    of them reaches the error, as `tarski_eval` at that point would."""
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
        truth = full ^ satisfies(f.operand, domain, facts, env, valuation, table, full)
    elif isinstance(f, Or):
        truth = satisfies(f.left, domain, facts, env, valuation, table, full)
        if truth != full:
            try:
                truth |= satisfies(f.right, domain, facts, env, valuation, table, full)
            except ValueError:
                truth |= _reached(f.right, domain, facts, env, valuation, full & ~truth)
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
        for d in domain:
            instance = {**env, f.variable: d}
            try:
                truth &= satisfies(f.body, domain, facts, instance, valuation, table, full)
            except ValueError:
                truth &= _reached(f.body, domain, facts, instance, valuation, truth)
            if not truth:
                break
    elif isinstance(f, Exists):
        truth = 0
        for d in domain:
            instance = {**env, f.variable: d}
            try:
                truth |= satisfies(f.body, domain, facts, instance, valuation, table, full)
            except ValueError:
                truth |= _reached(f.body, domain, facts, instance, valuation, full & ~truth)
            if truth == full:
                break
    else:
        raise TypeError(f"not a formula: {f!r}")
    table[key] = truth
    return truth


def _reached(f, domain, facts, env, valuation, points) -> int:
    """The mask of the points (a mask) where f holds, deciding f at those
    points only: facts and valuation cut down to them, and a table of
    its own, as its masks hold no other point."""
    if facts is not None:
        facts = {fact: mask & points for fact, mask in facts.items()}
    if valuation is not None:
        valuation = {name: mask & points for name, mask in valuation.items()}
    return satisfies(f, domain, facts, env, valuation, {}, points)
