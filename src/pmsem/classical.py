"""The classical referee: Tarskian satisfaction over finite models.

`tarski_eval` decides a formula by boolean recursion and, over a finite
model, quantification; `truth_table_eval` is its model-free case.  This
module imports nothing from the package but `syntax`, so it shares only
the AST with the meaning evaluators it referees.  Its one recursion,
`satisfies`, reads a model as a domain and facts, as a `World` holds
them, and records each (subformula, environment) truth it decides in a
table of booleans: one per `tarski_eval` call, and one per point in a
sweep, dropped with the point.
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
    domain, facts = (None, None) if model is None else (model.domain, model.facts)
    return satisfies(f, domain, facts, env or {}, valuation, {})


def satisfies(f: Formula, domain, facts, env, valuation, table) -> bool:
    """The satisfaction clauses over a domain (None: no model) and its
    facts.  table records each (subformula, environment) truth, under the
    formula alone at the empty environment; a ValueError records none."""
    key = (f, tuple(env.items())) if env else f
    truth = table.get(key)
    if truth is not None:  # a recorded False is a hit too
        return truth
    if isinstance(f, PropVar):
        try:
            truth = valuation[f.name]
        except (KeyError, TypeError):  # TypeError: no valuation at all
            raise ValueError(f"no truth value for propositional variable {f.name}") from None
    elif isinstance(f, Not):
        truth = not satisfies(f.operand, domain, facts, env, valuation, table)
    elif isinstance(f, Or):
        truth = (satisfies(f.left, domain, facts, env, valuation, table)
                 or satisfies(f.right, domain, facts, env, valuation, table))
    elif isinstance(f, PredApp):
        if f.argument not in env:
            raise ValueError(f"unbound individual variable {f.argument}")
        truth = (f.predicate, (env[f.argument],)) in facts
    elif domain is None:
        raise ValueError("quantified formulas need a model")
    # Loops, not generators: a closure would give every call, the
    # propositional ones included, cell variables to set up.
    elif isinstance(f, ForAll):
        truth = True
        for d in domain:
            if not satisfies(f.body, domain, facts, {**env, f.variable: d}, valuation, table):
                truth = False
                break
    elif isinstance(f, Exists):
        truth = False
        for d in domain:
            if satisfies(f.body, domain, facts, {**env, f.variable: d}, valuation, table):
                truth = True
                break
    else:
        raise TypeError(f"not a formula: {f!r}")
    table[key] = truth
    return truth
