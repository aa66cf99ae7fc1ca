"""Seeded inputs and independent reference answers for the benchmark.

Formulas are generated as sugared trees, tuples such as
("imp", a, b) or ("all", "x", body), so that one tree gives both the
dot-notation text handed to the program and the desugared AST the
benchmark expects back.  Desugaring, world enumeration and truth
assignments are written out here from the documented semantics rather
than taken from the program, so the checks do not rest on the code they
check.  Only the AST node classes and the classical evaluators of
`pmsem.oracle`, which share nothing with the meaning side, are used.
"""
from __future__ import annotations

import itertools
import math
import random

from pmsem.oracle import TarskiModel, tarski_eval, truth_table_eval
from pmsem.syntax import Exists, ForAll, Not, Or, PredApp, PropVar

PROP_VARS = ("p", "q", "r")
PREDICATES = ("S", "R")
IND_VARS = ("x", "y")
BINARY = ("or", "and", "imp", "iff")
SYMBOL = {"or": "v", "and": ".", "imp": "=>", "iff": "<=>"}


# ---------------------------------------------------------------------------
# trees -> AST and text

def desugar(t):
    """The AST the parser must build for tree t (see pmsem.syntax docs)."""
    kind = t[0]
    if kind == "var":
        return PropVar(t[1])
    if kind == "pred":
        return PredApp(t[1], t[2])
    if kind == "not":
        return Not(desugar(t[1]))
    if kind == "all":
        return ForAll(t[1], desugar(t[2]))
    if kind == "ex":
        return Exists(t[1], desugar(t[2]))
    left, right = desugar(t[1]), desugar(t[2])
    if kind == "or":
        return Or(left, right)
    if kind == "imp":
        return Or(Not(left), right)
    if kind == "and":
        return Not(Or(Not(left), Not(right)))
    if kind == "iff":
        return Not(Or(Not(Or(Not(left), right)), Not(Or(Not(right), left))))
    raise ValueError(f"unknown tree node {kind!r}")


def operand_text(t) -> str:
    """A self-delimiting rendering: an atom, a negation or a group."""
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "pred":
        return f"{t[1]}({t[2]})"
    if kind == "not":
        return "~" + operand_text(t[1])
    if kind in BINARY:
        return f"({operand_text(t[1])} {SYMBOL[kind]} {operand_text(t[2])})"
    return f"({quantified_text(t)})"


def quantified_text(t) -> str:
    # A dotted quantifier scopes to the end of its group and swallows
    # single conjunction dots, so `(x). S(x) . R(x)` is (x).(S(x) . R(x)).
    prefix = f"({t[1]})." if t[0] == "all" else f"(E{t[1]})."
    body = t[2]
    if body[0] in BINARY:
        return f"{prefix} {operand_text(body[1])} {SYMBOL[body[0]]} {operand_text(body[2])}"
    return f"{prefix} {operand_text(body)}"


def dot_text(t) -> str:
    """Whole-formula text in dot notation, e.g. `p v q .=>. q v p`."""
    kind = t[0]
    if kind in ("all", "ex"):
        return quantified_text(t)
    if kind == "and":
        return f"{operand_text(t[1])} . {operand_text(t[2])}"
    if kind in BINARY:
        return f"{loose_text(t[1])} .{SYMBOL[kind]}. {loose_text(t[2])}"
    return operand_text(t)


def loose_text(t) -> str:
    # Beside a dotted connective an undotted connective binds tighter,
    # and a flanked connective closes a quantifier's scope.
    if t[0] in ("or", "imp", "iff"):
        return f"{operand_text(t[1])} {SYMBOL[t[0]]} {operand_text(t[2])}"
    if t[0] in ("all", "ex"):
        return quantified_text(t)
    return operand_text(t)


# ---------------------------------------------------------------------------
# random trees

def prop_tree(rng: random.Random, size: int, kinds=BINARY):
    """A propositional tree over p, q, r with `size` sugared nodes."""
    if size == 1:
        return ("var", rng.choice(PROP_VARS))
    if size == 2 or rng.random() < 0.3:
        return ("not", prop_tree(rng, size - 1, kinds))
    left = rng.randint(1, size - 2)
    return (rng.choice(kinds), prop_tree(rng, left, kinds),
            prop_tree(rng, size - 1 - left, kinds))


def fo_tree(rng: random.Random, size: int, env=(), props=()):
    """A closed monadic tree: every predicate argument is bound above it."""
    leaves = [("pred", p, v) for p in PREDICATES for v in env]
    leaves += [("var", v) for v in props]
    if size == 1:
        return rng.choice(leaves)
    roll = rng.random()
    # Without a leaf in scope every branch must reach a quantifier
    # before it shrinks to one node.
    smallest = 1 if leaves else 2
    if size >= 2 * smallest + 1 and roll < 0.45:
        left = rng.randint(smallest, size - 1 - smallest)
        return (rng.choice(BINARY), fo_tree(rng, left, env, props),
                fo_tree(rng, size - 1 - left, env, props))
    if size - 1 >= smallest and roll < 0.6:
        return ("not", fo_tree(rng, size - 1, env, props))
    var = rng.choice(IND_VARS)
    body_env = tuple(sorted(set(env) | {var}))
    return (rng.choice(("all", "ex")), var, fo_tree(rng, size - 1, body_env, props))


def has_nested_negation(f, under: bool = False) -> bool:
    if isinstance(f, Not):
        return under or has_nested_negation(f.operand, True)
    if isinstance(f, Or):
        return has_nested_negation(f.left, under) or has_nested_negation(f.right, under)
    return False


def node_count(f) -> int:
    if isinstance(f, Not):
        return 1 + node_count(f.operand)
    if isinstance(f, Or):
        return 1 + node_count(f.left) + node_count(f.right)
    if isinstance(f, (ForAll, Exists)):
        return 1 + node_count(f.body)
    return 1


def names_in(f, kind) -> set[str]:
    if isinstance(f, kind):
        return {f.name if kind is PropVar else f.predicate}
    if isinstance(f, Not):
        return names_in(f.operand, kind)
    if isinstance(f, Or):
        return names_in(f.left, kind) | names_in(f.right, kind)
    if isinstance(f, (ForAll, Exists)):
        return names_in(f.body, kind)
    return set()


# ---------------------------------------------------------------------------
# reference answers

def valuations(names):
    """Every classical valuation of the sorted names."""
    names = sorted(names)
    for bits in itertools.product((True, False), repeat=len(names)):
        yield dict(zip(names, bits))


def classify_by_table(f, points) -> str:
    """tautology / contradiction / contingent over the given valuations."""
    values = {truth_table_eval(f, v) for v in points}
    if values == {True}:
        return "tautology"
    if values == {False}:
        return "contradiction"
    return "contingent"


def meaning_truth(m) -> bool:
    """A Meaning is true when some member holds only diagonal pairs."""
    return any(all(p.diagonal for p in member) for member in m.members)


def minimal_hitting_sets(family) -> set[frozenset]:
    """Inclusion-minimal hitting sets of a family of sets, grown member
    by member (Berge's algorithm) rather than from the full product."""
    hitting = {frozenset()}
    for member in family:
        grown = set()
        for h in hitting:
            if h & member:
                grown.add(h)
            else:
                grown.update(h | {x} for x in member)
        hitting = {h for h in grown if not any(g < h for g in grown)}
    return hitting


def minimal_family(f, values, max_choices: int):
    """The `minimal`-policy meaning of propositional f as a set of
    members, each a frozenset of (base, diagonal) pairs, or None if f
    negates a family of more than max_choices choice sets.

    values maps each variable to such a family.  A choice set takes one
    pair from each member; their number, the product of the member
    sizes, is what a product-then-filter transversal builds.
    """
    if isinstance(f, PropVar):
        return values[f.name]
    if isinstance(f, Or):
        left = minimal_family(f.left, values, max_choices)
        right = minimal_family(f.right, values, max_choices)
        return None if left is None or right is None else left | right
    family = minimal_family(f.operand, values, max_choices)
    if family is None:
        return None
    if len(family) == 1:
        (only,) = family
        return frozenset(frozenset({(base, not diag)}) for base, diag in only)
    if math.prod(len(m) for m in family) > max_choices:
        return None
    return frozenset(frozenset((base, not diag) for base, diag in h)
                     for h in minimal_hitting_sets(family))


def worlds_in_order(preds, max_individuals: int = 3):
    """Models in the documented fo-valid order: domain size, then fact
    subsets by size and lexicographic position."""
    letters = [chr(ord("a") + i) for i in range(max_individuals)]
    for n in range(1, max_individuals + 1):
        domain = tuple(letters[:n])
        atoms = sorted((p, (d,)) for p in preds for d in domain)
        for size in range(len(atoms) + 1):
            for chosen in itertools.combinations(atoms, size):
                yield TarskiModel(domain=domain, facts=frozenset(chosen), prop_values={})


def first_falsifying(f, preds) -> tuple[int, int | None]:
    """(worlds in the sweep, 1-based index of the first false one or None)."""
    total, first = 0, None
    for model in worlds_in_order(preds):
        total += 1
        if first is None and not tarski_eval(f, model):
            first = total
    return total, first


def random_world(rng: random.Random):
    """(text of a world file, TarskiModel, valuation of p and q)."""
    domain = tuple("abc"[: rng.randint(1, 3)])
    facts = frozenset(
        (p, (d,)) for p in PREDICATES for d in domain if rng.random() < 0.5
    )
    props = {"p": rng.random() < 0.5, "q": rng.random() < 0.5}
    lines = [f"individual {d}" for d in domain]
    lines += [f"relation {p}/1" for p in PREDICATES]
    lines += [f"fact {p}({args[0]})" for p, args in sorted(facts)]
    lines += [f"prop {v.upper()} {'true' if b else 'false'}" for v, b in props.items()]
    model = TarskiModel(domain=domain, facts=facts, prop_values={})
    return "\n".join(lines) + "\n", model, props
