"""Formulas in dot notation: AST, parser, printer, structure walks.

Surface language (ASCII):

    propositional variable   p, q, r, p1, q2, ...        [p-r][0-9]*
    individual variable      x, y, z, x1, ...            [x-z][0-9]*
    predicate name           S, T, R1, Pred, ...         [A-Z][A-Za-z0-9]*
    atom                     p | S(x)       (predicates are monadic)
    negation                 ~f
    disjunction              f v g
    implication              f => g         (sugar for ~f v g)
    equivalence              f <=> g        (sugar for (f => g) . (g => f))
    conjunction              f . g          (sugar for ~(~f v ~g))
    universal                (x). f
    existential              (Ex). f
    grouping                 ( f )  or dots, see below

Names are ASCII: a character outside the classes above, a non-ASCII
letter or digit included, is an unknown symbol.  "v" is disjunction
only when no letter or digit follows it.  The lexer is one regular
expression over these classes.

Dot convention.  Dots play three roles, disambiguated by position:

  1. A dot group flanking a binary connective widens its scope:
     the connective's binding force is (n, 1) where n is the larger
     of the dot counts on its two sides.  An undotted connective has
     force (0, 1).
  2. A dot group standing between two formulas (not touching any
     connective) is conjunction, with force (n, 0) for n dots.
  3. A dot group after a quantifier prefix extends the quantifier's
     scope maximally: the scope runs until the end of the enclosing
     group, stopping early only at a flanked connective with dot
     count >= n or at a conjunction dot group with more than n dots.
     A conjunction dot group with at most n dots is swallowed by the
     scope.  A quantifier written without a dot takes only the next
     operand.

Forces compare lexicographically: more dots always bind more loosely,
and at equal dot count a flanked connective is looser than conjunction
dots.  When several connectives in one group share the maximal force,
the looser kind splits first (<=> before => before v before .), and
ties of the same kind associate to the right for => and <=> and to the
left for v and conjunction.

So "p v q .=>. q v p" is (p v q) => (q v p), "p . q v r" is
p . (q v r), and "(x). S(x) v p" quantifies over the whole
disjunction while "((x).S(x) .v. p)" does not.  Likewise
"(Ex). S(x) . p" quantifies over the conjunction, but the flanked
connective in "(Ex). S(x) .=>. p" closes the scope, giving
((Ex).S(x)) => p.

The printer emits a canonical reading of every formula: binary
connectives fully parenthesized, quantifiers with a single dot, and
quantified operands wrapped in parentheses wherever the maximal-scope
rule could swallow a neighbour.  parse(print_formula(f)) is f for every
formula f.

Parsed formulas are desugared: only PropVar, PredApp, Or, Not, ForAll
and Exists nodes exist.  =>, <=> and conjunction build their expansions
at parse time.

Nodes are hash-consed through `hashcons`: each node class keeps its own
table, keyed by the one field or the tuple of fields.

Parsed trees are bounded: at most MAX_DEPTH levels and MAX_NODES nodes
once desugared, or parse raises FormulaSyntaxError.  The recursive
walks (printer, evaluators, oracles) take one or two stack frames per
level, so the depth bound keeps them far below the interpreter's
recursion limit; the node bound caps the tree they traverse, which <=>
desugaring doubles by sharing both sides.  Each parenthesis group
counts as a level while parsing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .hashcons import HashConsed, record

MAX_DEPTH = 100
MAX_NODES = 10_000


class FormulaSyntaxError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula(HashConsed):
    __slots__ = ()

    def __new__(cls, *fields):
        if len(fields) != len(cls.__match_args__):
            raise TypeError(f"{cls.__name__} takes {', '.join(cls.__match_args__)}")
        key = fields[0] if len(fields) == 1 else fields
        ref = cls._live.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            record(cls._live, key, node)
        return node


def _node(cls):
    """A frozen, slotted dataclass formula node with its table of live nodes."""
    cls = dataclass(frozen=True, slots=True, init=False, eq=False)(cls)
    cls._live = {}
    return cls


@_node
class PropVar(Formula):
    name: str


@_node
class PredApp(Formula):
    predicate: str
    argument: str


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Not(Formula):
    operand: Formula


@_node
class ForAll(Formula):
    variable: str
    body: Formula


@_node
class Exists(Formula):
    variable: str
    body: Formula


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return Or(Not(antecedent), consequent)


def conjoin(left: Formula, right: Formula) -> Formula:
    return Not(Or(Not(left), Not(right)))


def equivalent(left: Formula, right: Formula) -> Formula:
    return conjoin(implies(left, right), implies(right, left))


# ---------------------------------------------------------------------------
# lexer

# Variables are a start letter and an optional number: [p-r][0-9]* for
# propositional, [x-z][0-9]* for individual variables.  Predicates are
# [A-Z][A-Za-z0-9]*.
PROP_LETTERS = "pqr"
IND_LETTERS = "xyz"
PROP_VAR = re.compile(f"[{PROP_LETTERS}][0-9]*")
IND_VAR = re.compile(f"[{IND_LETTERS}][0-9]*")
PRED_NAME = re.compile("[A-Z][A-Za-z0-9]*")


def variable_names(letters: str, count: int) -> tuple[str, ...]:
    """The first count variable names over letters: p q r p1 q1 r1 p2 ..."""
    return tuple(
        letters[i % len(letters)] + (str(i // len(letters)) if i >= len(letters) else "")
        for i in range(count)
    )


class _Token(NamedTuple):
    kind: str  # PROPVAR INDVAR PREDNAME OR IMPLIES IFF NOT DOTS LPAREN RPAREN COMMA END
    value: str
    count: int
    pos: int


_EXISTS_PREFIX = re.compile(f"E{IND_VAR.pattern}")

# One token, after optional whitespace, per match; any other character
# is UNKNOWN.  Trailing whitespace matches nothing.
_TOKENS = re.compile(
    rf"""\s*(?:
      (?P<DOTS>\.+) | (?P<NOT>~) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
    | (?P<IFF><=>) | (?P<IMPLIES>=>) | (?P<OR>v(?![A-Za-z0-9]))
    | (?P<PROPVAR>{PROP_VAR.pattern}) | (?P<INDVAR>{IND_VAR.pattern})
    | (?P<PREDNAME>{PRED_NAME.pattern}) | (?P<UNKNOWN>\S)
    )""",
    re.VERBOSE,
)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKENS.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        if kind == "UNKNOWN":
            raise FormulaSyntaxError(f"unknown symbol {value!r}", m.start(kind))
        tokens.append(_Token(kind, value, len(value) if kind == "DOTS" else 0, m.start(kind)))
    tokens.append(_Token("END", "", 0, len(text)))
    return tokens


# ---------------------------------------------------------------------------
# parser

# force of an operator: (dot count, category); category 1 for flanked
# connectives, 0 for conjunction dots.  Compared lexicographically.
_LOOSENESS = {"IFF": 3, "IMPLIES": 2, "OR": 1, "CONJ": 0}
_RIGHT_ASSOC = {"IFF", "IMPLIES"}

_OPERAND_START = {"NOT", "LPAREN", "PROPVAR", "PREDNAME"}


@dataclass
class _Op:
    kind: str
    force: tuple[int, int]
    pos: int


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # levels above the operand or soup being parsed

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "END":
            self.i += 1
        return tok

    # An expression is a soup of operands and operators, resolved by force.
    # `cutoff` is set while a dotted quantifier is collecting its scope: the
    # soup stops (without consuming) at any operator of force >= cutoff.
    def parse_expr(self, cutoff: tuple[int, int] | None) -> Formula:
        items: list[object] = [self.parse_operand()]
        while (op := self.operator(cutoff)) is not None:
            items.append(op)
            items.append(self.parse_operand())
            if len(items) > 2 * MAX_NODES:
                raise _too_large(op.pos)
        return self.resolve(items)

    def resolve(self, items: list[object]) -> Formula:
        """Resolve an operand/operator soup into a tree, loosest split first."""
        if len(items) == 1:
            return items[0]  # type: ignore[return-value]
        if self.depth >= MAX_DEPTH:
            raise _too_deep(items[1].pos)  # type: ignore[attr-defined]
        best = None
        best_index = -1
        for idx in range(1, len(items), 2):
            op: _Op = items[idx]  # type: ignore[assignment]
            key = (op.force, _LOOSENESS[op.kind])
            if best is None or key > best:
                best, best_index = key, idx
            elif key == best and op.kind not in _RIGHT_ASSOC:
                best_index = idx  # left-assoc: split at the last occurrence
        op = items[best_index]  # type: ignore[assignment]
        self.depth += 1
        left = self.resolve(items[:best_index])
        right = self.resolve(items[best_index + 1 :])
        self.depth -= 1
        if op.kind == "OR":
            return Or(left, right)
        if op.kind == "IMPLIES":
            return implies(left, right)
        if op.kind == "IFF":
            return equivalent(left, right)
        return conjoin(left, right)

    def operator(self, cutoff: tuple[int, int] | None) -> _Op | None:
        """The next operator, consumed: a connective with its dot groups,
        or conjunction dots.  None, consuming nothing, at the end of a
        group or at an operator of force >= cutoff."""
        tok = self.peek()
        if tok.kind in ("END", "RPAREN"):
            return None
        dotted = tok.kind == "DOTS"
        conn = self.peek(1) if dotted else tok
        width = 2 if dotted else 1  # tokens taken: left dots, connective
        if conn.kind in ("OR", "IMPLIES", "IFF"):
            right = self.peek(width)
            if right.kind == "DOTS":
                width += 1
            op = _Op(conn.kind, (max(tok.count, right.count), 1), tok.pos)
        elif dotted:
            if conn.kind not in _OPERAND_START:
                raise FormulaSyntaxError("dangling dots", tok.pos)
            op, width = _Op("CONJ", (tok.count, 0), tok.pos), 1
        elif tok.kind == "COMMA":
            raise FormulaSyntaxError("non-monadic predicate application", tok.pos)
        else:
            raise FormulaSyntaxError(f"unexpected {tok.value!r}", tok.pos)
        if cutoff is not None and op.force >= cutoff:
            return None
        self.i += width
        return op

    def parse_operand(self) -> Formula:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(self.peek().pos)
        f = self._parse_operand()
        self.depth -= 1
        return f

    def _parse_operand(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.take()
            inner = self.peek()
            if inner.kind == "LPAREN" and self._quantifier_lookahead() is not None:
                raise FormulaSyntaxError(
                    "quantifier directly under ~ must be parenthesized", inner.pos
                )
            return Not(self.parse_operand())
        if tok.kind == "PROPVAR":
            self.take()
            return PropVar(tok.value)
        if tok.kind == "PREDNAME":
            return self.parse_predapp()
        if tok.kind == "LPAREN":
            quant = self._quantifier_lookahead()
            if quant is not None:
                return self.parse_quantified(quant)
            self.take()
            inner = self.parse_expr(cutoff=None)
            close = self.take()
            if close.kind != "RPAREN":
                raise FormulaSyntaxError("unbalanced parentheses", close.pos)
            return inner
        if tok.kind == "DOTS":
            raise FormulaSyntaxError("dangling dots", tok.pos)
        raise FormulaSyntaxError(f"expected a formula, found {tok.value!r}", tok.pos)

    def _quantifier_lookahead(self) -> tuple[str, str] | None:
        """At a LPAREN, detect '(x)' or '(Ex)' prefixes without consuming."""
        first = self.peek(1)
        second = self.peek(2)
        if first.kind == "INDVAR" and second.kind == "RPAREN":
            return ("forall", first.value)
        if (
            first.kind == "PREDNAME"
            and _EXISTS_PREFIX.fullmatch(first.value)
            and second.kind == "RPAREN"
        ):
            return ("exists", first.value[1:])
        return None

    def parse_quantified(self, quant: tuple[str, str]) -> Formula:
        kind, var = quant
        self.take()  # (
        self.take()  # variable or E-variable
        self.take()  # )
        dots = 0
        if self.peek().kind == "DOTS":
            dots = self.take().count
        if dots == 0:
            body = self.parse_operand()
        else:
            body = self.parse_expr(cutoff=(dots, 1))
        return ForAll(var, body) if kind == "forall" else Exists(var, body)

    def parse_predapp(self) -> Formula:
        name = self.take()
        lp = self.take()
        if lp.kind != "LPAREN":
            raise FormulaSyntaxError(f"predicate {name.value} needs an argument", lp.pos)
        arg = self.take()
        if arg.kind != "INDVAR":
            raise FormulaSyntaxError(
                f"predicate argument must be an individual variable, found {arg.value!r}",
                arg.pos,
            )
        close = self.take()
        if close.kind == "COMMA":
            raise FormulaSyntaxError("non-monadic predicate application", close.pos)
        if close.kind != "RPAREN":
            raise FormulaSyntaxError("unbalanced parentheses", close.pos)
        return PredApp(name.value, arg.value)


def parse(text: str) -> Formula:
    parser = _Parser(_lex(text))
    formula = parser.parse_expr(cutoff=None)
    trailing = parser.take()
    if trailing.kind != "END":
        raise FormulaSyntaxError(f"unexpected trailing {trailing.value!r}", trailing.pos)
    _check_bounds(formula)
    return formula


def _too_deep(pos: int) -> FormulaSyntaxError:
    return FormulaSyntaxError(f"formula nested deeper than {MAX_DEPTH} levels", pos)


def _too_large(pos: int) -> FormulaSyntaxError:
    return FormulaSyntaxError(f"formula has more than {MAX_NODES} nodes", pos)


def _check_bounds(f: Formula) -> None:
    """Raise FormulaSyntaxError if the desugared tree is out of bounds."""
    stack = [(f, 1)]
    nodes = 0
    while stack:
        g, depth = stack.pop()
        nodes += 1
        if nodes > MAX_NODES:
            raise _too_large(0)
        if depth > MAX_DEPTH:
            raise _too_deep(0)
        for child in children(g):
            stack.append((child, depth + 1))


# ---------------------------------------------------------------------------
# printer

def print_formula(f: Formula) -> str:
    """Canonical ASCII rendering; parse(print_formula(f)) is f."""
    if isinstance(f, PropVar):
        return f.name
    if isinstance(f, PredApp):
        return f"{f.predicate}({f.argument})"
    if isinstance(f, Not):
        return "~" + _operand_text(f.operand)
    if isinstance(f, Or):
        return f"({_operand_text(f.left)} v {_operand_text(f.right)})"
    if isinstance(f, ForAll):
        return f"({f.variable}).{print_formula(f.body)}"
    if isinstance(f, Exists):
        return f"(E{f.variable}).{print_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def _operand_text(f: Formula) -> str:
    # Quantified operands are parenthesized so the maximal-scope rule
    # cannot swallow what follows them.
    if isinstance(f, (ForAll, Exists)):
        return f"({print_formula(f)})"
    return print_formula(f)


# ---------------------------------------------------------------------------
# structure walks

def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of f, left to right."""
    if isinstance(f, (PropVar, PredApp)):
        return ()
    if isinstance(f, Not):
        return (f.operand,)
    if isinstance(f, Or):
        return (f.left, f.right)
    if isinstance(f, (ForAll, Exists)):
        return (f.body,)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> list[Formula]:
    """f and all of its subformulas, level by level."""
    out = [f]
    for g in out:  # also visits the children appended on the way
        out.extend(children(g))
    return out


def free_variables(f: Formula) -> frozenset[str]:
    """Free individual variables of f."""
    # Direct recursion, faster than a walk over `children`.  Its callers:
    # `propsem`'s refusal of an unbound variable, `fosem.logical_truth`
    # and `pm parse --json`.
    if isinstance(f, PropVar):
        return frozenset()
    if isinstance(f, PredApp):
        return frozenset({f.argument})
    if isinstance(f, Not):
        return free_variables(f.operand)
    if isinstance(f, Or):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (ForAll, Exists)):
        return free_variables(f.body) - {f.variable}
    raise TypeError(f"not a formula: {f!r}")


def prop_variables(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, PropVar))


def predicates(f: Formula) -> frozenset[str]:
    return frozenset(g.predicate for g in subformulas(f) if isinstance(g, PredApp))
