"""Worlds of elementary complexes and the tagged pairs built over them.

A World fixes finitely many individuals, monadic predicates (the only
relations a formula can name), the facts that hold, each a predicate
over one individual, and truth values for propositional constants.
For every predicate and individual exactly one complex exists: the
positive one when the fact holds, otherwise the negative one; a
constant's complex has no arguments.  `existing_complexes` returns
that collection.

A Pair tags an existing complex either `diagonal` (the complex paired
with itself) or `flipped` (the complex paired with its opposite).
`swap` exchanges the two tags and is an involution, as is `opposite`
on complexes.

Pairs are hash-consed through `hashcons`, keyed by the flat tuple
(relation, args, positive, diagonal).  A pair is built together with
its swap, and each holds the other, so `swap` is an attribute read.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .hashcons import HashConsed, record
from .syntax import PRED_NAME, PROP_VAR


class WorldError(ValueError):
    """Raised for malformed world files or inconsistent world data."""


@dataclass(frozen=True)
class Complex:
    relation: str
    args: tuple[str, ...]
    positive: bool

    def render(self) -> str:
        sign = "+" if self.positive else "-"
        if self.args:
            return f"{self.relation}({','.join(self.args)}){sign}"
        return f"{self.relation}{sign}"


def opposite(c: Complex) -> Complex:
    """The complex of opposite polarity over the same relation and arguments."""
    return Complex(c.relation, c.args, not c.positive)


_live: dict = {}  # (relation, args, positive, diagonal) -> weak reference to the live Pair


@dataclass(frozen=True, eq=False, init=False)
class Pair(HashConsed):
    """An existing complex tagged diagonal (<x,x>) or flipped (<x,opposite(x)>).

    `swapped` is the same complex with the other tag.  It is not a
    field, so repr and == never follow it.
    """

    base: Complex
    diagonal: bool

    def __new__(cls, base, diagonal):
        # a flat key, so that no lookup calls Complex's Python-level hash
        key = (base.relation, base.args, base.positive, bool(diagonal))
        ref = _live.get(key)
        p = ref and ref()
        if p is None:
            # a pair is built with its swap; each holds the other, so they die together
            p, q = object.__new__(cls), object.__new__(cls)
            for pair, other, tag in ((p, q, key[3]), (q, p, not key[3])):
                object.__setattr__(pair, "base", base)
                object.__setattr__(pair, "diagonal", tag)
                object.__setattr__(pair, "swapped", other)
                record(_live, (*key[:3], tag), pair)
        return p

    def render(self) -> str:
        return f"<{self.base.render()},{'=' if self.diagonal else '0'}>"


def swap(p: Pair) -> Pair:
    """Exchange the diagonal and flipped tags; an involution."""
    return p.swapped


def pair_key(p: Pair) -> tuple:
    return (p.base.relation, p.base.args, not p.base.positive, not p.diagonal)


@dataclass(frozen=True)
class World:
    individuals: tuple[str, ...] = ()
    predicates: tuple[str, ...] = ()
    facts: frozenset[tuple[str, tuple[str, ...]]] = frozenset()
    constants: tuple[tuple[str, bool], ...] = ()  # propositional constants

    def __post_init__(self):
        seen = set()
        for name in self.individuals:
            if name in seen:
                raise WorldError(f"duplicate individual {name}")
            seen.add(name)
        predicates = set(self.predicates)
        if len(predicates) != len(self.predicates):
            raise WorldError("duplicate relation declaration")
        names = dict(self.constants)
        if len(names) != len(self.constants):
            raise WorldError("duplicate propositional constant")
        overlap = predicates & set(names)
        if overlap:
            raise WorldError(f"name used as both relation and constant: {sorted(overlap)}")
        for rel, args in self.facts:
            if rel not in predicates:
                raise WorldError(f"fact over undeclared relation {rel}")
            if len(args) != 1:
                raise WorldError(f"fact {rel}{args} must name one individual")
            if args[0] not in seen:
                raise WorldError(f"fact mentions undeclared individual {args[0]}")

    @property
    def constant_values(self) -> dict[str, bool]:
        return dict(self.constants)

    def holds(self, relation: str, args: tuple[str, ...]) -> bool:
        if not args:
            values = self.constant_values
            if relation not in values:
                raise WorldError(f"unknown propositional constant {relation}")
            return values[relation]
        if relation not in self.predicates:
            raise WorldError(f"unknown relation {relation}")
        for a in args:
            if a not in self.individuals:
                raise WorldError(f"unknown individual {a}")
        return (relation, args) in self.facts

    def existing(self, relation: str, args: tuple[str, ...]) -> Complex:
        """The unique complex over (relation, args) that exists here."""
        return Complex(relation, args, self.holds(relation, args))

    def with_constants(self, values: dict[str, bool]) -> "World":
        """This world with the named constants set to values, their
        declarations sorted by name: the world itself if that changes
        nothing."""
        known = self.constant_values
        for name in values:
            if name not in known:
                raise WorldError(f"unknown propositional constant {name}")
        known.update(values)
        constants = tuple(sorted(known.items()))
        if constants == self.constants:
            return self
        return World(
            individuals=self.individuals,
            predicates=self.predicates,
            facts=self.facts,
            constants=constants,
        )


def describe_world(w: World) -> str:
    facts = ", ".join(f"{r}({','.join(a)})" for r, a in sorted(w.facts)) or "none"
    consts = ", ".join(f"{n}={'true' if v else 'false'}" for n, v in w.constants)
    parts = [f"individuals {{{', '.join(w.individuals)}}}", f"facts {{{facts}}}"]
    if consts:
        parts.append(consts)
    return "; ".join(parts)


def constant_name(variable: str) -> str:
    """The propositional constant carrying a variable: p -> P, q1 -> Q1."""
    return variable.upper()


def existing_complexes(w: World) -> frozenset[Complex]:
    """Every complex that exists in w: one polarity per predicate and
    individual, and per constant."""
    out = [w.existing(p, (ind,)) for p in w.predicates for ind in w.individuals]
    out += [Complex(name, (), value) for name, value in w.constants]
    return frozenset(out)


def all_pairs(w: World) -> tuple[Pair, ...]:
    """Every tagged pair over the complexes existing in w, canonically ordered."""
    pairs = [Pair(c, diag) for c in existing_complexes(w) for diag in (True, False)]
    return tuple(sorted(pairs, key=pair_key))


# ---------------------------------------------------------------------------
# world files
#
#   individual a        (a lowercase letter, then letters and digits)
#   relation S/1        (predicates are monadic: /1 only)
#   fact S(a)           (one individual)
#   prop P true         (the constant carrying a variable: P, Q1, ...)
#
# Blank lines and lines starting with '#' are skipped; any other
# directive is an error, and so is a name no fact or formula can reach.

_INDIVIDUAL = re.compile("[a-z][A-Za-z0-9]*")
_FACT = re.compile(rf"([^(),]+)\(({_INDIVIDUAL.pattern})\)")


def parse_world(text: str, source: str = "<string>") -> World:
    individuals: list[str] = []
    predicates: list[str] = []
    facts: set[tuple[str, tuple[str, ...]]] = set()
    constants: list[tuple[str, bool]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        parts = line.split()
        directive = parts[0]
        if directive == "individual":
            if len(parts) != 2:
                raise WorldError(f"{where}: individual takes one name")
            if not _INDIVIDUAL.fullmatch(parts[1]):
                raise WorldError(f"{where}: individual {parts[1]!r} is not an individual name")
            individuals.append(parts[1])
        elif directive == "relation":
            name, _, arity = parts[-1].partition("/")
            if len(parts) != 2 or not name or arity != "1":
                raise WorldError(f"{where}: expected 'relation NAME/1'")
            if not PRED_NAME.fullmatch(name):
                raise WorldError(f"{where}: relation {name!r} is not a predicate name")
            predicates.append(name)
        elif directive == "fact":
            fact = _FACT.fullmatch(parts[-1])
            if len(parts) != 2 or fact is None:
                raise WorldError(f"{where}: expected 'fact NAME(individual)'")
            facts.add((fact[1], (fact[2],)))
        elif directive == "prop":
            if len(parts) != 3 or parts[2] not in ("true", "false"):
                raise WorldError(f"{where}: expected 'prop NAME true|false'")
            name = parts[1]
            if not PROP_VAR.fullmatch(name.lower()) or constant_name(name.lower()) != name:
                raise WorldError(f"{where}: constant {name!r} carries no propositional variable")
            constants.append((name, parts[2] == "true"))
        else:
            raise WorldError(f"{where}: unknown directive {directive!r}")
    try:
        return World(
            individuals=tuple(individuals),
            predicates=tuple(predicates),
            facts=frozenset(facts),
            constants=tuple(constants),
        )
    except WorldError as exc:
        raise WorldError(f"{source}: {exc}") from None


def load_world(path: str) -> World:
    with open(path, encoding="utf-8") as fh:
        return parse_world(fh.read(), source=path)
