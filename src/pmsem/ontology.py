"""Worlds of elementary complexes and the tagged pairs built over them.

A World fixes finitely many individuals, relations with arities, the
facts that hold, and truth values for propositional constants (0-ary
relations).  For every relation and argument tuple exactly one complex
exists: the positive one when the fact holds, otherwise the negative
one.  `existing_complexes` returns that collection.

A Pair tags an existing complex either `diagonal` (the complex paired
with itself) or `flipped` (the complex paired with its opposite).
`swap` exchanges the two tags and is an involution, as is `opposite`
on complexes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass


class WorldError(ValueError):
    """Raised for malformed world files or inconsistent world data."""


@dataclass(frozen=True, order=True)
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


@dataclass(frozen=True)
class Pair:
    """An existing complex tagged diagonal (<x,x>) or flipped (<x,opposite(x)>)."""

    base: Complex
    diagonal: bool

    def render(self) -> str:
        return f"<{self.base.render()},{'=' if self.diagonal else '0'}>"


def swap(p: Pair) -> Pair:
    """Exchange the diagonal and flipped tags; an involution."""
    return Pair(p.base, not p.diagonal)


def pair_key(p: Pair) -> tuple:
    return (p.base.relation, p.base.args, not p.base.positive, not p.diagonal)


@dataclass(frozen=True)
class World:
    individuals: tuple[str, ...] = ()
    relations: tuple[tuple[str, int], ...] = ()  # (name, arity), arity >= 1
    facts: frozenset[tuple[str, tuple[str, ...]]] = frozenset()
    constants: tuple[tuple[str, bool], ...] = ()  # propositional constants

    def __post_init__(self):
        seen = set()
        for name in self.individuals:
            if name in seen:
                raise WorldError(f"duplicate individual {name}")
            seen.add(name)
        arities = dict(self.relations)
        if len(arities) != len(self.relations):
            raise WorldError("duplicate relation declaration")
        names = dict(self.constants)
        if len(names) != len(self.constants):
            raise WorldError("duplicate propositional constant")
        overlap = set(arities) & set(names)
        if overlap:
            raise WorldError(f"name used as both relation and constant: {sorted(overlap)}")
        for rel, args in self.facts:
            if rel not in arities:
                raise WorldError(f"fact over undeclared relation {rel}")
            if len(args) != arities[rel]:
                raise WorldError(f"fact {rel}{args} does not match arity {arities[rel]}")
            for a in args:
                if a not in seen:
                    raise WorldError(f"fact mentions undeclared individual {a}")

    @property
    def arities(self) -> dict[str, int]:
        return dict(self.relations)

    @property
    def constant_values(self) -> dict[str, bool]:
        return dict(self.constants)

    def holds(self, relation: str, args: tuple[str, ...]) -> bool:
        if not args:
            values = self.constant_values
            if relation not in values:
                raise WorldError(f"unknown propositional constant {relation}")
            return values[relation]
        if relation not in self.arities:
            raise WorldError(f"unknown relation {relation}")
        if len(args) != self.arities[relation]:
            raise WorldError(f"{relation} expects {self.arities[relation]} arguments")
        for a in args:
            if a not in self.individuals:
                raise WorldError(f"unknown individual {a}")
        return (relation, args) in self.facts

    def existing(self, relation: str, args: tuple[str, ...]) -> Complex:
        """The unique complex over (relation, args) that exists here."""
        return Complex(relation, args, self.holds(relation, args))

    def with_constants(self, values: dict[str, bool]) -> "World":
        known = self.constant_values
        for name in values:
            if name not in known:
                raise WorldError(f"unknown propositional constant {name}")
        known.update(values)
        return World(
            individuals=self.individuals,
            relations=self.relations,
            facts=self.facts,
            constants=tuple(sorted(known.items())),
        )


def existing_complexes(w: World) -> frozenset[Complex]:
    """Every complex that exists in w: one polarity per relation/argument tuple."""
    out = []
    for rel, arity in w.relations:
        for args in itertools.product(w.individuals, repeat=arity):
            out.append(w.existing(rel, args))
    for name, value in w.constants:
        out.append(Complex(name, (), value))
    return frozenset(out)


def all_pairs(w: World) -> tuple[Pair, ...]:
    """Every tagged pair over the complexes existing in w, canonically ordered."""
    pairs = [
        Pair(c, diag)
        for c in sorted(existing_complexes(w))
        for diag in (True, False)
    ]
    return tuple(sorted(pairs, key=pair_key))


# ---------------------------------------------------------------------------
# world files
#
#   individual a
#   relation S/1
#   fact S(a)
#   prop P true
#
# Blank lines and lines starting with '#' are skipped; any other
# directive is an error.

def parse_world(text: str, source: str = "<string>") -> World:
    individuals: list[str] = []
    relations: list[tuple[str, int]] = []
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
            individuals.append(parts[1])
        elif directive == "relation":
            if len(parts) != 2 or "/" not in parts[1]:
                raise WorldError(f"{where}: expected 'relation NAME/ARITY'")
            name, _, arity_text = parts[1].partition("/")
            if not arity_text.isdigit() or int(arity_text) < 1:
                raise WorldError(f"{where}: bad arity {arity_text!r}")
            relations.append((name, int(arity_text)))
        elif directive == "fact":
            if len(parts) != 2:
                raise WorldError(f"{where}: expected 'fact NAME(args)'")
            name, args = _parse_fact(parts[1], where)
            facts.add((name, args))
        elif directive == "prop":
            if len(parts) != 3 or parts[2] not in ("true", "false"):
                raise WorldError(f"{where}: expected 'prop NAME true|false'")
            constants.append((parts[1], parts[2] == "true"))
        else:
            raise WorldError(f"{where}: unknown directive {directive!r}")
    try:
        return World(
            individuals=tuple(individuals),
            relations=tuple(relations),
            facts=frozenset(facts),
            constants=tuple(constants),
        )
    except WorldError as exc:
        raise WorldError(f"{source}: {exc}") from None


def _parse_fact(text: str, where: str) -> tuple[str, tuple[str, ...]]:
    if "(" not in text or not text.endswith(")"):
        raise WorldError(f"{where}: malformed fact {text!r}")
    name, _, rest = text.partition("(")
    inner = rest[:-1]
    if not name or not inner:
        raise WorldError(f"{where}: malformed fact {text!r}")
    return name, tuple(part.strip() for part in inner.split(","))


def load_world(path: str) -> World:
    with open(path, encoding="utf-8") as fh:
        return parse_world(fh.read(), source=path)
