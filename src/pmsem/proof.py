"""Hilbert-style proof scripts over the five disjunction/negation axioms.

Axiom schemas (in sugared form; everything is desugared to ~ and v):

    Taut   (p v p) => p
    Add    q => (p v q)
    Perm   (p v q) => (q v p)
    Assoc  (p v (q v r)) => (q v (p v r))
    Sum    (q => r) => ((p v q) => (p v r))

A script is a sequence of lines

    LABEL formula ; AX NAME var=formula, var=formula, ...
    LABEL formula ; MP MAJOR MINOR
    LABEL formula ; SUB SOURCE var=formula, ...

Blank lines and '#' comments are skipped.  AX instantiates a schema
(the substitution must cover its variables and name no others), MP
detaches: from ~X v Y and X infer Y, SUB applies a simultaneous
substitution of formulas for propositional variables to an earlier
line.  Labels must refer to earlier lines.  Each line parses to one
`ProofLine(label, formula, rule, args, mapping)`, whose `args` hold the
axiom's name for AX and the premisses' labels for MP and SUB.  A new
rule is one `rule` value, one parse branch and one `_derive` case.

`check_proof` validates every line structurally and, unless disabled,
also confirms each line is a tautology; a line that `classify` cannot
decide is invalid and carries no tautology mark.  Lines after the first
invalid line are reported unchecked.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .propsem import classify
from .syntax import (
    PROP_VAR,
    Exists,
    ForAll,
    Formula,
    FormulaSyntaxError,
    Not,
    Or,
    PredApp,
    PropVar,
    parse,
    print_formula,
    prop_variables,
)

__all__ = [
    "AXIOMS",
    "LineVerdict",
    "ProofError",
    "ProofLine",
    "ProofReport",
    "apply_mp",
    "apply_substitution",
    "axiom_instance",
    "check_proof",
    "load_script",
    "parse_script",
]


class ProofError(ValueError):
    """Raised for malformed proof scripts or inapplicable rules."""


AXIOMS: dict[str, Formula] = {
    "Taut": parse("(p v p) => p"),
    "Add": parse("q => (p v q)"),
    "Perm": parse("(p v q) => (q v p)"),
    "Assoc": parse("(p v (q v r)) => (q v (p v r))"),
    "Sum": parse("(q => r) => ((p v q) => (p v r))"),
}


def apply_substitution(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for propositional variables."""
    if isinstance(f, PropVar):
        return mapping.get(f.name, f)
    if isinstance(f, PredApp):
        return f
    if isinstance(f, Not):
        return Not(apply_substitution(f.operand, mapping))
    if isinstance(f, Or):
        return Or(
            apply_substitution(f.left, mapping), apply_substitution(f.right, mapping)
        )
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.variable, apply_substitution(f.body, mapping))
    raise TypeError(f"not a formula: {f!r}")


def axiom_instance(name: str, mapping: dict[str, Formula]) -> Formula:
    if name not in AXIOMS:
        raise ProofError(f"unknown axiom {name!r}")
    schema = AXIOMS[name]
    variables = prop_variables(schema)
    missing = sorted(variables - set(mapping))
    if missing:
        raise ProofError(f"substitution for axiom {name} must cover {missing}")
    extra = sorted(set(mapping) - variables)
    if extra:
        raise ProofError(f"substitution for axiom {name} names {extra}, not in its schema")
    return apply_substitution(schema, mapping)


def apply_mp(major: Formula, minor: Formula) -> Formula:
    """Detach: from ~X v Y and X, infer Y."""
    if not (isinstance(major, Or) and isinstance(major.left, Not)):
        raise ProofError("major premiss is not a conditional")
    if major.left.operand != minor:
        raise ProofError(
            f"antecedent {print_formula(major.left.operand)} does not match "
            f"minor premiss {print_formula(minor)}"
        )
    return major.right


# ---------------------------------------------------------------------------
# scripts

@dataclass(frozen=True)
class ProofLine:
    label: str
    formula: Formula
    rule: str  # AX | MP | SUB
    args: tuple[str, ...]  # the axiom's name (AX) or the premisses' labels
    mapping: dict[str, Formula]  # the step's substitution; empty for MP


def _parse_mapping(text: str, where: str) -> dict[str, Formula]:
    entries: dict[str, Formula] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ProofError(f"{where}: empty substitution entry")
        var, eq, formula_text = chunk.partition("=")
        var = var.strip()
        if not eq or not formula_text.strip():
            raise ProofError(f"{where}: expected var=formula, got {chunk!r}")
        if not PROP_VAR.fullmatch(var):
            raise ProofError(f"{where}: {var!r} is not a propositional variable")
        if var in entries:
            raise ProofError(f"{where}: {var} is substituted for twice")
        try:
            entries[var] = parse(formula_text)
        except FormulaSyntaxError as exc:
            raise ProofError(f"{where}: {exc}") from None
    return entries


def _first_word(text: str) -> tuple[str, str]:
    """text's first word and the rest, split at any run of whitespace."""
    parts = text.split(None, 1) + ["", ""]
    return parts[0], parts[1]


def parse_script(text: str, source: str = "<script>") -> tuple[ProofLine, ...]:
    lines: list[ProofLine] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        head, sep, just_text = stripped.partition(";")
        if not sep:
            raise ProofError(f"{where}: missing '; JUSTIFICATION'")
        label, formula_text = _first_word(head)
        if not formula_text:
            raise ProofError(f"{where}: expected 'LABEL formula'")
        if label in seen:
            raise ProofError(f"{where}: duplicate label {label}")
        try:
            formula = parse(formula_text)
        except FormulaSyntaxError as exc:
            raise ProofError(f"{where}: {exc}") from None
        rule, rest = _first_word(just_text)
        if not rule:
            raise ProofError(f"{where}: empty justification")
        rule = rule.upper()
        mapping: dict[str, Formula] = {}
        if rule == "AX":
            name, mapping_text = _first_word(rest)
            if not name:
                raise ProofError(f"{where}: AX needs an axiom name")
            args: tuple[str, ...] = (name,)
            if mapping_text:
                mapping = _parse_mapping(mapping_text, where)
        elif rule == "MP":
            args = tuple(rest.split())
            if len(args) != 2:
                raise ProofError(f"{where}: MP takes two labels")
        elif rule == "SUB":
            source_label, mapping_text = _first_word(rest)
            if not mapping_text:
                raise ProofError(f"{where}: SUB takes a label and a substitution")
            args = (source_label,)
            mapping = _parse_mapping(mapping_text, where)
        else:
            raise ProofError(f"{where}: unknown justification {rule!r}")
        lines.append(ProofLine(label, formula, rule, args, mapping))
        seen.add(label)
    if not lines:
        raise ProofError(f"{source}: empty script")
    return tuple(lines)


def load_script(path: str) -> tuple[ProofLine, ...]:
    with open(path, encoding="utf-8") as fh:
        return parse_script(fh.read(), source=path)


# ---------------------------------------------------------------------------
# checking

@dataclass
class LineVerdict:
    label: str
    formula: str
    status: str  # valid | invalid | unchecked
    reason: str = ""
    tautology: bool | None = None


@dataclass
class ProofReport:
    valid: bool
    lines: list[LineVerdict] = field(default_factory=list)

    def first_invalid(self) -> LineVerdict | None:
        for lv in self.lines:
            if lv.status == "invalid":
                return lv
        return None

    def to_dict(self) -> dict:
        return {"valid": self.valid, "lines": [vars(lv) for lv in self.lines]}

    def to_text(self) -> str:
        out = []
        for lv in self.lines:
            mark = {"valid": "ok", "invalid": "FAIL", "unchecked": "--"}[lv.status]
            taut = ""
            if lv.tautology is not None:
                taut = " [tautology]" if lv.tautology else " [NOT A TAUTOLOGY]"
            reason = f" ({lv.reason})" if lv.reason else ""
            out.append(f"{lv.label:>4} {mark:<4} {lv.formula}{taut}{reason}")
        out.append("proof valid" if self.valid else "proof INVALID")
        return "\n".join(out)


def check_proof(
    script: tuple[ProofLine, ...], policy: str = "minimal", semantic: bool = True
) -> ProofReport:
    """Check every line's justification; optionally classify each line.

    After the first invalid line the remaining lines are reported
    unchecked, since their references may depend on the invalid line.
    """
    report = ProofReport(valid=True)
    derived: dict[str, Formula] = {}
    for line in script:
        verdict = LineVerdict(line.label, print_formula(line.formula), "unchecked")
        report.lines.append(verdict)
        if not report.valid:
            continue
        try:
            expected = _derive(line, derived)
            if expected != line.formula:
                raise ProofError(f"justification derives {print_formula(expected)}")
            if semantic:
                try:
                    kind = classify(line.formula, policy=policy).kind
                except ValueError as exc:
                    raise ProofError(f"not classifiable: {exc}") from None
                verdict.tautology = kind == "tautology"
                if not verdict.tautology:
                    raise ProofError("line is not a tautology")
        except ProofError as exc:
            report.valid = False
            verdict.status, verdict.reason = "invalid", str(exc)
            continue
        verdict.status = "valid"
        derived[line.label] = line.formula
    return report


def _derive(line: ProofLine, derived: dict[str, Formula]) -> Formula:
    if line.rule == "AX":
        return axiom_instance(line.args[0], line.mapping)
    premisses = [_lookup(label, derived) for label in line.args]
    if line.rule == "MP":
        return apply_mp(*premisses)
    return apply_substitution(premisses[0], line.mapping)


def _lookup(label: str, derived: dict[str, Formula]) -> Formula:
    if label not in derived:
        raise ProofError(f"label {label} does not refer to an earlier valid line")
    return derived[label]
