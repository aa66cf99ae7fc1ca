"""Hilbert-style proof checking over the disjunction/negation axioms."""
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pmsem.proof import (
    AXIOMS,
    ProofError,
    apply_mp,
    apply_substitution,
    axiom_instance,
    check_proof,
    load_script,
    parse_script,
)
from pmsem.propsem import classify
from pmsem.syntax import Not, Or, PropVar, parse, print_formula, prop_variables
from test_cli import assert_usage_error

PROOFS = Path(__file__).resolve().parent.parent / "proofs"

p, q, r = PropVar("p"), PropVar("q"), PropVar("r")


# ---------------------------------------------------------------------------
# axioms

def test_axiom_schemas_are_desugared():
    assert AXIOMS["Taut"] == parse("(p v p) => p")
    assert AXIOMS["Taut"] == Or(Not(Or(p, p)), p)


def test_every_axiom_schema_is_a_tautology():
    for name, schema in AXIOMS.items():
        assert classify(schema).kind == "tautology", name


def test_taut_instance():
    inst = axiom_instance("Taut", {"p": q})
    assert inst == parse("(q v q) => q")


def test_add_instance():
    inst = axiom_instance("Add", {"q": p, "p": p})
    assert inst == parse("p .=>. p v p")


def test_axiom_instances_stay_tautologies():
    mapping = {"p": parse("q v r"), "q": parse("~r"), "r": p}
    for name, schema in AXIOMS.items():
        inst = axiom_instance(name, {v: mapping[v] for v in prop_variables(schema)})
        assert classify(inst).kind == "tautology", name


def test_unknown_axiom_rejected():
    with pytest.raises(ProofError, match="unknown axiom"):
        axiom_instance("Simp", {"p": p})


def test_partial_substitution_rejected():
    with pytest.raises(ProofError, match="must cover"):
        axiom_instance("Sum", {"p": p})


# ---------------------------------------------------------------------------
# rules

def test_mp_detaches_consequent():
    major = parse("p .=>. q")
    assert apply_mp(major, p) == q


def test_mp_on_axiom_shape():
    major = parse("(p v p) .=>. p")
    assert apply_mp(major, parse("p v p")) == p


def test_mp_rejects_non_conditional():
    with pytest.raises(ProofError, match="not a conditional"):
        apply_mp(parse("p v q"), p)


def test_mp_rejects_mismatched_antecedent():
    with pytest.raises(ProofError, match="does not match"):
        apply_mp(parse("p .=>. q"), q)


def test_substitution_is_simultaneous():
    f = parse("p v r")
    out = apply_substitution(f, {"p": r, "r": p})
    assert out == parse("r v p")


def test_substitution_replaces_every_occurrence():
    f = parse("(p v p) => p")
    assert apply_substitution(f, {"p": q}) == parse("(q v q) => q")


@given(st.sampled_from(list(AXIOMS)), st.sampled_from([p, q, r, parse("q v r")]))
def test_axiom_instances_always_tautologies(name, sub):
    mapping = dict.fromkeys(prop_variables(AXIOMS[name]), sub)
    assert classify(axiom_instance(name, mapping)).kind == "tautology"


# ---------------------------------------------------------------------------
# script parsing

def test_script_lines_parse():
    s = parse_script("1 (p v p) => p ; AX Taut p=p")
    assert len(s) == 1
    assert s[0].label == "1"


def test_script_skips_comments_and_blanks():
    s = parse_script("# comment\n\n1 (p v p) => p ; AX Taut p=p\n")
    assert len(s) == 1


def test_script_rejects_duplicate_labels():
    text = "1 (p v p) => p ; AX Taut p=p\n1 (q v q) => q ; AX Taut p=q"
    with pytest.raises(ProofError, match="duplicate"):
        parse_script(text)


def test_script_rejects_missing_justification():
    with pytest.raises(ProofError, match="missing"):
        parse_script("1 (p v p) => p")


def test_script_rejects_bad_formula():
    with pytest.raises(ProofError):
        parse_script("1 p v ; AX Taut p=p")


def test_script_rejects_unknown_keyword():
    with pytest.raises(ProofError, match="unknown justification"):
        parse_script("1 p ; ASSUME")


@pytest.mark.parametrize("line, message", [
    ("1 p ; AX Taut p=p,", "empty substitution entry"),
    ("1 p ; AX Taut p", "expected var=formula, got 'p'"),
    ("1 p ; AX Taut p=(", "expected a formula, found '' (at position 1)"),
    ("1 ; AX Taut p=p", "expected 'LABEL formula'"),
    ("1 p ;", "empty justification"),
    ("1 p ; AX", "AX needs an axiom name"),
    ("1 p ; MP 1", "MP takes two labels"),
    ("1 p ; SUB 1", "SUB takes a label and a substitution"),
])
def test_script_line_refusals(tmp_path, capsys, line, message):
    path = tmp_path / "s.proof"
    path.write_text(line + "\n")
    assert assert_usage_error(capsys, "check-proof", str(path)) == f"error: {path}:1: {message}\n"


def test_script_rejects_empty():
    with pytest.raises(ProofError, match="empty"):
        parse_script("# nothing here\n")


# ---------------------------------------------------------------------------
# checking

def test_single_axiom_line_checks():
    report = check_proof(parse_script("1 (p v p) => p ; AX Taut p=p"))
    assert report.valid
    assert report.lines[0].status == "valid"
    assert report.lines[0].tautology is True


def test_lines_after_failure_are_unchecked():
    text = """
    1 (p v p) => p ; AX Taut p=p
    2 q v q ; AX Add p=q, q=q
    3 (q v q) => q ; AX Taut p=q
    """
    report = check_proof(parse_script(text))
    assert not report.valid
    assert [lv.status for lv in report.lines] == ["valid", "invalid", "unchecked"]


def test_semantic_check_can_be_disabled():
    report = check_proof(parse_script("1 (p v p) => p ; AX Taut p=p"), semantic=False)
    assert report.valid
    assert report.lines[0].tautology is None


def test_unclassifiable_line_is_invalid_without_a_tautology_mark(tmp_path):
    script = tmp_path / "quantified_sub.proof"
    script.write_text(
        "1 (p v p) => p ; AX Taut p=p\n"
        "2 (~(((x).S(x)) v ((x).S(x))) v ((x).S(x))) ; SUB 1 p=((x).S(x))\n"
    )
    report = check_proof(load_script(str(script)))
    assert not report.valid
    line = report.lines[1]
    assert (line.status, line.tautology) == ("invalid", None)
    assert line.reason == (
        "not classifiable: eval_prop takes propositional formulas; use eval_fo for quantifiers"
    )
    assert "[NOT A TAUTOLOGY]" not in report.to_text()
    assert report.to_dict()["lines"][1]["tautology"] is None


def test_line_classified_contingent_is_not_a_tautology(monkeypatch):
    class Contingent:
        kind = "contingent"

    monkeypatch.setattr("pmsem.proof.classify", lambda f, policy: Contingent())
    report = check_proof(parse_script("1 (p v p) => p ; AX Taut p=p"))
    assert not report.valid
    line = report.lines[0]
    assert (line.status, line.tautology, line.reason) == (
        "invalid", False, "line is not a tautology"
    )
    assert "[NOT A TAUTOLOGY] (line is not a tautology)" in report.to_text()


def test_report_text_and_dict():
    report = check_proof(parse_script("1 (p v p) => p ; AX Taut p=p"))
    assert "proof valid" in report.to_text()
    d = report.to_dict()
    assert d["valid"] is True
    assert d["lines"][0]["status"] == "valid"


# ---------------------------------------------------------------------------
# bundled corpus

VALID = sorted((PROOFS / "valid").glob("*.proof"))
INVALID = sorted((PROOFS / "invalid").glob("*.proof"))


def test_corpus_is_large_enough():
    assert len(VALID) >= 5
    assert len(INVALID) >= 5


@pytest.mark.parametrize("path", VALID, ids=lambda p_: p_.stem)
def test_valid_corpus_checks(path):
    report = check_proof(load_script(str(path)))
    assert report.valid
    assert report.first_invalid() is None
    assert all(lv.status == "valid" for lv in report.lines)
    assert all(lv.tautology for lv in report.lines)


@pytest.mark.parametrize("path", INVALID, ids=lambda p_: p_.stem)
def test_invalid_corpus_rejected_at_marked_line(path):
    text = path.read_text()
    expected = re.search(r"# expect-invalid: (\S+)", text).group(1)
    report = check_proof(load_script(str(path)))
    assert not report.valid
    first = report.first_invalid()
    assert first is not None
    assert first.label == expected
    later = [lv for lv in report.lines if lv.label > first.label]
    assert all(lv.status == "unchecked" for lv in later)


@pytest.mark.parametrize("path", VALID + INVALID, ids=lambda p_: p_.stem)
def test_tabs_separate_words_as_spaces_do(path):
    """Every space of a corpus script may be a tab: between label and
    formula, rule and arguments, axiom name or SUB label and mapping."""
    text = path.read_text()
    tabbed = check_proof(parse_script(text.replace(" ", "\t")))
    assert tabbed.to_dict() == check_proof(parse_script(text)).to_dict()


def test_derivation_of_self_implication():
    report = check_proof(load_script(str(PROOFS / "valid" / "imp_self.proof")))
    assert report.valid
    assert report.lines[-1].formula == print_formula(parse("~p v p"))
