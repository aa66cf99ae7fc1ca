"""Command line behavior: output, exit codes, determinism."""
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pmsem.cli as cli
import pmsem.propsem as propsem
from pmsem.cli import build_parser, main
from pmsem.oracle import enumerate_formulas
from pmsem.propsem import compile_program
from pmsem.syntax import MAX_DEPTH, MAX_NODES, PropVar, parse, print_formula

PROOFS = Path(__file__).resolve().parent.parent / "proofs"


@pytest.fixture
def world_file(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text(
        "individual a\nindividual b\nrelation S/1\nfact S(a)\nprop P true\n"
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse

def test_parse_prints_canonical_form(capsys):
    code, out, _ = run(capsys, "parse", "p v q .=>. q v p")
    assert code == 0
    assert out.strip() == "(~(p v q) v (q v p))"


def test_parse_json_lists_variables(capsys):
    code, out, _ = run(capsys, "parse", "(x). S(x) v p", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["prop_variables"] == ["p"]
    assert data["predicates"] == ["S"]
    assert data["free_variables"] == []


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "parse", "p v")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text", ["p\u00b2", "p\u0661 v q", "\u00c9x(x)"])
def test_names_outside_ascii_exit_2(capsys, text):
    for command in ("parse", "eval", "taut"):
        assert_usage_error(capsys, command, text)


def formula_commands(tmp_path, text):
    """argv lists that parse text: each formula command and a proof line."""
    script = tmp_path / "line.proof"
    script.write_text(f"1 {text} ; AX Taut p=p\n")
    commands = [[c, text] for c in ("parse", "eval", "taut", "fo-valid")]
    return commands + [["check-proof", str(script)]]


@pytest.mark.parametrize(
    "text",
    ["~" * 3000 + "p", " v ".join(["p"] * 600), " <=> ".join(["p"] * 30)],
    ids=["deep-negation", "long-chain", "biconditional-chain"],
)
def test_formula_out_of_bounds_exits_2(tmp_path, capsys, text):
    for argv in formula_commands(tmp_path, text):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv[0]
        assert (code, out) == (2, ""), argv[0]
        assert err.startswith("error: ") and err.count("\n") == 1, err


def balanced(height):
    """A full disjunction tree of p with the given number of levels."""
    if height == 1:
        return "p"
    half = balanced(height - 1)
    return f"({half} v {half})"


def test_formulas_at_the_bounds_are_decided(tmp_path, capsys):
    deep = "~" * (MAX_DEPTH - 1) + "p"
    wide = balanced(MAX_NODES.bit_length() - 1)  # the largest full tree within MAX_NODES
    for text in (deep, wide):
        for argv in formula_commands(tmp_path, text):
            code, _, err = run(capsys, *argv)
            assert code in (0, 1) and err == "", (argv[0], err)
    # a valid proof line at the depth bound
    script = tmp_path / "deep.proof"
    inner = "~" * (MAX_DEPTH - 3) + "p"
    script.write_text(f"1 ~p v ({inner} v p) ; AX Add p={inner}, q=p\n")
    assert run(capsys, "check-proof", str(script))[0] == 0


# ---------------------------------------------------------------------------
# eval / taut

def test_eval_lists_assignments(capsys):
    code, out, _ = run(capsys, "eval", "~(p v q)")
    assert code == 0
    assert "p=false, q=false | true" in out
    assert "{{<P+,0>, <Q+,0>}}" in out


def test_eval_json_schema(capsys):
    code, out, _ = run(capsys, "eval", "p", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["formula"] == "p"
    assert len(data["assignments"]) == 2
    assert data["assignments"][0]["true"] is True


def test_eval_compiles_once(capsys, monkeypatch):
    """`pm eval` compiles its formula once and runs it at each of its
    assignments."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return compile_program(*args, **kwargs)

    monkeypatch.setattr(propsem, "compile_program", counting)
    monkeypatch.setattr(cli, "compile_program", counting, raising=False)
    code, out, _ = run(capsys, "eval", "(p v q) .=>. r")
    assert code == 0 and len(out.splitlines()) == 3 + 8
    assert len(calls) == 1


def test_taut_accepts_tautology(capsys):
    code, out, _ = run(capsys, "taut", "p v ~p")
    assert code == 0
    assert out.strip() == "tautology"


def test_taut_rejects_contradiction(capsys):
    code, out, _ = run(capsys, "taut", "p . ~p")
    assert code == 1
    assert out.strip() == "contradiction"


def test_taut_reports_contingent_witnesses(capsys):
    code, out, _ = run(capsys, "taut", "p v q")
    assert code == 1
    assert "true under" in out
    assert "false under" in out


def test_taut_with_world_file(capsys, world_file):
    code, out, _ = run(capsys, "taut", "p v ~p", "--world", world_file)
    assert code == 0
    assert out.strip() == "tautology"


def test_taut_sampled_requires_seed(capsys):
    code, _, err = run(capsys, "taut", "p v ~p", "--mode", "sampled", "--count", "5")
    assert code == 2
    assert "seed" in err


def test_minimal_transversal_budget(tmp_path, capsys):
    # A negation inside the cyclic chain faces 16 members, more than 2^18
    # choice sets of one pair per member; step by step it is decided at once.
    cyclic = "~~((p v ~q) . (q v ~r) . (r v ~p1) . (p1 v ~p))"
    start = time.perf_counter()
    code, out, _ = run(capsys, "taut", cyclic)
    assert time.perf_counter() - start < 1
    assert (code, out) == (
        1,
        "contingent\n  true under p=true, p1=true, q=true, r=true\n"
        "  false under p=true, p1=true, q=true, r=false\n",
    )
    assert run(capsys, "taut", cyclic, "--policy", "full")[:2] == (code, out)
    # Four disjoint members of 24 pairs: the fourth step would build
    # 24^4 candidates, past the budget.
    path = tmp_path / "w.txt"
    path.write_text(
        "".join(f"individual a{i}\n" for i in range(24))
        + "".join(f"relation {name}/1\n" for name in "SRTU")
    )
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "fo-eval",
        "~(((x).S(x)) v ((x).R(x)) v ((x).T(x)) v ((x).U(x)))",
        "--model",
        str(path),
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "choice sets" in err


SAMPLED = ["--mode", "sampled", "--seed", "1", "--count", "1"]


@pytest.mark.parametrize(
    "argv",
    [["eval", "p"], ["taut", "p"], ["fo-valid", "(x).S(x) v p"], ["compare", "--vars", "1"]],
    ids=lambda argv: argv[0],
)
def test_size_bound_budget(capsys, argv):
    start = time.perf_counter()
    assert_usage_error(capsys, *argv, *SAMPLED, "--size-bound", "100000000")
    assert time.perf_counter() - start < 1


def test_sampled_mode_without_variables(capsys):
    code, out, err = run(capsys, "eval", "S(x)", *SAMPLED)
    assert (code, out) == (2, "")
    assert err == "error: eval_prop takes propositional formulas; use eval_fo for predicates\n"
    code, out, _ = run(capsys, "fo-valid", "(x).S(x) v ~S(x)", *SAMPLED)
    assert code == 0 and out.startswith("logical_truth (14 worlds checked)")
    assert_usage_error(capsys, "fo-valid", "(x).S(x) v ~S(x)", "--mode", "sampled")
    code, out, _ = run(capsys, "compare", "--vars", "0", *SAMPLED)
    assert code == 0 and "propositional: 0 formulas, 0 checks" in out


# ---------------------------------------------------------------------------
# fo-eval / fo-valid

def test_fo_eval_true_formula(capsys, world_file):
    code, out, _ = run(capsys, "fo-eval", "(Ex). S(x)", "--model", world_file)
    assert code == 0
    assert "true" in out


def test_fo_eval_false_formula_exits_1(capsys, world_file):
    code, out, _ = run(capsys, "fo-eval", "(x). S(x)", "--model", world_file)
    assert code == 1
    assert "false" in out


@pytest.mark.parametrize(
    "lines, message",
    [
        ("relation R/2", "expected 'relation NAME/1'"),
        ("relation S", "expected 'relation NAME/1'"),
        ("relation R/1\nfact R(a,b)", "expected 'fact NAME(individual)'"),
        ("relation S/1\nfact S(a)(b)", "expected 'fact NAME(individual)'"),
        ("relation S/1\nfact S(c)", "fact mentions undeclared individual c"),
        ("relation s/1\nfact s(a)", "w.txt:3: relation 's' is not a predicate name"),
        ("relation 1S/1", "w.txt:3: relation '1S' is not a predicate name"),
        ("relation S/1\nprop x true", "w.txt:4: constant 'x' carries no propositional variable"),
        ("prop p true", "w.txt:3: constant 'p' carries no propositional variable"),
        ("prop S true", "w.txt:3: constant 'S' carries no propositional variable"),
        ("prop Q1b false", "w.txt:3: constant 'Q1b' carries no propositional variable"),
        ("individual a,b", "w.txt:3: individual 'a,b' is not an individual name"),
        ("individual a;", "w.txt:3: individual 'a;' is not an individual name"),
        ("individual {b}", "w.txt:3: individual '{b}' is not an individual name"),
        ("individual B", "w.txt:3: individual 'B' is not an individual name"),
        ("relation S/1\nfact S(a;)", "w.txt:4: expected 'fact NAME(individual)'"),
    ],
)
def test_world_file_relations_are_monadic(tmp_path, capsys, lines, message):
    path = tmp_path / "w.txt"
    path.write_text(f"individual a\nindividual b\n{lines}\n")
    code, out, err = run(capsys, "fo-eval", "(x).S(x)", "--model", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("S(x5) v S(y7)", "unbound individual variables: ['x5', 'y7']"),
        ("(x).R(x)", "unknown relation R"),
    ],
)
def test_fo_eval_input_errors(tmp_path, capsys, text, message):
    path = tmp_path / "w.txt"
    path.write_text("individual a\nrelation S/1\n")
    code, out, err = run(capsys, "fo-eval", text, "--model", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fo_eval_needs_model(capsys):
    code, _, err = run(capsys, "fo-eval", "(x). S(x)")
    assert code == 2
    assert "world file" in err


def test_fo_eval_base_mode_any(capsys, world_file):
    code, out, _ = run(
        capsys, "fo-eval", "S(x)", "--model", world_file, "--base-mode", "any:x"
    )
    assert code == 0


@pytest.mark.parametrize("base_mode", ["some", "any", "any:", "all:x", "any:w"])
def test_fo_eval_rejects_bad_base_mode(capsys, world_file, base_mode):
    assert_usage_error(capsys, "fo-eval", "S(x)", "--model", world_file, "--base-mode", base_mode)


def test_fo_eval_json(capsys, world_file):
    code, out, _ = run(capsys, "fo-eval", "(Ex). S(x)", "--model", world_file, "--json")
    data = json.loads(out)
    assert code == 0
    assert data["true"] is True
    assert data["meaning"].startswith("{{")


def test_fo_valid_accepts_logical_truth(capsys):
    code, out, _ = run(capsys, "fo-valid", "(x). S(x) v ~S(x)")
    assert code == 0
    assert "logical_truth" in out


def test_fo_valid_reports_witness(capsys):
    code, out, _ = run(capsys, "fo-valid", "(Ex).S(x) .=>. (x).S(x)")
    assert code == 1
    assert "falsifiable" in out
    assert "S(a)" in out


def test_fo_valid_counts_worlds_and_grounds_the_witness(capsys):
    assert run(capsys, "fo-valid", "(x).S(x) v p v ~p") == (
        0, "logical_truth (14 worlds checked)\n", ""
    )
    assert run(capsys, "fo-valid", "(x).S(x) v p") == (
        1,
        "falsifiable (1 worlds checked)\n"
        "  false in individuals {a}; facts {none}; P=false; p=false\n",
        "",
    )


def test_fo_valid_rejects_open_formula(capsys):
    code, _, err = run(capsys, "fo-valid", "S(x)")
    assert code == 2


def assert_usage_error(capsys, *argv):
    """Run pm; it must exit 2 with one error line and no report, which
    is returned."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_fo_valid_rejects_empty_world_bound(capsys, bound):
    assert_usage_error(capsys, "fo-valid", "(x).S(x)", "--max-individuals", bound)


def test_fo_valid_world_budget(capsys):
    start = time.perf_counter()
    assert_usage_error(capsys, "fo-valid", "(x).S(x)", "--max-individuals", "30")
    assert time.perf_counter() - start < 1
    code, out, _ = run(capsys, "fo-valid", "(x).S(x) v ~S(x)", "--max-individuals", "3")
    assert code == 0 and out.startswith("logical_truth (14 worlds checked)")


# ---------------------------------------------------------------------------
# compare

def test_compare_small_sweep_passes(capsys):
    code, out, _ = run(capsys, "compare", "--vars", "2", "--prop-depth", "2")
    assert code == 0
    assert "disagreements: 0" in out
    assert "verdict: PASS" in out


def test_compare_json_report(capsys):
    code, out, _ = run(capsys, "compare", "--vars", "1", "--prop-depth", "1", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["verdict"] == "PASS"
    assert data["disagreement_count"] == 0


def test_compare_fo_sweep(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "--no-prop",
        "--fo",
        "--fo-ind-vars",
        "x",
        "--fo-size",
        "4",
        "--fo-individuals",
        "2",
    )
    assert code == 0
    assert "quantified" in out


def test_compare_reports_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["compare", "--vars", "2", "--prop-depth", "2", "--json"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_sampled_reports_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    args = [
        "compare", "--vars", "1", "--mode", "sampled", "--seed", "7",
        "--count", "5", "--json",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_sweeps_variables_that_parse_back(capsys):
    for n in range(9):
        code, out, _ = run(capsys, "compare", "--vars", str(n), "--prop-depth", "0", "--json")
        names = json.loads(out)["config"]["prop_vars"]
        assert code == 0 and len(names) == n
        assert all(parse(v) == PropVar(v) for v in names)
    assert run(capsys, "compare", "--vars", "8", "--prop-depth", "1")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--no-prop", "--fo", "--fo-individuals", "0"],
        ["--prop-depth", "-1"],
        ["--vars", "2", "--prop-size", "0"],
        ["--no-prop", "--fo", "--fo-depth", "-1"],
        ["--no-prop", "--fo", "--fo-size", "0"],
        ["--no-prop"],
        ["--no-prop", "--fo", "--fo-quantifiers", "-1"],
        ["--no-prop", "--fo", "--fo-size", "10", "--fo-depth", "3", "--fo-individuals", "0"],
        ["--no-prop", "--fo", "--fo-size", "10", "--fo-depth", "3", "--mode", "sampled",
         "--seed", "1", "--count", "0"],
        ["--no-prop", "--fo", "--fo-size", "10", "--fo-depth", "3", "--mode", "sampled",
         "--count", "0"],
        ["--no-prop", "--fo", "--fo-size", "10", "--fo-depth", "3", "--mode", "sampled",
         "--seed", "1", "--count", "0", "--size-bound", "0"],
    ],
)
def test_compare_rejects_bounds_that_check_nothing(capsys, argv):
    start = time.perf_counter()
    assert_usage_error(capsys, "compare", *argv)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", ["-1", "9"])
def test_compare_vars_out_of_range(capsys, n):
    code, out, err = run(capsys, "compare", "--vars", n)
    assert (code, out, err) == (2, "", "error: --vars must be between 0 and 8\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--fo-predicates", "s"],
        ["--fo-predicates", "S,"],
        ["--fo-ind-vars", ","],
        ["--fo-ind-vars", "p"],
        ["--fo-ind-vars", "x, y"],
        ["--fo-prop-vars", "x"],
        ["--fo-prop-vars", "P"],
    ],
)
def test_compare_rejects_names_that_do_not_parse_back(capsys, argv):
    assert_usage_error(capsys, "compare", "--no-prop", "--fo", "--fo-size", "1", *argv)


def test_compare_sweeps_a_repeated_name_once(capsys):
    def counts(prop_vars):
        code, out, _ = run(
            capsys, "compare", "--no-prop", "--fo", "--fo-size", "3",
            "--fo-individuals", "1", "--fo-prop-vars", prop_vars, "--json",
        )
        data = json.loads(out)
        return code, data["fo_formulas"], data["fo_checks"]

    assert counts("p,p") == counts("p") == (0, 68, 400)


def test_assignment_budget(capsys):
    start = time.perf_counter()
    thirteen = " v ".join(f"p{i}" for i in range(13))
    assert_usage_error(capsys, "taut", thirteen)
    assert_usage_error(capsys, "taut", "p", "--mode", "sampled", "--seed", "1", "--count", "4097")
    assert_usage_error(capsys, "compare", "--vars", "1", "--mode", "sampled", "--seed", "1",
                       "--count", "100000")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--vars", "8"],
        ["--vars", "8", "--prop-depth", "3"],
        ["--vars", "3", "--prop-depth", "13", "--prop-size", "14"],
        ["--no-prop", "--fo", "--fo-individuals", "6"],
        ["--vars", "2", "--mode", "sampled", "--seed", "1", "--count", "1000",
         "--size-bound", "16"],
    ],
)
def test_compare_sweep_budgets(capsys, argv):
    start = time.perf_counter()
    assert_usage_error(capsys, "compare", *argv)
    assert time.perf_counter() - start < 2


def test_compare_within_the_sweep_budgets(capsys):
    code, out, _ = run(capsys, "compare", "--vars", "7", "--prop-depth", "1", "--json")
    assert code == 0
    assert json.loads(out)["prop_checks"] == 63 * 2**7 * 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--vars", "2", "--prop-depth", "1", "--prop-size", "100000"],
        ["--vars", "0", "--prop-size", "100000"],
        ["--no-prop", "--fo", "--fo-depth", "1", "--fo-size", "100000"],
    ],
)
def test_compare_size_bound_beyond_the_depth_bound(capsys, argv):
    start = time.perf_counter()
    assert run(capsys, "compare", *argv)[0] == 0
    assert time.perf_counter() - start < 1


def test_compare_text_header_reports_seed(capsys):
    code, out, _ = run(
        capsys, "compare", "--vars", "1", "--mode", "sampled", "--seed", "3",
        "--count", "2",
    )
    assert code == 0
    assert "seed=3" in out


# ---------------------------------------------------------------------------
# check-proof

def test_check_proof_valid_corpus(capsys):
    path = str(PROOFS / "valid" / "imp_self.proof")
    code, out, _ = run(capsys, "check-proof", path)
    assert code == 0
    assert "proof valid" in out


def test_check_proof_invalid_corpus(capsys):
    path = str(PROOFS / "invalid" / "bad_mp_antecedent.proof")
    code, out, _ = run(capsys, "check-proof", path)
    assert code == 1
    assert "proof INVALID" in out


def test_check_proof_json(capsys):
    path = str(PROOFS / "valid" / "taut_instance.proof")
    code, out, _ = run(capsys, "check-proof", path, "--json")
    data = json.loads(out)
    assert code == 0
    assert data["valid"] is True


def test_check_proof_missing_file(capsys):
    code, _, err = run(capsys, "check-proof", "/nonexistent.proof")
    assert code == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("1 (q v q) => q ; AX Taut p=q, S=r", 1),
        ("1 (q v q) => q ; AX Taut p=r, p=q", 1),
        ("1 (q v q) => q ; AX Taut p=q\n2 (q v q) => q ; SUB 1 zz=p", 2),
    ],
    ids=["predicate-name", "repeated-name", "not-a-variable"],
)
def test_check_proof_rejects_substitution_names(tmp_path, capsys, text, line):
    script = tmp_path / "names.proof"
    script.write_text(text + "\n")
    code, out, err = run(capsys, "check-proof", str(script))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {script}:{line}: ") and err.count("\n") == 1, err


def test_check_proof_rejects_an_axiom_substitution_for_an_absent_variable(tmp_path, capsys):
    script = tmp_path / "extra.proof"
    script.write_text("1 (q v q) => q ; AX Taut p=q, r=p\n")
    code, out, _ = run(capsys, "check-proof", str(script))
    assert code == 1
    assert "substitution for axiom Taut names ['r'], not in its schema" in out
    assert out.splitlines()[-1] == "proof INVALID"


def test_check_proof_no_semantic_flag(capsys):
    path = str(PROOFS / "valid" / "taut_instance.proof")
    code, out, _ = run(capsys, "check-proof", path, "--no-semantic")
    assert code == 0
    assert "tautology" not in out


# ---------------------------------------------------------------------------
# usage errors

def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2


def test_out_of_memory_exits_2(capsys, monkeypatch):
    """A command that runs out of memory is refused with one error line,
    not a traceback and not exit 1, which would mean disagreements."""
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_compare", exhausted)
    # a parser of its own, which takes the patched command as its default
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert run(capsys, "compare", "--vars", "2") == (2, "", "error: out of memory\n")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = main(["taut", "p v ~p", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().strip() == "tautology"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", [
    ["parse", "p v q .=>. q v p"],
    ["eval", "~(p v q)", "--policy", "full"],
    ["taut", "p v ~q"],
    ["fo-eval", "S(y)", "--base-mode", "any:y", "--model"],
    ["fo-valid", "(x).S(x)"],
    ["compare", "--vars", "2", "--fo", "--fo-size", "3"],
    ["check-proof", str(PROOFS / "invalid" / "unknown_axiom.proof")],
], ids=lambda argv: argv[0])
def test_out_file_holds_the_bytes_stdout_gets(tmp_path, capsys, world_file, argv, json_flag):
    if argv[-1] == "--model":
        argv = argv + [world_file]
    code, out, _ = run(capsys, *argv, *json_flag)
    target = tmp_path / "report"
    assert run(capsys, *argv, *json_flag, "--out", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode()


# ---------------------------------------------------------------------------
# one parser per process

def test_parser_reuse_leaks_no_state(world_file):
    """Calls through the shared parser print what a fresh parser would.

    Each pair of valid calls differs only in a default, so a value left
    over from the first would show in the second; the argparse failures
    sit between them.
    """
    sequence = [
        ["taut", "p v ~p", "--policy", "full", "--json"],
        [],
        ["taut", "p v ~p", "--json"],
        ["frobnicate"],
        ["compare", "--vars", "1", "--prop-depth", "1", "--json"],
        ["taut"],
        ["compare", "--vars", "1", "--prop-depth", "1"],
        ["taut", "p", "--policy", "bogus"],
        ["eval", "p", "--mode", "sampled", "--seed", "1", "--count", "2"],
        ["eval", "p", "--seed", "x"],
        ["eval", "p"],
        ["--help"],
        ["fo-eval", "S(x)", "--model", world_file, "--base-mode", "any:x", "--json"],
        ["compare", "--help"],
        ["fo-eval", "S(x)", "--model", world_file, "--json"],
    ]

    def outcomes(fresh):
        results = []
        for argv in sequence:
            if fresh:
                build_parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    parser = build_parser()
    reused = outcomes(fresh=False)
    assert build_parser() is parser
    assert reused == outcomes(fresh=True)
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 0, 0, 0, 1]
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# the exit-code contract under random invocations

SMALL = st.integers(-2, 3).map(str)
FORMULA_TEXTS = st.one_of(
    st.sampled_from([
        print_formula(f) for f in enumerate_formulas(("p", "q"), max_depth=3, max_size=5)
    ]),
    st.sampled_from([
        print_formula(f)
        for f in enumerate_formulas(("p",), ("S", "R"), max_depth=3, max_quantifiers=2,
                                    max_size=4)
    ]),
    st.text(alphabet=" .~(),<=>vpqrxyz01SRE#", max_size=16),
)


def value(strategy):
    return strategy.map(lambda v: [v])


def enumeration(counts=SMALL, size_bounds=SMALL):
    """The assignment flags, drawing --count and --size-bound from the
    strategies given."""
    return {
        # A sampled mode mostly with its seed and count, sometimes without.
        "--mode": st.one_of(
            st.just(["canonical"]),
            st.tuples(SMALL, counts).map(lambda sc: ["sampled", "--seed", sc[0], "--count", sc[1]]),
            st.just(["sampled"]),
        ),
        "--seed": value(SMALL),
        "--count": value(counts),
        "--size-bound": value(size_bounds),
    }


# The refusal edges: MAX_ASSIGNMENTS and MAX_SIZE_BOUND, then one past
# each.  A count of 4,096 runs past the deadline under fo-valid (5.5 s
# for "(x).S(x) v p v ~p") and compare, so only taut, which stops at
# its second witness, draws it; eval runs every assignment, so it
# draws the size bound's edge alone.
EDGE_COUNTS = st.one_of(SMALL, st.sampled_from(["4096", "4097"]))
EDGE_SIZE_BOUNDS = st.one_of(SMALL, st.sampled_from(["16", "17"]))
ENUMERATION = enumeration()
POLICY = {"--policy": value(st.sampled_from(["minimal", "full"]))}
SWITCH = st.just([])
OUTPUT = {"--json": SWITCH, "--out": SWITCH}  # --out takes the fixture's path


def command_options(files):
    """Each subcommand's flags, each with a strategy for the words after it."""
    worlds = value(st.sampled_from([files["world"], files["proof"], files["missing"]]))
    return {
        "parse": {**OUTPUT},
        "eval": {"--world": worlds, **POLICY, **enumeration(size_bounds=EDGE_SIZE_BOUNDS),
                 **OUTPUT},
        "taut": {"--world": worlds, **POLICY, **enumeration(EDGE_COUNTS, EDGE_SIZE_BOUNDS),
                 **OUTPUT},
        "fo-eval": {
            "--model": worlds,
            "--base-mode": value(st.sampled_from(["all", "any:x", "any:z9", "any", "bogus"])),
            **POLICY,
            **OUTPUT,
        },
        "fo-valid": {"--max-individuals": value(SMALL), **POLICY, **ENUMERATION, **OUTPUT},
        "compare": {
            "--vars": value(SMALL),
            "--prop-depth": value(SMALL),
            "--no-prop": SWITCH,
            "--fo": SWITCH,
            "--fo-predicates": value(st.sampled_from(["S", "S,R", "", "s", "S,S"])),
            "--fo-prop-vars": value(st.sampled_from(["", "p", "p,q", "x"])),
            "--fo-ind-vars": value(st.sampled_from(["x,y", "x", "", "p", "x,x"])),
            "--fo-depth": value(SMALL),
            "--fo-quantifiers": value(SMALL),
            "--policy": value(st.sampled_from(["minimal", "full", "both"])),
            **ENUMERATION,
            **OUTPUT,
        },
        "check-proof": {"--no-semantic": SWITCH, **POLICY, **OUTPUT},
    }


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    world = root / "w.txt"
    world.write_text("individual a\nindividual b\nrelation S/1\nfact S(a)\nprop P true\n")
    proofs = sorted(str(p) for p in PROOFS.rglob("*.proof"))
    return {
        "world": str(world),
        "proof": proofs[0],
        "proofs": proofs,
        "missing": str(root / "missing.txt"),
        "out": str(root / "out.txt"),
    }


@st.composite
def invocations(draw, files):
    options = command_options(files)
    command = draw(st.sampled_from(sorted(options)))
    argv = [command]
    if command == "check-proof":
        argv.append(draw(st.sampled_from(files["proofs"] + [files["world"], files["missing"]])))
    elif command != "compare":
        argv.append(draw(FORMULA_TEXTS))
        if command == "fo-eval" and draw(st.booleans()):
            argv += ["--model", files["world"]]
    else:
        # The default sweeps take seconds; every example bounds them.
        argv += ["--prop-size", draw(SMALL), "--fo-size", draw(SMALL)]
        argv += ["--fo-individuals", draw(st.integers(-1, 2).map(str))]
    flags = options[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=5, unique=True)):
        argv += [flag] + draw(flags[flag])
        if flag == "--out":
            argv.append(files["out"])
    return argv


@given(st.data())
@settings(max_examples=150, deadline=2000)
def test_exit_code_contract(fuzz_files, data):
    argv = data.draw(invocations(fuzz_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
