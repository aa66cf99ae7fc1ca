"""The four workloads: their ops and the check of every op's output.

An op is one call into the program that yields a verdict: a
`check_equivalence` sweep, a `classify` call or one `pm` command run
in-process.  `run` is timed; `check` is not.  `check` compares the
result with an answer the benchmark works out itself and returns the
number of checks the op decided: (formula, assignment or world, policy)
evaluations, as the program's reports count them.

Ops call the program through module attributes (`oracle.check_equivalence`,
`propsem.classify`, `cli.main`) so that a traced run sees the wrappers.
The checks use `parse`, `print_formula` and the `inputs` references,
bound when this module is imported and so never traced.
"""
from __future__ import annotations

import io
import itertools
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import pmsem.cli as cli
import pmsem.oracle as oracle
import pmsem.propsem as propsem
from pmsem.propsem import enumerate_assignments
from pmsem.syntax import PredApp, PropVar, parse, print_formula
from pmsem.oracle import tarski_eval, truth_table_eval

import inputs

POLICIES = ("minimal", "full")
PQR = ("p", "q", "r")
PROPS = ("p", "q")  # propositional variables of fo-eval inputs; world files declare P and Q


class WrongAnswer(Exception):
    """An op's output differs from the benchmark's own answer."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], int]
    deadline_s: float


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def check_roundtrip(ast) -> str:
    """The canonical text of ast, after checking it parses back to ast."""
    text = print_formula(ast)
    expect(parse(text) == ast, f"parse(print_formula(f)) != f for {text}")
    return text


# ---------------------------------------------------------------------------
# sweeps: exhaustive, the same for every seed

def sweep_op(name, config, formulas, points, prop_eval=None, fo_eval=None, deadline_s=60.0):
    """One check_equivalence call held to the count contract.

    points is the number of assignments (propositional) or worlds (FO)
    each formula is checked at; every point is checked per policy.
    """
    injected = {k: v for k, v in (("prop_eval", prop_eval), ("fo_eval", fo_eval)) if v}

    def run():
        return oracle.check_equivalence(config, **injected)

    def check(report):
        expect(report.ok, f"{report.disagreement_count} disagreements")
        if config.include_prop:
            expect(report.prop_formulas == formulas, f"{report.prop_formulas} prop formulas")
            expect(report.prop_checks == formulas * points * len(config.policies),
                   f"{report.prop_checks} prop checks")
        if config.include_fo:
            expect(report.fo_formulas == formulas, f"{report.fo_formulas} fo formulas")
            expect(report.fo_checks == formulas * points * len(config.policies),
                   f"{report.fo_checks} fo checks")
        return report.prop_checks + report.fo_checks

    return Op(name, run, check, deadline_s)


def prop_sweep(seed: int, root: Path, out_dir: Path) -> Iterator[list[Op]]:
    points = 2 ** len(PQR)
    passes = [
        [sweep_op("depth2", oracle.SweepConfig(prop_vars=PQR, max_depth=2), 243, points)],
        [sweep_op("size7", oracle.SweepConfig(prop_vars=PQR, max_depth=5, max_size=7), 1872, points)],
        [sweep_op("size8", oracle.SweepConfig(prop_vars=PQR, max_depth=6, max_size=8), 6789, points)],
    ]
    return itertools.cycle(passes)


def fo_sweep(seed: int, root: Path, out_dir: Path) -> Iterator[list[Op]]:
    config = oracle.SweepConfig(
        include_prop=False,
        include_fo=True,
        fo_predicates=("S",),
        fo_ind_vars=("x", "y"),
        fo_max_quantifiers=2,
        fo_max_size=6,
        fo_max_individuals=3,
    )
    worlds = sum(1 for _ in inputs.worlds_in_order(("S",)))
    ops = [sweep_op("one_predicate", config, 972, worlds)]
    return itertools.repeat(ops)


# ---------------------------------------------------------------------------
# negation_stress: classify called directly

NEGATION_DEADLINE_S = 2.5
SAMPLED_COUNT = 4
SAMPLED_SIZES = (5, 6, 7)  # formula nodes, as in a size-7 sampled sweep
SAMPLED_PER_SIZE = 3  # formulas of each size per pass, each under both policies
# Most choice sets a `minimal` negation of a sampled input may face:
# nine members of three pairs, the most that negating a disjunction of
# three sampled values gives.  Past it the product-then-filter
# transversals run into seconds, and an op must not fail by its
# deadline; KNOWN_DEFECTS keeps such inputs.
MAX_CHOICE_SETS = 3**9


def _truths(h) -> dict[str, bool]:
    return {v: inputs.meaning_truth(m) for v, m in h.values.items()}


def classify_op(name, ast, policy, *, seed=None, flip=False):
    """classify(ast) in canonical mode, or sampled mode when seed is set.

    flip inverts the verdict the program returns; the self-test uses it
    to show that a wrong verdict is caught.
    """
    names = sorted(inputs.names_in(ast, PropVar))
    sampled = seed is not None
    kwargs = dict(mode="sampled", seed=seed, count=SAMPLED_COUNT, size_bound=3) if sampled else {}

    def run():
        verdict = propsem.classify(ast, policy=policy, **kwargs)
        if flip:
            verdict.kind = {"tautology": "contradiction"}.get(verdict.kind, "tautology")
        return verdict

    def check(verdict):
        if sampled:
            points = [_truths(h) for h in enumerate_assignments(names, None, **kwargs)]
        else:
            points = list(inputs.valuations(names))
        expected = inputs.classify_by_table(ast, points)
        expect(verdict.kind == expected, f"verdict {verdict.kind}, table says {expected}")
        expect(verdict.assignments_checked == len(points),
               f"{verdict.assignments_checked} assignments checked")
        for witness, truth in ((verdict.witness_true, True), (verdict.witness_false, False)):
            if witness is not None:
                expect(truth_table_eval(ast, _truths(witness)) is truth, "wrong witness")
        return len(points)

    return Op(name, run, check, NEGATION_DEADLINE_S)


def cyclic_family(names):
    """~~ of the cyclic implication chain (a v ~b) . (b v ~c) ... (z v ~a)."""
    clauses = [("or", ("var", a), ("not", ("var", b))) for a, b in zip(names, names[1:] + names[:1])]
    chain = clauses[0]
    for clause in clauses[1:]:
        chain = ("and", chain, clause)
    return inputs.desugar(("not", ("not", chain)))


def nested_negation_formula(rng: random.Random, size: int):
    while True:
        ast = inputs.desugar(inputs.prop_tree(rng, size, kinds=("or",)))
        if inputs.has_nested_negation(ast):
            return ast


def _pair_family(m):
    return frozenset(frozenset((p.base, p.diagonal) for p in member) for member in m.members)


def within_choice_limit(ast, point_seed) -> bool:
    """Does no `minimal` negation of ast, at any of its sampled
    assignments, face more than MAX_CHOICE_SETS choice sets?  Worked
    out by the benchmark's own evaluator, so the inputs do not depend
    on the program's speed."""
    names = sorted(inputs.names_in(ast, PropVar))
    points = enumerate_assignments(names, None, mode="sampled", seed=point_seed,
                                   count=SAMPLED_COUNT, size_bound=3)
    return all(
        inputs.minimal_family(ast, {v: _pair_family(m) for v, m in h.values.items()},
                              MAX_CHOICE_SETS) is not None
        for h in points
    )


# Inputs of the `minimal` transversal blowup (ROADMAP item 2): the
# 4-clause cyclic family, which has not finished in 120 s, and a sampled
# input facing 3**12 choice sets, 3.5 to 4.5 s.  No workload runs them,
# so that no op of a run fails; defects.py runs them under their deadline.
KNOWN_DEFECTS = (
    ("cyclic4/minimal", "~~((p v ~q) . (q v ~r) . (r v ~p1) . (p1 v ~p))", None),
    ("sampled/minimal", "~~((p v q) v r)", 514887532),
)


def known_defect_ops() -> list[Op]:
    return [classify_op(name, parse(text), "minimal", seed=point_seed)
            for name, text, point_seed in KNOWN_DEFECTS]


def negation_stress(seed: int, root: Path, out_dir: Path) -> Iterator[list[Op]]:
    heavy = [classify_op("cyclic3/minimal", cyclic_family(["p", "q", "r"]), "minimal")]
    heavy += [classify_op(f"{label}/full", cyclic_family(names), "full")
              for label, names in (("cyclic3", ["p", "q", "r"]), ("cyclic4", ["p", "q", "r", "p1"]))]

    def sampled_pass(n):
        rng = random.Random(f"{seed}/{n}")
        ops = []
        for size in SAMPLED_SIZES * SAMPLED_PER_SIZE:
            while True:
                ast = nested_negation_formula(rng, size)
                point_seed = rng.randrange(2**31)
                if within_choice_limit(ast, point_seed):
                    break
            for policy in POLICIES:
                ops.append(classify_op(f"sampled/{policy}", ast, policy, seed=point_seed))
        return ops

    return itertools.chain([heavy], map(sampled_pass, itertools.count()))


# ---------------------------------------------------------------------------
# cli_mix: pm commands run in-process

CLI_DEADLINE_S = 10.0
CLI_WORLDS = 8
CLI_PROP_NODES = 12
CLI_FO_NODES = 9
CLI_FO_VALID_NODES = 5
COMPARE_FORMULAS = 74  # --vars 2 --prop-depth 2
CLI_SCHEDULE = (
    "parse", "parse_json", "taut", "taut_json", "eval_json", "fo_eval",
    "fo_eval_json", "fo_valid", "fo_valid_json", "check_proof", "compare", "bad_input",
)


def cli_op(name, argv, verify):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        expect("Traceback" not in err, "traceback on stderr")
        return verify(code, out, err)

    return Op(name, run, check, CLI_DEADLINE_S)


def _code(code, want) -> None:
    expect(code == want, f"exit code {code}, expected {want}")


def corpus(root: Path):
    """(path, label of the first invalid line or None) for each proof script."""
    out = []
    for path in sorted((root / "proofs" / "valid").glob("*.proof")):
        out.append((path, None))
    for path in sorted((root / "proofs" / "invalid").glob("*.proof")):
        mark = re.search(r"^# expect-invalid: (\S+)", path.read_text(encoding="utf-8"), re.M)
        if mark is None:
            raise ValueError(f"{path} has no '# expect-invalid' mark")
        out.append((path, mark.group(1)))
    if not out:
        raise ValueError(f"no proof scripts under {root / 'proofs'}")
    return out


def _parse_op(tree, as_json):
    ast = inputs.desugar(tree)
    argv = ["parse", inputs.dot_text(tree)] + (["--json"] if as_json else [])

    def verify(code, out, err):
        _code(code, 0)
        canonical = check_roundtrip(ast)
        if as_json:
            data = json.loads(out)
            expect(data["canonical"] == canonical, "wrong canonical form")
            expect(data["prop_variables"] == sorted(inputs.names_in(ast, PropVar)), "wrong variables")
            expect(data["predicates"] == sorted(inputs.names_in(ast, PredApp)), "wrong predicates")
            expect(data["free_variables"] == [], "closed formula reported free variables")
        else:
            expect(out == canonical + "\n", f"printed {out.strip()!r}, expected {canonical!r}")
            expect(parse(out.strip()) == ast, "printed form parses to another formula")
        return 0

    return cli_op("parse_json" if as_json else "parse", argv, verify)


def _taut_op(tree, as_json):
    ast = inputs.desugar(tree)
    names = sorted(inputs.names_in(ast, PropVar))
    argv = ["taut", inputs.dot_text(tree)] + (["--json", "--policy", "full"] if as_json else [])

    def verify(code, out, err):
        points = list(inputs.valuations(names))
        kind = inputs.classify_by_table(ast, points)
        _code(code, 0 if kind == "tautology" else 1)
        if as_json:
            data = json.loads(out)
            expect(data["verdict"] == kind, f"verdict {data['verdict']}, table says {kind}")
            expect(data["formula"] == check_roundtrip(ast), "wrong formula")
            expect(data["assignments_checked"] == len(points), "wrong assignment count")
        else:
            check_roundtrip(ast)
            expect(out.splitlines()[0] == kind, f"verdict {out.splitlines()[0]}, table says {kind}")
        return len(points)

    return cli_op("taut_json" if as_json else "taut", argv, verify)


def _eval_op(tree):
    ast = inputs.desugar(tree)
    names = sorted(inputs.names_in(ast, PropVar))

    def verify(code, out, err):
        _code(code, 0)
        data = json.loads(out)
        expect(data["formula"] == check_roundtrip(ast), "wrong formula")
        seen = set()
        for row in data["assignments"]:
            valuation = {}
            for item in row["assignment"].split(", "):
                var, _, value = item.partition("=")
                valuation[var] = value == "true"
            expect(sorted(valuation) == names, f"assignment {row['assignment']}")
            seen.add(tuple(sorted(valuation.items())))
            expect(row["true"] == truth_table_eval(ast, valuation), f"wrong truth at {row['assignment']}")
            expect(row["meaning"].startswith("{{"), "meaning not rendered")
        expect(len(seen) == len(data["assignments"]) == 2 ** len(names), "assignments not all corners")
        return len(seen)

    return cli_op("eval_json", ["eval", inputs.dot_text(tree), "--json"], verify)


def _fo_eval_op(tree, world, as_json):
    path, model, props = world
    ast = inputs.desugar(tree)
    argv = ["fo-eval", inputs.dot_text(tree), "--model", str(path)] + (["--json"] if as_json else [])

    def verify(code, out, err):
        truth = tarski_eval(ast, model, None, props)
        _code(code, 0 if truth else 1)
        if as_json:
            data = json.loads(out)
            expect(data["formula"] == check_roundtrip(ast), "wrong formula")
            expect(data["true"] is truth, "wrong truth value")
        else:
            check_roundtrip(ast)
            word = out.splitlines()[2].split(" | ")[0]
            expect(word == ("true" if truth else "false"), f"printed {word}, expected {truth}")
        return 1

    return cli_op("fo_eval_json" if as_json else "fo_eval", argv, verify)


def _fo_valid_op(tree, as_json):
    ast = inputs.desugar(tree)
    argv = ["fo-valid", inputs.dot_text(tree)] + (["--json"] if as_json else [])

    def verify(code, out, err):
        total, first = inputs.first_falsifying(ast, sorted(inputs.names_in(ast, PredApp)) or ["S"])
        kind = "logical_truth" if first is None else "falsifiable"
        checked = total if first is None else first
        _code(code, 0 if first is None else 1)
        check_roundtrip(ast)
        if as_json:
            data = json.loads(out)
            expect((data["verdict"], data["worlds_checked"]) == (kind, checked),
                   f"{data['verdict']} after {data['worlds_checked']} worlds, expected {kind} after {checked}")
        else:
            want = f"{kind} ({checked} worlds checked)"
            expect(out.splitlines()[0] == want, f"printed {out.splitlines()[0]!r}, expected {want!r}")
        return checked

    return cli_op("fo_valid_json" if as_json else "fo_valid", argv, verify)


def _proof_op(path, first_invalid):
    def verify(code, out, err):
        data = json.loads(out)
        _code(code, 0 if first_invalid is None else 1)
        expect(data["valid"] is (first_invalid is None), "wrong proof verdict")
        labels = [line["label"] for line in data["lines"] if line["status"] == "invalid"]
        expect(labels[:1] == ([first_invalid] if first_invalid else []),
               f"first invalid line {labels[:1]}, corpus mark {first_invalid}")
        # Each classified line was decided at every corner of its variables.
        return sum(
            2 ** len(set(re.findall(r"[pqr]\d*", line["formula"])))
            for line in data["lines"]
            if line["tautology"] is not None
        )

    return cli_op("check_proof", ["check-proof", str(path), "--json"], verify)


def _compare_op():
    def verify(code, out, err):
        _code(code, 0)
        data = json.loads(out)
        checks = COMPARE_FORMULAS * 2 ** 2 * len(POLICIES)
        expect(data["verdict"] == "PASS" and data["disagreement_count"] == 0, "sweep failed")
        expect(data["prop_formulas"] == COMPARE_FORMULAS, f"{data['prop_formulas']} formulas")
        expect(data["prop_checks"] == checks, f"{data['prop_checks']} checks")
        return checks

    return cli_op("compare", ["compare", "--vars", "2", "--prop-depth", "2", "--json"], verify)


def _bad_input_op(tree, rng):
    text = inputs.dot_text(tree)
    argv = ["taut", text + " v"] if rng.random() < 0.5 else ["parse", "(" + text]

    def verify(code, out, err):
        _code(code, 2)
        expect(out == "" and err.startswith("error: "), "malformed input not reported as an error")
        return 0

    return cli_op("bad_input", argv, verify)


def cli_pass(rng: random.Random, n: int, worlds, scripts) -> list[Op]:
    """One op of each kind in CLI_SCHEDULE, with inputs drawn from rng."""

    # Formulas stay small, so that the command front end rather than
    # the connective cores does most of the work; negation_stress
    # measures the transversal blowups.
    def bounded(make, nodes):
        while True:
            tree = make()
            if inputs.node_count(inputs.desugar(tree)) <= nodes:
                return tree

    def prop_tree():
        return bounded(lambda: inputs.prop_tree(rng, rng.randint(2, 6)), CLI_PROP_NODES)

    def fo_tree(props=()):
        return bounded(lambda: inputs.fo_tree(rng, rng.randint(2, 6), props=props), CLI_FO_NODES)

    def valid_or_not():
        # Half the fo-valid inputs are logical truths by construction.
        tree = bounded(lambda: inputs.fo_tree(rng, rng.randint(2, 5)), CLI_FO_VALID_NODES)
        roll = rng.random()
        if roll < 0.25:
            return ("imp", tree, tree)
        if roll < 0.5:
            return ("or", tree, ("not", tree))
        return tree

    makers = {
        "parse": lambda: _parse_op(prop_tree(), False),
        "parse_json": lambda: _parse_op(fo_tree(), True),
        "taut": lambda: _taut_op(prop_tree(), False),
        "taut_json": lambda: _taut_op(prop_tree(), True),
        "eval_json": lambda: _eval_op(prop_tree()),
        "fo_eval": lambda: _fo_eval_op(fo_tree(PROPS), rng.choice(worlds), False),
        "fo_eval_json": lambda: _fo_eval_op(fo_tree(PROPS), rng.choice(worlds), True),
        "fo_valid": lambda: _fo_valid_op(valid_or_not(), False),
        "fo_valid_json": lambda: _fo_valid_op(valid_or_not(), True),
        "check_proof": lambda: _proof_op(*scripts[n % len(scripts)]),
        "compare": _compare_op,
        "bad_input": lambda: _bad_input_op(prop_tree(), rng),
    }
    return [makers[kind]() for kind in CLI_SCHEDULE]


def cli_mix(seed: int, root: Path, out_dir: Path) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    scripts = corpus(root)
    world_dir = out_dir / f"worlds_{seed}"
    world_dir.mkdir(parents=True, exist_ok=True)
    worlds = []
    for i in range(CLI_WORLDS):
        text, model, props = inputs.random_world(rng)
        path = world_dir / f"w{i}.txt"
        path.write_text(text, encoding="utf-8")
        worlds.append((path, model, props))

    return (cli_pass(random.Random(f"{seed}/{n}"), n, worlds, scripts) for n in itertools.count())


# Each builder makes its inputs (set-up) and returns the endless
# sequence of passes, lists of ops, that a run takes from.
BUILDERS = {
    "prop_sweep": prop_sweep,
    "fo_sweep": fo_sweep,
    "negation_stress": negation_stress,
    "cli_mix": cli_mix,
}
