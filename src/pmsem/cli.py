"""Batch command line front end.

    pm parse "p v q .=>. q v p"
    pm eval "~(p v q)" --policy full
    pm taut "p v ~p"
    pm fo-eval "(x). S(x)" --model world.txt
    pm fo-valid "(x). S(x) v ~S(x)"
    pm compare --vars 3 --prop-depth 2 --fo
    pm check-proof proofs/valid/imp_self.proof

Exit codes: 0 success or positive verdict, 1 negative semantic verdict
(not a tautology, formula false, not logically valid, disagreements
found, proof invalid), 2 usage or input error, or out of memory.

Reports are plain text on stdout; --json switches to a stable JSON
schema and --out redirects to a file.  Sampled modes require --seed and
report it, so identical invocations give byte-identical output.  Each
`cmd_*` function returns its exit code and its report, built only for
the mode asked for: the JSON object under --json, else the text.
`main` alone writes: it serializes, ends the report with a newline and
sends it to stdout or --out.

`main(argv)` may be called repeatedly in one process.  The parser is
built on the first call and reused by every later one: `parse_args`
copies each call's values into a fresh Namespace, and help is formatted
to the terminal width at the time it is printed.  This holds as long as
nothing rebinds the `cmd_*` functions, whose references the parser
takes as defaults when it is built.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .fosem import eval_fo, logical_truth
from .meanings import POLICIES, is_true, render_meaning
from .ontology import describe_world, load_world
from .oracle import SweepConfig, check_equivalence
from .proof import check_proof, load_script
from .propsem import (
    classify,
    compile_program,
    declared_assignment,
    enumerate_assignments,
    run,
)
from .syntax import (
    PROP_LETTERS,
    free_variables,
    parse,
    predicates,
    print_formula,
    prop_variables,
    variable_names,
)

__all__ = ["main"]

_PROP_NAMES = variable_names(PROP_LETTERS, 8)


def _add_policy(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--policy",
        choices=POLICIES,
        default="minimal",
        help="transversal policy used by negation (default: minimal)",
    )


def _add_enumeration(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=("canonical", "sampled"),
        default="canonical",
        help="assignment enumeration mode (default: canonical)",
    )
    p.add_argument("--seed", type=int, help="RNG seed (required in sampled mode)")
    p.add_argument("--count", type=int, help="number of sampled assignments")
    p.add_argument(
        "--size-bound",
        type=int,
        default=3,
        help="member/size bound for sampled Meanings (default: 3)",
    )


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="write the report to a file instead of stdout")


def _parse_base_mode(text: str) -> str | None:
    """The designated variable of 'any:<var>', or None for 'all'."""
    if text == "all":
        return None
    kind, sep, var = text.partition(":")
    if kind == "any" and sep and var:
        return var
    raise ValueError(f"base mode must be 'all' or 'any:<var>', got {text!r}")


def _load_model(args: argparse.Namespace):
    if args.model is None:
        raise ValueError("a world file is required (--model PATH)")
    return load_world(args.model)


# ---------------------------------------------------------------------------
# subcommands

def cmd_parse(args: argparse.Namespace) -> tuple[int, dict | str]:
    f = parse(args.formula)
    if args.json:
        return 0, {
            "input": args.formula,
            "canonical": print_formula(f),
            "prop_variables": sorted(prop_variables(f)),
            "predicates": sorted(predicates(f)),
            "free_variables": sorted(free_variables(f)),
        }
    return 0, print_formula(f)


def cmd_eval(args: argparse.Namespace) -> tuple[int, dict | str]:
    f = parse(args.formula)
    world = load_world(args.world) if args.world else None
    names = prop_variables(f)
    assignments = enumerate_assignments(
        names,
        world,
        args.mode,
        seed=args.seed,
        count=args.count,
        size_bound=args.size_bound,
    )
    program = compile_program([f], names)
    (root,) = program.roots
    rows = []
    for h in assignments:
        m = run(program, h.values, None, args.policy, {})[root]
        rows.append((h.describe() or "empty", is_true(m), render_meaning(m)))
    if args.json:
        return 0, {
            "formula": print_formula(f),
            "policy": args.policy,
            "mode": args.mode,
            "seed": args.seed,
            "count": args.count,
            "assignments": [
                {"assignment": d, "true": t, "meaning": r} for d, t, r in rows
            ],
        }
    lines = [f"formula {print_formula(f)}", f"policy {args.policy}"]
    mode = f"mode {args.mode}"
    if args.mode == "sampled":
        mode += f" (seed={args.seed}, count={args.count})"
    lines.append(mode)
    for d, t, r in rows:
        lines.append(f"{d} | {'true' if t else 'false'} | {r}")
    return 0, "\n".join(lines)


def cmd_taut(args: argparse.Namespace) -> tuple[int, dict | str]:
    f = parse(args.formula)
    world = load_world(args.world) if args.world else None
    verdict = classify(
        f,
        world,
        args.mode,
        args.policy,
        seed=args.seed,
        count=args.count,
        size_bound=args.size_bound,
    )
    code = 0 if verdict.kind == "tautology" else 1
    if args.json:
        return code, {
            "formula": print_formula(f),
            "verdict": verdict.kind,
            "policy": args.policy,
            "mode": args.mode,
            "seed": args.seed,
            "assignments_checked": verdict.assignments_checked,
            "witness_true": verdict.witness_true.describe() if verdict.witness_true else None,
            "witness_false": verdict.witness_false.describe() if verdict.witness_false else None,
        }
    lines = [verdict.kind]
    if verdict.kind == "contingent":
        lines.append(f"  true under {verdict.witness_true.describe() or 'empty'}")
        lines.append(f"  false under {verdict.witness_false.describe() or 'empty'}")
    return code, "\n".join(lines)


def cmd_fo_eval(args: argparse.Namespace) -> tuple[int, dict | str]:
    f = parse(args.formula)
    world = _load_model(args)
    any_variable = _parse_base_mode(args.base_mode)
    assignment = declared_assignment(prop_variables(f), world)
    m = eval_fo(f, world, assignment, args.policy, any_variable)
    truth = is_true(m)
    code = 0 if truth else 1
    if args.json:
        return code, {
            "formula": print_formula(f),
            "world": describe_world(world),
            "base_mode": args.base_mode,
            "policy": args.policy,
            "true": truth,
            "meaning": render_meaning(m),
        }
    return code, "\n".join([
        f"formula {print_formula(f)}",
        f"world {describe_world(world)}",
        f"{'true' if truth else 'false'} | {render_meaning(m)}",
    ])


def cmd_fo_valid(args: argparse.Namespace) -> tuple[int, dict | str]:
    f = parse(args.formula)
    verdict = logical_truth(
        f,
        max_individuals=args.max_individuals,
        policy=args.policy,
        mode=args.mode,
        seed=args.seed,
        count=args.count,
        size_bound=args.size_bound,
    )
    code = 0 if verdict.kind == "logical_truth" else 1
    witness = None
    h = verdict.witness_assignment
    if h is not None:
        witness = describe_world(h.world)
        if h.values:
            witness += f"; {h.describe()}"
    if args.json:
        return code, {
            "formula": print_formula(f),
            "verdict": verdict.kind,
            "worlds_checked": verdict.worlds_checked,
            "max_individuals": args.max_individuals,
            "policy": args.policy,
            "witness": witness,
        }
    lines = [f"{verdict.kind} ({verdict.worlds_checked} worlds checked)"]
    if witness:
        lines.append(f"  false in {witness}")
    return code, "\n".join(lines)


def cmd_compare(args: argparse.Namespace) -> tuple[int, dict | str]:
    if args.vars < 0 or args.vars > len(_PROP_NAMES):
        raise ValueError(f"--vars must be between 0 and {len(_PROP_NAMES)}")
    prop_size = args.prop_size
    if prop_size is None and args.prop_depth > 2:
        prop_size = 7
    policies = POLICIES if args.policy == "both" else (args.policy,)
    config = SweepConfig(
        prop_vars=_PROP_NAMES[: args.vars],
        max_depth=args.prop_depth,
        max_size=prop_size,
        policies=policies,
        mode=args.mode,
        seed=args.seed,
        count=args.count,
        size_bound=args.size_bound,
        include_prop=not args.no_prop,
        include_fo=args.fo,
        fo_predicates=tuple(args.fo_predicates.split(",")) if args.fo_predicates else (),
        fo_prop_vars=tuple(v for v in args.fo_prop_vars.split(",") if v),
        fo_ind_vars=tuple(args.fo_ind_vars.split(",")),
        fo_max_depth=args.fo_depth,
        fo_max_quantifiers=args.fo_quantifiers,
        fo_max_size=args.fo_size,
        fo_max_individuals=args.fo_individuals,
    )
    report = check_equivalence(config)
    return 0 if report.ok else 1, report.to_dict() if args.json else report.to_text()


def cmd_check_proof(args: argparse.Namespace) -> tuple[int, dict | str]:
    script = load_script(args.path)
    report = check_proof(script, policy=args.policy, semantic=not args.no_semantic)
    return 0 if report.valid else 1, report.to_dict() if args.json else report.to_text()


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `pm` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="pm",
        description="Evaluate dot-notation formulas as Meanings and check them "
        "against classical oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it canonically")
    p.add_argument("formula")
    _add_output(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="print the Meaning of a propositional formula")
    p.add_argument("formula")
    p.add_argument("--world", help="world file declaring propositional constants")
    _add_policy(p)
    _add_enumeration(p)
    _add_output(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("taut", help="classify a propositional formula")
    p.add_argument("formula")
    p.add_argument("--world", help="world file declaring propositional constants")
    _add_policy(p)
    _add_enumeration(p)
    _add_output(p)
    p.set_defaults(func=cmd_taut)

    p = sub.add_parser("fo-eval", help="evaluate a monadic formula in one world")
    p.add_argument("formula")
    p.add_argument("--model", help="world file (individuals, relations, facts)")
    p.add_argument(
        "--base-mode",
        default="all",
        help="free-variable base case: 'all' or 'any:<var>' (default: all)",
    )
    _add_policy(p)
    _add_output(p)
    p.set_defaults(func=cmd_fo_eval)

    p = sub.add_parser("fo-valid", help="sweep finite worlds for logical truth")
    p.add_argument("formula")
    p.add_argument(
        "--max-individuals",
        type=int,
        default=3,
        help="largest world domain swept (default: 3)",
    )
    _add_policy(p)
    _add_enumeration(p)
    _add_output(p)
    p.set_defaults(func=cmd_fo_valid)

    p = sub.add_parser("compare", help="sweep evaluators against classical oracles")
    p.add_argument(
        "--vars",
        type=int,
        default=3,
        help=f"number of propositional variables, taken in the order "
        f"{' '.join(_PROP_NAMES)} (default: 3)",
    )
    p.add_argument("--prop-depth", type=int, default=2, help="connective depth bound (default: 2)")
    p.add_argument(
        "--prop-size",
        type=int,
        help="node budget; defaults to the full-tree size for depth <= 2, else 7",
    )
    p.add_argument("--no-prop", action="store_true", help="skip the propositional sweep")
    p.add_argument("--fo", action="store_true", help="also sweep quantified formulas")
    p.add_argument("--fo-predicates", default="S", help="comma-separated predicates (default: S)")
    p.add_argument("--fo-prop-vars", default="", help="comma-separated propositional variables")
    p.add_argument("--fo-ind-vars", default="x,y", help="comma-separated individual variables")
    p.add_argument("--fo-depth", type=int, default=4, help="quantified depth bound (default: 4)")
    p.add_argument("--fo-quantifiers", type=int, default=2, help="quantifier bound (default: 2)")
    p.add_argument("--fo-size", type=int, default=6, help="quantified node budget (default: 6)")
    p.add_argument(
        "--fo-individuals",
        type=int,
        default=3,
        help="largest world domain swept (default: 3)",
    )
    p.add_argument(
        "--policy",
        choices=(*POLICIES, "both"),
        default="both",
        help="transversal policies to sweep (default: both)",
    )
    _add_enumeration(p)
    _add_output(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-proof", help="check a Hilbert-style proof script")
    p.add_argument("path")
    p.add_argument(
        "--no-semantic",
        action="store_true",
        help="skip the per-line tautology check",
    )
    _add_policy(p)
    _add_output(p)
    p.set_defaults(func=cmd_check_proof)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code, report = args.func(args)
        text = (json.dumps(report, indent=2, sort_keys=True) if args.json else report) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # raised bare, with no message of its own
        print("error: out of memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
