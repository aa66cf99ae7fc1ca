"""Walk a few formulas and show their Meanings step by step.

Prints, for each demonstration formula, the Meaning it takes under each
canonical assignment, its truth value, and where the two transversal
policies produce different families with the same truth.  A compact way
to see what the evaluator actually builds.

    python3 scripts/show_meanings.py
    python3 scripts/show_meanings.py "~(p v q)" "p . q"
"""
import sys

from pmsem.meanings import is_true, render_meaning
from pmsem.propsem import enumerate_assignments, eval_prop
from pmsem.syntax import parse, print_formula, prop_variables

DEFAULTS = ["p v ~p", "~(p v q)", "p . q", "p .=>. q", "~(~p v ~q) v r"]


def show(text: str) -> None:
    f = parse(text)
    print(f"{text}  =>  {print_formula(f)}")
    names = sorted(prop_variables(f))
    for h in enumerate_assignments(names):
        minimal = eval_prop(f, h, "minimal")
        full = eval_prop(f, h, "full")
        truth = "true " if is_true(minimal) else "false"
        line = f"  {h.describe() or '(no variables)':<24} {truth} {render_meaning(minimal)}"
        if full != minimal:
            line += f"\n  {'':<24}       full: {render_meaning(full)}"
        print(line)
        assert is_true(full) == is_true(minimal)
    print()


def main() -> int:
    for text in sys.argv[1:] or DEFAULTS:
        show(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
