"""Formula enumeration and agreement sweeps against the classical referee.

`enumerate_formulas` lists formulas exhaustively in a stable order:
by node count, atoms first, then negations, disjunctions and quantified
forms, filtered by depth, quantifier count and node budget.  Exhausting
every formula of a given depth is only feasible for small depths (the
count grows doubly exponentially), so deeper sweeps set `max_size` to
bound the node count instead; the default budget is the full-tree size
2^(depth+1) - 1, which is exact for depth <= 2 and must be lowered for
more.  It builds each formula from its parts' recorded depth,
quantifier count and free variables, which it checks before building.
Listing closed formulas only, it builds only those that some closed
formula within the bounds can contain; the others it counts, by depth
and quantifier count, as it counts what is made from them (Flajolet and
Sedgewick, Analytic Combinatorics, ch. I).  Two budgets turn a sweep
too large to finish into a ValueError before it runs:
`enumerate_formulas` admits at most MAX_FORMULAS formulas, open
intermediates and counted formulas included, and `check_equivalence`
refuses more than MAX_WORK units of work over both sections.  One policy's
check of f at a point of n individuals (1 without quantifiers) costs
S_n(f) units: 1 for each node, where (x)g and (Ex)g cost 1 + n * S_n(g);
a sampled point that assigns a variable costs size_bound times that.

`check_equivalence` reports every point where the meaning evaluator
and `classical.satisfies` disagree, and every point where the two
transversal policies disagree with each other; reports are
deterministic and JSON-ready.  One loop runs both of its sections over
groups of (worlds, propositional variables, formulas): the
propositional section is one group whose one world is None, and the
quantified section one group per vocabulary (`fosem.world_vocabulary`,
first seen first) over all its worlds.  The points of a group, its
worlds by their assignments, are listed once, in (world, assignment)
order.  A group's formulas are compiled into one `propsem` program for
its largest domain (the worlds of a vocabulary come in domain order,
each domain a prefix of the next), and each smaller domain's program is
restricted from it (`propsem.restrict`), which gives the program
compiling for that domain would; `enumerate_formulas` lists every
formula after its subformulas, so the program shares each subformula's
steps.  The points of one domain form a block, and a restricted
program is dropped before the next is made.  The program runs once per
policy over the block (`propsem.run_columns`), so each formula gets a
column of Meanings, one per point, and all runs of one `_sweep` call
share the computed table `propsem` describes, dropped when the call
returns.  A column's truth mask, bit k set iff its k-th Meaning is
true, is worked out once per distinct column of a block.  An evaluator
given to
`check_equivalence` replaces the programs: it is called once per
formula, point and policy, in (point, policy, formula) order, and its
truths make the same masks.  The referee is called once per formula
and group: `classical.satisfies` gives each formula's truth at every
point of the group as one mask, its worlds of every domain together
(each individual is present at the points of the worlds that have it),
through one classical table per group.  So each formula, block and
policy costs one comparison of two masks, the referee's cut to the
block's points, and a formula's points are walked one by one only where
they differ.  Only
disagreeing points are kept, and each section records them in
(formula, world, assignment) order, as a formula-by-formula sweep
would.  A refusal inside a block, such as a transversal budget's,
is the one its first refusing policy meets at the earliest step,
whatever the point: a block runs step by step, not point by point.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, asdict
from itertools import groupby

from .classical import TarskiModel, satisfies, tarski_eval, truth_table_eval
from .fosem import enumerate_worlds, world_vocabulary
from .meanings import POLICIES, is_true
from .ontology import describe_world
from .propsem import compile_program, enumerate_assignments, restrict, run_columns
from .syntax import (
    IND_VAR,
    PRED_NAME,
    PROP_VAR,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    PredApp,
    PropVar,
    children,
    print_formula,
)

__all__ = [
    "Disagreement",
    "EquivalenceReport",
    "SweepConfig",
    "check_equivalence",
    "enumerate_formulas",
    "formula_depth",
    # `classical`'s, re-exported for `perfbench` until ROADMAP item 1
    "TarskiModel",
    "tarski_eval",
    "truth_table_eval",
]


# ---------------------------------------------------------------------------
# formula enumeration

def formula_depth(f: Formula) -> int:
    return max((1 + formula_depth(g) for g in children(f)), default=0)


# Most formulas enumerate_formulas admits, atoms, open intermediates and
# formulas only counted included.  The acceptance sweeps admit at most
# 26,925 (two predicates) and 6,789 (three variables, size 8).
MAX_FORMULAS = 2**16


def enumerate_formulas(
    prop_vars=(),
    predicate_names=(),
    ind_vars=("x", "y"),
    max_depth: int = 2,
    max_quantifiers: int = 0,
    max_size: int | None = None,
    closed_only: bool = False,
) -> list[Formula]:
    """All distinct formulas within the depth/quantifier/size bounds.

    Stable order: node count ascending; within one size, atoms, then
    negations, then disjunctions by split point, then quantified forms.
    Admitting more than MAX_FORMULAS raises ValueError; every formula
    within the bounds is admitted, built or only counted.  A size with
    no formula ends the listing: within the same bounds, any larger
    formula can be cut down a node at a time to one of that size.

    A candidate's depth, quantifier count and free variables come from
    its parts, and are checked before it is built.  Under closed_only, a
    formula of n nodes, depth d and q quantifiers with k free variables
    takes k more quantifiers to close, so if n + k > max_size,
    d + k > max_depth or q + k > max_quantifiers no closed formula
    within the bounds contains it, nor anything made from it: it is
    counted, by depth and quantifier count, and not built.
    """
    if max_size is None:
        max_size = 2 ** (max_depth + 1) - 1
    binders = list(dict.fromkeys(ind_vars))  # a repeated name binds once
    bits = {v: 1 << i for i, v in enumerate(binders)}  # free variables as a bit set
    atoms = {PropVar(v): 0 for v in prop_vars}  # a repeated name gives one atom
    atoms.update((PredApp(p, v), bits[v]) for p in predicate_names for v in ind_vars)
    # rows[n]: columns (formulas, depths, quantifiers, free bits, counts)
    # of the formulas of n nodes: each one built, with count 1, then
    # None for each (depth, quantifiers) only counted, with its count.
    # Columns, not a tuple per formula, leave the garbage collector
    # nothing more to track than the formulas.
    rows = {1: (list(atoms), [0] * len(atoms), [0] * len(atoms), list(atoms.values()),
                [1] * len(atoms))} if max_size >= 1 else {}
    admitted = len(atoms)
    for n in range(2, max_size + 1):
        formulas, depths, quants, frees, counts = row = [], [], [], [], []
        counted = Counter()  # (depth, quantifiers) -> formulas only counted
        # Under closed_only, a formula is only counted if closing it, which
        # takes as many nodes, depth and quantifiers as it has free
        # variables, would pass a bound.
        for g, d, q, free, count in zip(*rows[n - 1]):
            d += 1
            if d > max_depth:
                continue
            admitted += count
            if admitted > MAX_FORMULAS:
                raise _over_budget()
            if g is None or closed_only and free and free.bit_count() > min(
                    max_size - n, max_depth - d, max_quantifiers - q):
                counted[d, q] += count
            else:
                formulas.append(Not(g))
                depths.append(d)
                quants.append(q)
                frees.append(free)
                counts.append(1)
        for left_size in range(1, n - 1):
            right_row = rows[n - 1 - left_size]
            for left, dl, ql, fl, cl in zip(*rows[left_size]):
                if dl >= max_depth:
                    continue
                for right, dr, qr, fr, cr in zip(*right_row):
                    q = ql + qr
                    if dr >= max_depth or q > max_quantifiers:
                        continue
                    d, free, count = (dl if dl > dr else dr) + 1, fl | fr, cl * cr
                    admitted += count
                    if admitted > MAX_FORMULAS:
                        raise _over_budget()
                    if left is None or right is None or closed_only and free and (
                            free.bit_count() > min(max_size - n, max_depth - d,
                                                   max_quantifiers - q)):
                        counted[d, q] += count
                    else:
                        formulas.append(Or(left, right))
                        depths.append(d)
                        quants.append(q)
                        frees.append(free)
                        counts.append(1)
        for g, d, q, free, count in zip(*rows[n - 1]):
            d, q = d + 1, q + 1
            if d > max_depth or q > max_quantifiers:
                continue
            for v in binders:
                free_v = free & ~bits[v]
                for quantifier in (ForAll, Exists):
                    admitted += count
                    if admitted > MAX_FORMULAS:
                        raise _over_budget()
                    if g is None or closed_only and free_v and free_v.bit_count() > min(
                            max_size - n, max_depth - d, max_quantifiers - q):
                        counted[d, q] += count
                    else:
                        formulas.append(quantifier(v, g))
                        depths.append(d)
                        quants.append(q)
                        frees.append(free_v)
                        counts.append(1)
        for (d, q), count in counted.items():
            formulas.append(None)
            depths.append(d)
            quants.append(q)
            frees.append(0)
            counts.append(count)
        if not formulas:
            break
        rows[n] = row

    return [f for formulas, _, _, frees, _ in rows.values() for f, free in zip(formulas, frees)
            if f is not None and not (closed_only and free)]


def _over_budget() -> ValueError:
    return ValueError(f"sweep bounds admit more than {MAX_FORMULAS} formulas")


# ---------------------------------------------------------------------------
# agreement sweeps

@dataclass
class SweepConfig:
    prop_vars: tuple[str, ...] = ("p", "q", "r")
    max_depth: int = 2
    max_size: int | None = None
    policies: tuple[str, ...] = ("minimal", "full")
    mode: str = "canonical"
    seed: int | None = None
    count: int | None = None
    size_bound: int = 3
    include_prop: bool = True
    include_fo: bool = False
    fo_predicates: tuple[str, ...] = ("S",)
    fo_prop_vars: tuple[str, ...] = ()
    fo_ind_vars: tuple[str, ...] = ("x", "y")
    fo_max_depth: int = 4
    fo_max_quantifiers: int = 2
    fo_max_size: int = 6
    fo_max_individuals: int = 3


@dataclass
class Disagreement:
    section: str  # prop | fo | policy
    formula: str
    context: str
    expected: str
    got: str


_REPORT_WITNESS_CAP = 25


@dataclass
class EquivalenceReport:
    config: SweepConfig
    prop_formulas: int = 0
    prop_checks: int = 0
    fo_formulas: int = 0
    fo_checks: int = 0
    disagreement_count: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.disagreement_count == 0

    def record(self, d: Disagreement) -> None:
        self.disagreement_count += 1
        if len(self.disagreements) < _REPORT_WITNESS_CAP:
            self.disagreements.append(d)

    def to_dict(self) -> dict:
        return {**asdict(self), "verdict": "PASS" if self.ok else "FAIL"}

    def to_text(self) -> str:
        lines = ["equivalence sweep"]
        mode = f"  mode: {self.config.mode}"
        if self.config.mode == "sampled":
            mode += f" (seed={self.config.seed}, count={self.config.count})"
        lines.append(mode)
        if self.config.include_prop:
            lines.append(
                f"  propositional: {self.prop_formulas} formulas, "
                f"{self.prop_checks} checks"
            )
        if self.config.include_fo:
            lines.append(
                f"  quantified: {self.fo_formulas} formulas, {self.fo_checks} checks"
            )
        lines.append(f"  policies: {', '.join(self.config.policies)}")
        lines.append(f"  disagreements: {self.disagreement_count}")
        for d in self.disagreements:
            lines.append(
                f"    [{d.section}] {d.formula} | {d.context} | "
                f"expected {d.expected}, got {d.got}"
            )
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


# Most units of work a sweep runs, both sections together (see `_cost`).
# `pm compare --vars 7` at the default depth needs 6,496,000.
MAX_WORK = 2**23


def check_equivalence(config: SweepConfig, prop_eval=None, fo_eval=None) -> EquivalenceReport:
    """Sweep the meaning evaluator, or the evaluators given, against the
    classical oracles."""
    report = EquivalenceReport(config=config)
    _check_config(config)

    options = dict(seed=config.seed, count=config.count, size_bound=config.size_bound)

    def points(variables, world):
        return enumerate_assignments(variables, world, config.mode, **options)

    sections = []  # (name, formulas, groups of (worlds, variables, ids), evaluator or None)
    if config.include_prop:
        formulas = enumerate_formulas(config.prop_vars, max_depth=config.max_depth,
                                      max_size=config.max_size)
        evaluate = prop_eval and (lambda f, world, h, policy: prop_eval(f, h, policy))
        groups = [([None], config.prop_vars, range(len(formulas)))]
        sections.append(("prop", formulas, groups, evaluate))
    if config.include_fo:
        formulas = enumerate_formulas(config.fo_prop_vars, config.fo_predicates,
                                      config.fo_ind_vars, config.fo_max_depth,
                                      config.fo_max_quantifiers, config.fo_max_size,
                                      closed_only=True)
        vocabularies: dict[tuple, list[int]] = {}
        for i, f in enumerate(formulas):
            vocabularies.setdefault(world_vocabulary(f), []).append(i)
        groups = [(list(enumerate_worlds(preds, pvars, config.fo_max_individuals)), pvars, ids)
                  for (preds, pvars), ids in vocabularies.items()]
        sections.append(("fo", formulas, groups, fo_eval))

    work = 0
    costs: dict[int, dict] = {}  # domain size -> memo of `_cost`
    for name, formulas, groups, _ in sections:
        checks = 0
        for worlds, variables, ids in groups:
            # Every world of one vocabulary has as many assignments.
            per_world = len(points(variables, None)) * len(config.policies)
            checks += per_world * len(ids) * len(worlds)
            if config.mode == "sampled" and variables:
                per_world *= config.size_bound  # a sampled Meaning's size grows with it
            for n, k in Counter(1 if w is None else len(w.individuals) for w in worlds).items():
                cost = costs.setdefault(n, {})
                work += per_world * k * sum(_cost(formulas[i], n, cost) for i in ids)
        setattr(report, f"{name}_formulas", len(formulas))
        setattr(report, f"{name}_checks", checks)
    if work > MAX_WORK:
        raise ValueError(f"the sweep needs {work} units of work, more than {MAX_WORK}")

    for _, formulas, groups, evaluate in sections:
        for (i, _, adx), expected, got, w, h in _sweep(formulas, groups, config.policies, points,
                                                       evaluate):
            got = dict(zip(config.policies, got))
            _check_point(report, print_formula(formulas[i]), expected, got, w, adx, h)
    return report


def _cost(f: Formula, n: int, memo: dict) -> int:
    """S_n(f), memoized per subformula, which formulas share, in memo."""
    cost = memo.get(f)
    if cost is None:
        if isinstance(f, Not):
            cost = 1 + _cost(f.operand, n, memo)
        elif isinstance(f, Or):
            cost = 1 + _cost(f.left, n, memo) + _cost(f.right, n, memo)
        elif isinstance(f, (ForAll, Exists)):
            cost = 1 + n * _cost(f.body, n, memo)
        else:
            cost = 1
        memo[f] = cost
    return cost


def _sweep(formulas, groups, policies, points, evaluate=None) -> list:
    """The misses of each group's formulas at each of its worlds and
    assignments, in (formula, world, assignment) order, from the group's
    programs or, if given, from evaluate(f, world, point, policy)."""
    misses = []
    computed = {}  # the computed table all runs share (see propsem), dropped on return
    for worlds, variables, ids in groups:
        group = [formulas[i] for i in ids]
        block = [(wdx, w, adx, h) for wdx, w in enumerate(worlds)
                 for adx, h in enumerate(points(variables, w))]
        expected = _referee(group, block)
        # The worlds come in domain order, each domain a prefix of the
        # next: the last domain's program is compiled, and each smaller
        # domain's restricted from it.
        largest = None if evaluate else compile_program(group, variables, block[-1][1])
        start = 0  # the bit of the domain's first point in the masks of expected
        for domain, members in groupby(block, _domain):
            members = list(members)
            if evaluate:
                got = _evaluated_truths(group, members, policies, evaluate)
            else:
                program = None  # the last domain's program goes before the next is made
                program = largest if domain == _domain(block[-1]) else restrict(largest, domain)
                got = _run_truths(program, members, policies, computed)
            if len(members) < len(block):  # cut the referee's masks to the block's points
                width = (1 << len(members)) - 1
                expected_here = [truth >> start & width for truth in expected]
            else:
                expected_here = expected
            for j, (i, truth) in enumerate(zip(ids, expected_here)):
                wrong = 0
                for truths in got:
                    wrong |= truths[j] ^ truth
                while wrong:  # each point where some policy differs, lowest first
                    k = (wrong & -wrong).bit_length() - 1
                    wrong ^= 1 << k
                    wdx, w, adx, h = members[k]
                    misses.append(((i, wdx, adx), bool(truth >> k & 1),
                                   [bool(truths[j] >> k & 1) for truths in got], w, h))
            start += len(members)
    misses.sort(key=lambda miss: miss[0])
    return misses


def _domain(point) -> tuple | None:
    """The individuals of a point's world (None: no world)."""
    return getattr(point[1], "individuals", None)


def _run_truths(program, block, policies, computed) -> list[list[int]]:
    """Per policy, the truth mask of each root of program over block:
    one `run_columns` call, and each distinct root column read once."""
    points = [(h.values, w) for _, w, _, h in block]
    # Hashing a column is work in C; reading its mask calls `is_true`
    # at every point, so roots that share a column share its mask.
    masks = {}  # column -> truth mask
    got = []
    for policy in policies:
        out = run_columns(program, points, policy, computed)
        truths = []
        for slot in program.roots:
            column = out[slot]
            mask = masks.get(column)
            if mask is None:
                mask = masks[column] = sum(1 << k for k, m in enumerate(column) if is_true(m))
            truths.append(mask)
        got.append(truths)
    return got


def _evaluated_truths(group, block, policies, evaluate) -> list[list[int]]:
    """Per policy, the truth mask of each formula of group over block,
    from one evaluate call per point, policy and formula, in that order."""
    got = [[0] * len(group) for _ in policies]
    for k, (_, w, _, h) in enumerate(block):
        for truths, policy in zip(got, policies):
            for j, f in enumerate(group):
                if is_true(evaluate(f, w, h, policy)):
                    truths[j] |= 1 << k
    return got


def _referee(group, block) -> list[int]:
    """The classical truth of each formula of group over a block of
    points (wdx, world, adx, assignment), as a mask whose bit k is its
    truth at the k-th point, from one table dropped on return.  The
    worlds may differ in their individuals: each is present at the
    points of the worlds that have it."""
    domain, facts, valuation = {}, {}, {}
    for k, (_, w, _, h) in enumerate(block):
        bit = 1 << k
        if w is not None:
            for d in w.individuals:
                domain[d] = domain.get(d, 0) | bit
            for fact in w.facts:
                facts[fact] = facts.get(fact, 0) | bit
        for name, truth in h.truths().items():
            valuation[name] = valuation.get(name, 0) | (bit if truth else 0)
    full = (1 << len(block)) - 1
    table = {}
    return [satisfies(f, domain or None, facts, {}, valuation, table, full) for f in group]


def _check_config(config: SweepConfig) -> None:
    """Reject a sweep of no section, no policies, a repeated or unknown
    policy, bounds under which an included section would check nothing,
    names outside their syntax class, which would not parse back from
    the formulas printed, and assignment parameters that
    `enumerate_assignments` refuses (an unknown mode, or a sampled seed,
    count or size bound)."""
    if not (config.include_prop or config.include_fo):
        raise ValueError("sweep includes neither the propositional nor the quantified section")
    if not config.policies:
        raise ValueError("sweep has no policies")
    if len(set(config.policies)) < len(config.policies):
        raise ValueError(f"sweep repeats a policy: {', '.join(config.policies)}")
    for policy in config.policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
    bounds = []
    names = []  # (kind, name, the class it must fullmatch)
    if config.include_prop:
        bounds += [("depth", config.max_depth, 0), ("size", config.max_size, 1)]
        names += [("a propositional variable", v, PROP_VAR) for v in config.prop_vars]
    if config.include_fo:
        bounds += [
            ("quantified depth", config.fo_max_depth, 0),
            ("quantified size", config.fo_max_size, 1),
            ("quantifier bound", config.fo_max_quantifiers, 0),
            ("individual bound", config.fo_max_individuals, 1),
        ]
        names += [("a propositional variable", v, PROP_VAR) for v in config.fo_prop_vars]
        names += [("an individual variable", v, IND_VAR) for v in config.fo_ind_vars]
        names += [("a predicate", p, PRED_NAME) for p in config.fo_predicates]
    for name, value, least in bounds:
        if value is not None and value < least:
            raise ValueError(f"sweep {name} must be at least {least}, got {value}")
    for kind, name, pattern in names:
        if not pattern.fullmatch(name):
            raise ValueError(f"cannot sweep {name!r} as {kind}")
    enumerate_assignments((), None, config.mode, seed=config.seed, count=config.count,
                          size_bound=config.size_bound)


def _check_point(report, text, expected, got, world, adx, h) -> None:
    """Record each policy whose truth at one point differs from the
    classical value, then any split between the policies.  A point of no
    world is named by its assignment's index adx.  The context strings
    are built only when a record is made."""
    context = None
    for policy, value in got.items():
        if value != expected:
            if context is None:
                if world is None:
                    context = policy_context = f"assignment {adx}: {h.describe() or 'empty'}"
                else:
                    policy_context = describe_world(world)
                    context = f"{policy_context}; {h.describe() or 'no variables'}"
            report.record(Disagreement(
                section="prop" if world is None else "fo", formula=text, context=context,
                expected=str(expected).lower(), got=f"{policy}: {str(value).lower()}"))
    # Truths are booleans, so policies can only split where one is wrong.
    if context is not None and len(set(got.values())) > 1:
        report.record(Disagreement(
            section="policy", formula=text, context=policy_context,
            expected="policy-independent truth",
            got=str({k: str(v).lower() for k, v in sorted(got.items())})))
