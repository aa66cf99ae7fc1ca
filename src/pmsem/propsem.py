"""Evaluation of formulas into Meanings, and propositional assignments.

One recursion, `_ev`, gives every formula its Meaning:

  * a propositional variable takes the assignment's Meaning;
  * disjunction unions the two families; negation swaps the hitting-set
    family (or maps a lone member to swapped singletons);
  * a predicate application takes the atom meaning at the individual
    the environment gives its variable.  `eval_fo` starts the
    environment from the world's valuation xi (`default_binding`: one
    variable per individual, and at least x, y and z): under base mode
    "any" it maps every valuation variable to the designated variable's
    individual; under base mode "all" it is empty, and an atom whose
    variable it lacks but xi names is read as its universal closure;
  * (x)q merges the instance meanings of q at every individual of the
    domain member by member, so its truth is the conjunction of theirs;
    (Ex)q disjoins them.

`eval_prop` runs it without a world, where predicates and quantifiers
are errors, and `eval_fo` in one, both through `_evaluate`.

Memos.  Each subformula's Meaning is recorded once per environment, in
a table keyed by the whole environment, which is all `_ev` reads that
varies, and found there by identity (formulas are hash-consed); so a
formula whose subformulas are recorded costs about one connective step.
A memo, a plain dict on the assignment, maps each
policy to a `_Context` of these tables and the world's valuation: one
context per point, policy and world, for both base modes, and one
valuation per context, never per call.  Its entry None is the computed
table of BDD packages (Bryant 1986; Brace, Rudell and Bryant 1990),
which maps a core and its operands to their result.  Meanings are
hash-consed (see `meanings`), so the operands themselves are the key:
(disjoin, m, n) for m v n, (negate, policy, m) for ~m, and
(disjoin, *instances) and (memberwise_union, *instances) for (Ex)q and
(x)q, so m v n and an (Ex)q whose instances are m and n share an entry.
`_ev` looks there before it calls a core and records a result only
once the core has returned it, so a refusal (ValueError) leaves no
entry.  `sweep_point` makes points whose memos share one computed table
that their caller owns and drops; a lone `eval_prop` or `eval_fo` makes
a memo and a table of its own and drops both on return, so it builds
each distinct subformula once.

Assignments.  `canonical_assignments` enumerates the 2^n classical
corners: each variable is carried by its own propositional constant (p
by P, q1 by Q1, ...) and is mapped either to the diagonal positive
singleton (true) or the flipped negative singleton (false).  Each
assignment carries the world adjusted so those complexes exist,
keeping every base complex grounded.  `sampled_assignments` draws
arbitrary Meanings over the world's existing complexes from a seeded
generator.  Over no variables both give the one empty assignment.
Either raises ValueError rather than build more than MAX_ASSIGNMENTS.

`classify` reports tautology / contradiction / contingent with witness
assignments.  It evaluates the first assignment and then the later ones
up to the first whose truth differs, which settles the verdict; its
`assignments_checked` counts the assignments enumerated, not those
evaluated.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .meanings import (
    POLICIES,
    Meaning,
    atom_meaning,
    disjoin,
    is_true,
    meaning,
    memberwise_union,
    negate,
)
from .ontology import Complex, Pair, World, all_pairs, constant_name
from .syntax import (
    IND_LETTERS,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    PredApp,
    PropVar,
    free_variables,
    prop_variables,
    variable_names,
)

__all__ = [
    "PropAssignment",
    "Verdict",
    "canonical_assignments",
    "classify",
    "declared_assignment",
    "default_binding",
    "default_world",
    "enumerate_assignments",
    "eval_fo",
    "eval_prop",
    "sampled_assignments",
    "sweep_point",
]

_NO_ENV: dict = {}  # the empty environment eval_prop and base mode "all" start in; never changed


def default_world(variables) -> World:
    """A world holding one true propositional constant per variable."""
    constants = tuple((constant_name(v), True) for v in sorted(set(variables)))
    return World(constants=constants)


@dataclass
class PropAssignment:
    """Meanings for propositional variables, grounded in a world."""

    values: dict[str, Meaning]
    world: World
    # Set by `sweep_point`; never copied by replace().
    memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def truths(self) -> dict[str, bool]:
        return {var: is_true(m) for var, m in self.values.items()}

    def describe(self) -> str:
        truths = self.truths()
        return ", ".join(f"{v}={'true' if truths[v] else 'false'}" for v in sorted(truths))


def eval_prop(f: Formula, h: PropAssignment, policy: str = "minimal") -> Meaning:
    """Meaning of a propositional formula under h."""
    return _evaluate(f, h, policy)


def eval_fo(
    f: Formula,
    world: World,
    assignment: PropAssignment | None = None,
    policy: str = "minimal",
    any_variable: str | None = None,
) -> Meaning:
    """Meaning of a monadic formula in world under assignment, in base
    mode "all" (any_variable None) or "any:<any_variable>"."""
    h = PropAssignment({}, world) if assignment is None else assignment
    return _evaluate(f, h, policy, world, any_variable)


def sweep_point(h: PropAssignment, computed: dict) -> PropAssignment:
    """A copy of h whose memo reaches computed, a table the caller owns,
    shares with the other points it makes and drops when they are done."""
    point = PropAssignment(values=h.values, world=h.world)
    point.memo = {None: computed}
    return point


def default_binding(world: World) -> dict[str, str]:
    """The valuation of individual variables `eval_fo` reads: one
    variable per individual (x, y, z, x1, ...), in name order, and at
    least x, y and z, which repeat the individuals of a smaller world."""
    individuals = sorted(world.individuals)
    if not individuals:
        raise ValueError("world has no individuals")
    names = variable_names(IND_LETTERS, max(len(individuals), len(IND_LETTERS)))
    return {v: individuals[i % len(individuals)] for i, v in enumerate(names)}


def _evaluate(f: Formula, h, policy: str, world=None, any_variable=None) -> Meaning:
    """`_ev` of f from the starting environment, through h's memo or, for
    a lone call, one of its own: the only code that reads or fills a
    memo or builds a `_Context`."""
    memo = {} if h.memo is None else h.memo
    ctx = memo.get(policy)
    if not ctx or ctx.world is not world:
        ctx = memo[policy] = _Context(h.values, policy, world, memo.setdefault(None, {}))
    if any_variable is None:
        env = _NO_ENV
        table = ctx.tables[()]
    else:
        xi = ctx.xi
        if any_variable not in xi:
            raise ValueError(f"designated variable {any_variable} is not in the valuation")
        env = dict.fromkeys(xi, xi[any_variable])
        table = ctx.tables.setdefault(tuple(env.items()), {})
    try:
        return table.get(f) or _ev(f, env, table, ctx)
    except _Unbound:
        unbound = sorted(free_variables(f) - set(ctx.xi))
        raise ValueError(f"unbound individual variables: {unbound}") from None


class _Context:
    """What `_ev` reads besides the formula, its environment and table:
    the world (None for `eval_prop`) and its valuation xi, tables, which
    maps each environment, as the tuple of its items, to its table, and
    computed, a memo's entry None, the computed table of the module
    docstring."""

    __slots__ = ("values", "policy", "world", "xi", "tables", "computed")

    def __init__(self, values, policy, world, computed):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.values = values
        self.policy = policy
        self.world = world
        self.xi = None if world is None else default_binding(world)
        self.tables = {(): {}}
        self.computed = computed


class _Unbound(Exception):
    """A predicate's variable is neither quantified nor named by the
    valuation."""


def _ev(g: Formula, env, table, ctx: _Context) -> Meaning:
    """Meaning of g in environment env, recorded in table.

    A miss is None and Meanings are never falsy, so
    `table.get(g) or ...` recurses exactly when g is not recorded.
    """
    if isinstance(g, Or):
        left, right = g.left, g.right
        m = table.get(left) or _ev(left, env, table, ctx)
        n = table.get(right) or _ev(right, env, table, ctx)
        computed, key = ctx.computed, (disjoin, m, n)
        table[g] = m = computed.get(key) or computed.setdefault(key, disjoin(m, n))
        return m
    elif isinstance(g, Not):
        operand = g.operand
        m = table.get(operand) or _ev(operand, env, table, ctx)
        computed, key = ctx.computed, (negate, ctx.policy, m)
        table[g] = m = computed.get(key) or computed.setdefault(key, negate(m, ctx.policy))
        return m
    elif isinstance(g, PropVar):
        try:
            m = ctx.values[g.name]
        except KeyError:
            raise ValueError(f"assignment does not cover variable {g.name}") from None
    elif ctx.world is None:
        kind = "predicates" if isinstance(g, PredApp) else "quantifiers"
        raise ValueError(f"eval_prop takes propositional formulas; use eval_fo for {kind}")
    elif isinstance(g, PredApp):
        if g.argument in env:
            m = atom_meaning(ctx.world, g.predicate, (env[g.argument],))
        elif g.argument not in ctx.xi:
            raise _Unbound
        else:
            m = _ev(ForAll(g.argument, g), env, table, ctx)
    elif isinstance(g, (ForAll, Exists)):
        # The body's Meaning with g's variable at each individual.
        instances = []
        for d in ctx.world.individuals:
            inner = {**env, g.variable: d}
            inner_table = ctx.tables.setdefault(tuple(inner.items()), {})
            instances.append(inner_table.get(g.body) or _ev(g.body, inner, inner_table, ctx))
        computed = ctx.computed
        if isinstance(g, Exists):
            key = (disjoin, *instances)
            m = computed.get(key) or computed.setdefault(key, disjoin(*instances))
        else:
            key = (memberwise_union, *instances)
            m = computed.get(key) or computed.setdefault(key, memberwise_union(instances))
    else:
        raise TypeError(f"not a formula: {g!r}")
    table[g] = m
    return m


# ---------------------------------------------------------------------------
# assignments

def _canonical_pair(variable: str, value: bool) -> Meaning:
    c = Complex(constant_name(variable), (), value)
    return meaning({Pair(c, value)})


# Most assignments one enumeration builds: 12 canonical variables, or a
# sampled count of 4,096.  Each assignment carries its own World.
MAX_ASSIGNMENTS = 2**12


def canonical_assignments(variables, world: World | None = None) -> list[PropAssignment]:
    """The 2^n corner assignments, true combinations first.

    Every variable needs its carrying constant declared in the world;
    each emitted assignment is grounded in the world adjusted so the
    assigned complexes are the existing ones.
    """
    names = sorted(set(variables))
    if 2 ** len(names) > MAX_ASSIGNMENTS:
        raise ValueError(
            f"{len(names)} variables give more than {MAX_ASSIGNMENTS} canonical assignments"
        )
    if world is None:
        world = default_world(names)
    declared = world.constant_values
    missing = [v for v in names if constant_name(v) not in declared]
    if missing:
        raise ValueError(
            f"world lacks propositional constants for {missing} (canonical mode)"
        )
    out = []
    for bits in itertools.product((True, False), repeat=len(names)):
        values = {v: _canonical_pair(v, bit) for v, bit in zip(names, bits)}
        grounded = world.with_constants(
            {constant_name(v): bit for v, bit in zip(names, bits)}
        )
        out.append(PropAssignment(values=values, world=grounded))
    return out


def declared_assignment(variables, world: World) -> PropAssignment:
    """The single assignment given by the world's declared constant values."""
    names = sorted(set(variables))
    declared = world.constant_values
    missing = [v for v in names if constant_name(v) not in declared]
    if missing:
        raise ValueError(f"world lacks propositional constants for {missing}")
    values = {v: _canonical_pair(v, declared[constant_name(v)]) for v in names}
    return PropAssignment(values=values, world=world)


# Largest size bound: at most that many members of at most that many
# pairs per sampled Meaning.  Callers use 2 or 3.
MAX_SIZE_BOUND = 16


def sampled_assignments(
    variables,
    world: World,
    seed: int,
    count: int,
    size_bound: int = 3,
) -> list[PropAssignment]:
    """Pseudo-random assignments over the world's pairs; reproducible by seed."""
    if seed is None:
        raise ValueError("sampled mode needs a seed")
    if count is None or count < 1:
        raise ValueError("sampled mode needs a positive count")
    if count > MAX_ASSIGNMENTS:
        raise ValueError(f"sampled count must be at most {MAX_ASSIGNMENTS}")
    if size_bound < 1:
        raise ValueError("size bound must be at least 1")
    if size_bound > MAX_SIZE_BOUND:
        raise ValueError(f"size bound must be at most {MAX_SIZE_BOUND}")
    names = sorted(set(variables))
    if not names:
        return [PropAssignment(values={}, world=world)]
    pool = list(all_pairs(world))  # random.sample is slower on a tuple
    if not pool:
        raise ValueError("world has no complexes to sample from")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        values = {}
        for v in names:
            n_members = rng.randint(1, size_bound)
            members = []
            for _ in range(n_members):
                size = rng.randint(1, min(size_bound, len(pool)))
                members.append(frozenset(rng.sample(pool, size)))
            values[v] = Meaning(frozenset(members))
        out.append(PropAssignment(values=values, world=world))
    return out


def enumerate_assignments(
    variables,
    world: World | None = None,
    mode: str = "canonical",
    *,
    seed: int | None = None,
    count: int | None = None,
    size_bound: int = 3,
) -> list[PropAssignment]:
    if mode == "canonical":
        return canonical_assignments(variables, world)
    if mode == "sampled":
        if world is None:
            world = default_world(variables)
        return sampled_assignments(variables, world, seed, count, size_bound)
    raise ValueError(f"unknown assignment mode {mode!r}")


# ---------------------------------------------------------------------------
# tautology decision

@dataclass
class Verdict:
    kind: str  # tautology | contradiction | contingent
    witness_true: PropAssignment | None = None
    witness_false: PropAssignment | None = None
    assignments_checked: int = 0  # enumerated, not only those evaluated


def classify(
    f: Formula,
    world: World | None = None,
    mode: str = "canonical",
    policy: str = "minimal",
    *,
    seed: int | None = None,
    count: int | None = None,
    size_bound: int = 3,
) -> Verdict:
    """Classify f as tautology/contradiction/contingent, evaluating no
    assignment after the first whose truth differs from the first one's."""
    points = enumerate_assignments(
        prop_variables(f), world, mode, seed=seed, count=count, size_bound=size_bound
    )
    first, *rest = points
    truth = is_true(eval_prop(f, first, policy))
    other = next((h for h in rest if is_true(eval_prop(f, h, policy)) != truth), None)
    kind = "contingent" if other else "tautology" if truth else "contradiction"
    witnesses = (first, other) if truth else (other, first)
    return Verdict(kind, *witnesses, assignments_checked=len(points))
