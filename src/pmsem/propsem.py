"""Evaluation of formulas into Meanings, and propositional assignments.

One evaluator gives every formula its Meaning: `compile_program` lowers
a list of formulas to a straight-line program, and `run` fills its
slots in order, each step reading only earlier slots:

  * (VAR, p) takes the assignment's Meaning of p;
  * (OR, i, j) unions the families of slots i and j; (NOT, i) swaps the
    hitting-set family of slot i (or maps a lone member to swapped
    singletons);
  * (ATOM, S, d) is the atom meaning of S at the individual d;
  * (ALL, slots) merges the Meanings of a quantifier's instances member
    by member, so its truth is the conjunction of theirs; (EX, slots)
    disjoins them.

Lowering.  A subformula is lowered once per environment, which maps
individual variables to individuals and is keyed by the sorted tuple
of its items, so (x)(y)g and (y)(x)g reach g in the same environments.  A
quantifier lowers its body at every individual of the domain, in the
world's order.  A predicate application reads its variable from the
environment; outside it, a variable the world's valuation xi names
(`default_binding`: one variable per individual, and at least x, y and
z) is read, under base mode "all", as the atom's universal closure.
Base mode "any:<u>" starts the environment with every variable of xi
at u's individual.  Steps are numbered by value, as in the DAG of a
basic block (Aho, Sethi and Ullman 1986, section 9.8): a step equal to
an earlier one, such as an atom two environments ground at the same
individual, takes that step's slot, so each slot is one distinct
computation.  A program depends on its world only through the domain,
so it serves every world with the same individuals.  For closed
formulas in base mode "all", `restrict` derives from it the program of
a smaller domain, a prefix of its own: it drops the atoms of the absent
individuals, cuts each quantifier to the instances of the first ones,
drops what reads a dropped step and numbers the rest by value again.
A sweep compiles once per vocabulary, for the largest domain, and
restricts (see `oracle`).  A variable the assignment does not cover, a
predicate or quantifier without a world, and an unbound individual
variable are refused as the program is compiled, in left-to-right
order, before anything is evaluated.

Running.  `run_columns` runs a program over a block of points, each a
(values, world) of one domain, at once: it fills each slot with a
column, the tuple of the slot's Meanings at every point of the block.
`run` runs it at one point through the same step loop, and there a
slot's column is its Meaning itself, not a tuple of one.  A run refuses
an unknown policy before any step and looks the cores up as module
globals at every step.  Its caller's computed table is that
of BDD packages (Bryant 1986; Brace, Rudell and Bryant 1990): it maps a
core and its operands to their result.  Meanings are hash-consed (see
`meanings`), so the operands themselves are the key: (disjoin, m, n)
for m v n, (negate, policy, m) for ~m, and (disjoin, *instances) and
(memberwise_union, *instances) for (Ex)q and (x)q, so m v n and an
(Ex)q whose instances are m and n share an entry.  The same table holds
a column under the core and its operand columns, (disjoin, c, d),
(negate, policy, c) and so on, so a step whose operand columns came up
before costs one lookup for the whole block.  One result has one key:
a one-point run's operands are Meanings, so its key is the entry
above, and a step it misses records that entry alone, which a block
over that point reads and writes too.  On a miss a block's step fills
each point through the entries above, calling a core only where a
point's entry is missing, and records the column only once every point
has its Meaning: each core runs once per distinct operands, and a
refusal (ValueError) leaves no column and no entry for the refused
point.  A block runs step by step, not point by point, so of two
refusals the one at the earlier step comes out, whatever their points.
A sweep runs each block once per policy, with one table for all its
blocks (see `oracle`).  A sampled `classify` shares one computed table
across its assignments; `eval_prop` and `eval_fo` compile and run their
one formula with a table of their own, `classify` compiles once per
call, and `fosem.logical_truth` compiles once per domain and runs each
assignment with a table of its own.

Assignments.  `enumerate_assignments` is the one way to list them and
to count them.  Canonical mode gives the 2^n classical corners: each
variable is carried by its own propositional constant (p by P, q1 by
Q1, ...) and is mapped either to the diagonal positive singleton (true)
or the flipped negative singleton (false), true combinations first;
`_corner` builds the k-th, and `classify` its witnesses with it.  Each
assignment carries the world adjusted so those complexes exist,
keeping every base complex grounded.  Sampled mode draws arbitrary
Meanings over the world's existing complexes from a seeded generator.
Over no variables both give the one empty assignment.  An enumeration
(`Enumeration`, which `fosem.enumerate_worlds` returns too) is counted,
and refuses all it refuses, when it is made: len gives its number
before any assignment is built.  Each iteration then builds its
assignments as it reaches them, a sampled one drawing them from a
generator seeded afresh, so every iteration gives equal assignments in
the same order.

`classify` reports tautology / contradiction / contingent, with the
first true and the first false assignment as witnesses.  In canonical
mode it runs the program once, at the all-true assignment.  That is
enough by symmetry (symmetry reduction: Clarke, Emerson, Jha and
Sistla 1996): let sigma_p exchange <P+,d> with <P-,not d>.  It commutes
with swap, union and hitting sets, so f's Meaning under an assignment h
is the all-true Meaning renamed by sigma_p for each p that h makes
false.  So a pair <P+,d> of the all-true Meaning is diagonal under h
iff h(p) = d, and that Meaning is read as a truth mask over all 2^n
assignments, bit k for the k-th canonical assignment (Knuth,
TAOCP 4A, 7.1.3): a member's mask is the AND of its pairs' masks, and
the Meaning's the OR of its members'.  A full mask is a tautology and
an empty one a contradiction; the witnesses are the lowest set bit and
the lowest zero bit, and only they are built as assignments.  Sampled
Meanings break the symmetry, so sampled mode runs the assignments in
order up to the first whose truth differs from the first one's, which
settles the verdict, and draws none after it.  `assignments_checked`
counts the assignments the verdict covers: 2^n canonical ones, or
every sampled one, drawn or not.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

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
    "Program",
    "PropAssignment",
    "Verdict",
    "classify",
    "compile_program",
    "declared_assignment",
    "default_binding",
    "default_world",
    "enumerate_assignments",
    "eval_fo",
    "eval_prop",
    "restrict",
    "run",
    "run_columns",
]


def default_world(variables) -> World:
    """A world holding one true propositional constant per variable."""
    constants = tuple((constant_name(v), True) for v in sorted(set(variables)))
    return World(constants=constants)


@dataclass
class PropAssignment:
    """Meanings for propositional variables, grounded in a world."""

    values: dict[str, Meaning]
    world: World

    def truths(self) -> dict[str, bool]:
        return {var: is_true(m) for var, m in self.values.items()}

    def describe(self) -> str:
        truths = self.truths()
        return ", ".join(f"{v}={'true' if truths[v] else 'false'}" for v in sorted(truths))


def eval_prop(f: Formula, h: PropAssignment, policy: str = "minimal") -> Meaning:
    """Meaning of a propositional formula under h."""
    return _run_one(f, h.values, None, policy)


def eval_fo(
    f: Formula,
    world: World,
    assignment: PropAssignment | None = None,
    policy: str = "minimal",
    any_variable: str | None = None,
) -> Meaning:
    """Meaning of a monadic formula in world under assignment, in base
    mode "all" (any_variable None) or "any:<any_variable>"."""
    values = {} if assignment is None else assignment.values
    return _run_one(f, values, world, policy, any_variable)


def _run_one(f, values, world, policy, any_variable=None) -> Meaning:
    """f's Meaning from a program and a computed table of its own."""
    program = compile_program([f], values, world, any_variable)
    return run(program, values, world, policy, {})[program.roots[0]]


def default_binding(world: World) -> dict[str, str]:
    """The valuation of individual variables a program reads: one
    variable per individual (x, y, z, x1, ...), in name order, and at
    least x, y and z, which repeat the individuals of a smaller world."""
    individuals = sorted(world.individuals)
    if not individuals:
        raise ValueError("world has no individuals")
    names = variable_names(IND_LETTERS, max(len(individuals), len(IND_LETTERS)))
    return {v: individuals[i % len(individuals)] for i, v in enumerate(names)}


# ---------------------------------------------------------------------------
# the straight-line program

# Step codes.  A step is (code, a, b) and fills the slot of its index.
_VAR, _ATOM, _OR, _NOT, _ALL, _EX = range(6)


class Program(NamedTuple):
    """Steps in slot order, and the slot of each formula compiled."""

    steps: tuple[tuple, ...]
    roots: tuple[int, ...]


def compile_program(formulas, names, world: World | None = None,
                    any_variable: str | None = None) -> Program:
    """The program of formulas under assignments to names, in world's
    domain (no world: predicates and quantifiers are refused), in base
    mode "all" (any_variable None) or "any:<any_variable>"."""
    lowering = _Lowering(names, world, any_variable)
    roots = tuple(lowering.root(f) for f in formulas)
    return Program(tuple(lowering.steps), roots)


class _Lowering:
    """The tables of one `compile_program` call, dropped on its return:
    slots maps (subformula, environment) to a slot, and numbers maps a
    step to its slot."""

    __slots__ = ("names", "individuals", "xi", "start", "formula", "slots", "numbers", "steps")

    def __init__(self, names, world, any_variable):
        self.names = names
        self.individuals = self.xi = None
        self.start = ()
        if world is not None:
            self.individuals = world.individuals
            self.xi = xi = default_binding(world)
            if any_variable is not None:
                if any_variable not in xi:
                    raise ValueError(f"designated variable {any_variable} is not in the valuation")
                self.start = tuple(sorted(dict.fromkeys(xi, xi[any_variable]).items()))
        self.slots = {}
        self.numbers = {}
        self.steps = []

    def root(self, f: Formula) -> int:
        self.formula = f  # named by an unbound variable's refusal
        return self.lower(f, self.start)

    def lower(self, g: Formula, env: tuple) -> int:
        key = (g, env)
        slot = self.slots.get(key)
        if slot is not None:
            return slot
        if isinstance(g, Or):
            step = (_OR, self.lower(g.left, env), self.lower(g.right, env))
        elif isinstance(g, Not):
            step = (_NOT, self.lower(g.operand, env), None)
        elif isinstance(g, PropVar):
            if g.name not in self.names:
                raise ValueError(f"assignment does not cover variable {g.name}")
            step = (_VAR, g.name, None)
        elif self.xi is None:
            kind = "predicates" if isinstance(g, PredApp) else "quantifiers"
            raise ValueError(f"eval_prop takes propositional formulas; use eval_fo for {kind}")
        else:
            step = self.lower_individual(g, env)
        slot = self.numbers.get(step)
        if slot is None:
            slot = self.numbers[step] = len(self.steps)
            self.steps.append(step)
        self.slots[key] = slot
        return slot

    def lower_individual(self, g: Formula, env: tuple) -> tuple:
        """The step of a predicate application or quantified formula."""
        if isinstance(g, PredApp):
            for variable, individual in env:
                if variable == g.argument:
                    return (_ATOM, g.predicate, individual)
            if g.argument not in self.xi:
                unbound = sorted(free_variables(self.formula) - set(self.xi))
                raise ValueError(f"unbound individual variables: {unbound}")
            g = ForAll(g.argument, g)  # the atom's universal closure
        if isinstance(g, (ForAll, Exists)):
            # The body with g's variable at each individual.
            bound = dict(env)
            instances = []
            for d in self.individuals:
                bound[g.variable] = d
                instances.append(self.lower(g.body, tuple(sorted(bound.items()))))
            return (_EX if isinstance(g, Exists) else _ALL, tuple(instances), None)
        raise TypeError(f"not a formula: {g!r}")


def restrict(program: Program, individuals) -> Program:
    """The program compile_program gives for a domain of individuals, a
    prefix of the domain program was compiled for, derived from program:
    an ATOM step of an absent individual drops, a quantifier step keeps
    the instances of the first len(individuals) individuals, a step with
    a dropped operand drops, and the remaining steps are renumbered by
    value, in order.  It equals that program, slot order included, only
    for closed formulas in base mode "all": a free variable's valuation
    `default_binding` depends on the domain's size."""
    present = set(individuals)
    kept = len(present)
    numbers = {}  # as in `_Lowering`: each step to its new slot, in slot order
    slots = []  # the new slot of each of program's slots, or None where it drops
    for code, a, b in program.steps:
        if code == _ATOM:
            step = (code, a, b) if b in present else None
        elif code == _VAR:
            step = (code, a, b)
        elif code == _OR:
            i, j = slots[a], slots[b]
            step = None if i is None or j is None else (code, i, j)
        elif code == _NOT:
            i = slots[a]
            step = None if i is None else (code, i, None)
        else:
            instances = tuple([slots[i] for i in a[:kept]])
            step = None if None in instances else (code, instances, None)
        slots.append(None if step is None else numbers.setdefault(step, len(numbers)))
    roots = tuple([slots[r] for r in program.roots])
    if None in roots:
        raise ValueError("a formula of the program reads an individual outside the restriction")
    return Program(tuple(numbers), roots)


def run(program: Program, values: dict, world: World | None, policy: str,
        computed: dict) -> list[Meaning]:
    """The Meaning of every slot of program under the assignment values,
    in world (one with the domain it was compiled for): the one-point
    block of `run_columns`, except that each slot holds its Meaning, not
    a tuple of one, so a step it misses records one entry in computed,
    the one a block over that point reads and writes."""
    return _run(program, ((values, world),), policy, computed, True)


def run_columns(program: Program, points, policy: str, computed: dict) -> list[tuple]:
    """The column of every slot of program over points, a sequence of
    (values, world) of one domain: the tuple of the slot's Meanings at
    each point, through the computed table of the module docstring."""
    return _run(program, points, policy, computed, False)


def _run(program: Program, points, policy: str, computed: dict, single: bool) -> list:
    """The step loop of `run` (single: points is one point, and each
    slot holds its Meaning) and of `run_columns` (each slot a tuple)."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    out = []
    put = out.append
    get = computed.get
    fill = _cell if single else _column
    if single:
        ((values, world),) = points

    def negation(m):
        return negate(m, policy)

    for code, a, b in program.steps:
        # A miss is None, and neither a Meaning nor a column of a
        # non-empty block is ever falsy (Meaning has no __len__ or
        # __bool__), so `get(key) or ...` fills a slot exactly on a miss.
        if code == _OR:
            key = (disjoin, out[a], out[b])
            put(get(key) or fill(computed, key, 1, disjoin))
        elif code == _NOT:
            key = (negate, policy, out[a])
            put(get(key) or fill(computed, key, 2, negation))
        elif code == _ATOM:
            if single:
                put(atom_meaning(world, a, (b,)))
            else:
                put(tuple([atom_meaning(w, a, (b,)) for _, w in points]))
        elif code == _VAR:
            put(values[a] if single else tuple([point[a] for point, _ in points]))
        elif code == _EX:
            key = (disjoin, *[out[i] for i in a])
            put(get(key) or fill(computed, key, 1, disjoin))
        else:
            key = (memberwise_union, *[out[i] for i in a])
            put(get(key) or fill(computed, key, 1, _union))
    return out


def _union(*instances) -> Meaning:
    return memberwise_union(instances)


def _cell(computed: dict, key: tuple, heads: int, core) -> Meaning:
    """The Meaning of key, a head of `heads` items and operand Meanings,
    on a miss: core(*operands), recorded only once it returns."""
    return computed.setdefault(key, core(*key[heads:]))


def _column(computed: dict, key: tuple, heads: int, core) -> tuple:
    """The column of key, a head of `heads` items and operand columns,
    on a miss: each point's Meaning is the table's under the head and
    the point's operands, or core(*operands), recorded as `_cell` does,
    and the column is recorded only once every point has its Meaning, so
    a refusal records none."""
    head = key[:heads]
    cells = []
    for operands in zip(*key[heads:]):
        cell = head + operands
        cells.append(computed.get(cell) or computed.setdefault(cell, core(*operands)))
    column = computed[key] = tuple(cells)
    return column


# ---------------------------------------------------------------------------
# assignments

def _canonical_pair(variable: str, value: bool) -> Meaning:
    c = Complex(constant_name(variable), (), value)
    return meaning({Pair(c, value)})


# Most assignments one enumeration builds: 12 canonical variables, or a
# sampled count of 4,096.  Each assignment carries its own World.
MAX_ASSIGNMENTS = 2**12

# Largest size bound: at most that many members of at most that many
# pairs per sampled Meaning.  Callers use 2 or 3.
MAX_SIZE_BOUND = 16


class Enumeration:
    """A counted listing: len gives its number before anything is built,
    and each iteration builds its items afresh, one at a time, in order."""

    __slots__ = ("count", "build")

    def __init__(self, count: int, build):
        self.count, self.build = count, build  # build() yields the items

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return self.build()


def enumerate_assignments(
    variables,
    world: World | None = None,
    mode: str = "canonical",
    *,
    seed: int | None = None,
    count: int | None = None,
    size_bound: int = 3,
) -> Enumeration:
    """The assignments of mode over variables, each grounded in world (by
    default, the world declaring each variable's carrying constant
    true): 2^n canonical ones, count sampled ones, and 1 over no
    variables.  Every refusal comes first, before any assignment is
    built: more than MAX_ASSIGNMENTS canonical assignments, an unknown
    mode or a missing or out-of-range sampled parameter, and then the
    world's.  Each
    iteration then builds them, a sampled one reseeding its generator,
    so every iteration gives the same assignments in the same order."""
    names = sorted(set(variables))
    if mode == "canonical":
        world = _canonical_world(names, world)
        return Enumeration(1 << len(names), partial(_corners, names, world))
    if mode != "sampled":
        raise ValueError(f"unknown assignment mode {mode!r}")
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
    if world is None:
        world = default_world(names)
    pool = list(all_pairs(world)) if names else []  # random.sample is slower on a tuple
    if names and not pool:
        raise ValueError("world has no complexes to sample from")
    total = count if names else 1
    return Enumeration(total, partial(_draws, names, world, pool, seed, total, size_bound))


def _canonical_world(names: list[str], world: World | None) -> World:
    """The world the canonical assignments to names are grounded in:
    world, or by default the world of names.  Refuses more than
    MAX_ASSIGNMENTS assignments, then a world lacking a carrying
    constant."""
    if 1 << len(names) > MAX_ASSIGNMENTS:
        raise ValueError(
            f"{len(names)} variables give more than {MAX_ASSIGNMENTS} canonical assignments"
        )
    if world is None:
        return default_world(names)
    _check_declared(names, world, " (canonical mode)")
    return world


def _check_declared(names: list[str], world: World, where: str = "") -> None:
    """Refuse a world that lacks the constant carrying a variable of names."""
    missing = [v for v in names if constant_name(v) not in world.constant_values]
    if missing:
        raise ValueError(f"world lacks propositional constants for {missing}{where}")


def _corner(names: list[str], world: World, k: int) -> PropAssignment:
    """The k-th canonical assignment to names, grounded in world with
    the carrying constants set to match: names[i] is true iff bit
    n-1-i of k is clear, so true combinations come first."""
    n = len(names)
    bits = [not k >> (n - 1 - i) & 1 for i in range(n)]
    values = {v: _canonical_pair(v, bit) for v, bit in zip(names, bits)}
    grounded = world.with_constants({constant_name(v): bit for v, bit in zip(names, bits)})
    return PropAssignment(values=values, world=grounded)


def _corners(names: list[str], world: World):
    for k in range(1 << len(names)):
        yield _corner(names, world, k)


def _draws(names: list[str], world: World, pool: list[Pair], seed: int, count: int,
           size_bound: int):
    rng = random.Random(seed)
    for _ in range(count):
        values = {}
        for v in names:
            n_members = rng.randint(1, size_bound)
            members = []
            for _ in range(n_members):
                size = rng.randint(1, min(size_bound, len(pool)))
                members.append(frozenset(rng.sample(pool, size)))
            values[v] = Meaning(frozenset(members))
        yield PropAssignment(values=values, world=world)


def declared_assignment(variables, world: World) -> PropAssignment:
    """The single assignment given by the world's declared constant values."""
    names = sorted(set(variables))
    _check_declared(names, world)
    declared = world.constant_values
    values = {v: _canonical_pair(v, declared[constant_name(v)]) for v in names}
    return PropAssignment(values=values, world=world)


# ---------------------------------------------------------------------------
# tautology decision

@dataclass
class Verdict:
    kind: str  # tautology | contradiction | contingent
    witness_true: PropAssignment | None = None
    witness_false: PropAssignment | None = None
    # the assignments the verdict covers, run or not: 2^n canonical ones,
    # which one run decides, or every sampled one
    assignments_checked: int = 0


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
    """Classify f as tautology/contradiction/contingent, with the first
    true and the first false assignment, in enumeration order, as
    witnesses.  Canonical mode runs f's program once, at the all-true
    assignment, and reads its truth at every assignment from that
    Meaning's truth mask; sampled mode runs it at no assignment after
    the first whose truth differs from the first one's."""
    names = sorted(prop_variables(f))
    if mode != "canonical":
        points = enumerate_assignments(names, world, mode, seed=seed, count=count,
                                       size_bound=size_bound)
        program = compile_program([f], names)
        (root,) = program.roots
        computed = {}  # the computed table every run shares, dropped on return

        def truth(h: PropAssignment) -> bool:
            return is_true(run(program, h.values, None, policy, computed)[root])

        drawn = iter(points)
        first = next(drawn)
        first_truth = truth(first)
        other = next((h for h in drawn if truth(h) != first_truth), None)
        kind = "contingent" if other else "tautology" if first_truth else "contradiction"
        witnesses = (first, other) if first_truth else (other, first)
        return Verdict(kind, *witnesses, assignments_checked=len(points))

    world = _canonical_world(names, world)
    program = compile_program([f], names)
    values = {v: _canonical_pair(v, True) for v in names}
    truths = _truth_mask(run(program, values, None, policy, {})[program.roots[0]], names)
    total = 1 << len(names)
    full = (1 << total) - 1

    def lowest(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    kind = "tautology" if truths == full else "contingent" if truths else "contradiction"
    return Verdict(kind,
                   _corner(names, world, lowest(truths)) if truths else None,
                   _corner(names, world, lowest(full ^ truths)) if truths != full else None,
                   assignments_checked=total)


def _truth_mask(m: Meaning, names: list[str]) -> int:
    """The truth of m, the Meaning at the all-true assignment to names,
    at every canonical assignment: bit k is set iff m, renamed to the
    k-th canonical assignment (`_corner`), is true.

    Renaming to h exchanges <P+,d> with <P-,not d> for each variable p
    that h makes false (see the module docstring), so a pair <P+,d> is
    diagonal under h iff h(p) = d.  A member is all-diagonal at the AND
    of its pairs' masks, and m is true at the OR of its members'.
    """
    n = len(names)
    full = (1 << (1 << n)) - 1
    masks = {}  # every pair of m is over a positive carrying constant
    for i, v in enumerate(names):
        # v is true at the first `block` assignments, false at the next
        # `block`, and so on (Knuth, TAOCP 4A, 7.1.3: magic masks)
        block = 1 << (n - 1 - i)
        true_at = full // ((1 << 2 * block) - 1) * ((1 << block) - 1)
        positive = Complex(constant_name(v), (), True)
        masks[Pair(positive, True)] = true_at
        masks[Pair(positive, False)] = full ^ true_at
    truths = 0
    for member in m.members:
        bits = full
        for p in member:
            bits &= masks[p]
        truths |= bits
    return truths
