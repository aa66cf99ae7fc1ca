"""Parser, printer and formula utilities."""
import copy
import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from pmsem.oracle import enumerate_formulas
from pmsem.proof import apply_substitution
from pmsem.syntax import (
    _lex,
    Exists,
    ForAll,
    FormulaSyntaxError,
    Not,
    Or,
    PredApp,
    PropVar,
    conjoin,
    equivalent,
    free_variables,
    implies,
    parse,
    predicates,
    print_formula,
    prop_variables,
)
from test_cli import assert_usage_error
from test_propsem import FO_TREES, PROP_TREES

p, q, r = PropVar("p"), PropVar("q"), PropVar("r")


# ---------------------------------------------------------------------------
# parsing

def test_parse_plain_disjunction():
    assert parse("p v q") == Or(p, q)


def test_parse_dotted_conditional_desugars():
    assert parse("p v q .=>. q v p") == Or(Not(Or(p, q)), Or(q, p))


def test_parse_quantifier_dot_scopes_to_group_end():
    assert parse("(x). S(x) v p") == ForAll("x", Or(PredApp("S", "x"), p))


def test_quantifier_dot_swallows_equal_count_conjunction():
    f = parse("(Ex). S(x) . R(x)")
    assert f == Exists("x", conjoin(PredApp("S", "x"), PredApp("R", "x")))


def test_flanked_connective_closes_quantifier_scope():
    f = parse("(Ex). S(x) .=>. (x). S(x)")
    assert f == implies(Exists("x", PredApp("S", "x")), ForAll("x", PredApp("S", "x")))


def test_heavier_conjunction_dots_close_quantifier_scope():
    f = parse("(x). S(x) .. p")
    assert f == conjoin(ForAll("x", PredApp("S", "x")), p)


def test_parse_existential():
    assert parse("(Ex). S(x)") == Exists("x", PredApp("S", "x"))


def test_parse_negation_binds_tightest():
    assert parse("~p v q") == Or(Not(p), q)


def test_parse_conjunction_dot():
    assert parse("p . q") == conjoin(p, q)
    assert parse("p . q") == Not(Or(Not(p), Not(q)))


def test_parse_equivalence_desugars():
    assert parse("p <=> q") == equivalent(p, q)


def test_more_dots_bind_looser():
    # the double-dot conditional outscopes the single-dot conjunction
    f = parse("p . q .=>. p")
    assert f == implies(conjoin(p, q), p)


def test_conditional_is_right_associative():
    assert parse("p => q => r") == implies(p, implies(q, r))


def test_disjunction_is_left_associative():
    assert parse("p v q v r") == Or(Or(p, q), r)


def test_parentheses_override_dots():
    assert parse("(p v q) => p") == implies(Or(p, q), p)


def test_nested_quantifiers():
    f = parse("(x)(y). S(x) v S(y)")
    assert f == ForAll("x", ForAll("y", Or(PredApp("S", "x"), PredApp("S", "y"))))


def test_dotless_quantifier_takes_single_operand():
    f = parse("(x)S(x) v p")
    assert f == Or(ForAll("x", PredApp("S", "x")), p)


def test_right_dots_widen_an_undotted_connective():
    # "v." has force (1, 1), looser than the conjunction dot's (1, 0)
    assert parse("p . q v. r") == Or(conjoin(p, q), r)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "p v",
        "v p",
        "p q",
        "((p)",
        "p ~ q",
        "S(",
        "S()",
        "(x).",
        "~(x)S(x) v p",  # quantifier under ~ must be parenthesized
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(FormulaSyntaxError):
        parse(text)


def test_syntax_error_reports_position():
    with pytest.raises(FormulaSyntaxError, match="position"):
        parse("p v")


@pytest.mark.parametrize("text, message", [
    (" v ".join(["p"] * 10001), "formula has more than 10000 nodes (at position 39998)"),
    (" <=> ".join(["p"] * 13), "formula has more than 10000 nodes (at position 0)"),
], ids=["operator-soup", "desugared-tree"])
def test_parse_refuses_past_the_node_bound(capsys, text, message):
    """The soup of a group is bounded while it is read, at the operator
    that passes the bound; the desugared tree once it is built, at 0.
    Twelve chained <=> pass the bound within the depth bound."""
    assert assert_usage_error(capsys, "parse", text) == f"error: {message}\n"


# ---------------------------------------------------------------------------
# lexing

def tokens(text):
    return [(t.kind, t.value, t.count, t.pos) for t in _lex(text)]


def test_lexer_reads_names_and_dots():
    assert tokens("(Ex1)..S(x1) v p12") == [
        ("LPAREN", "(", 0, 0),
        ("PREDNAME", "Ex1", 0, 1),
        ("RPAREN", ")", 0, 4),
        ("DOTS", "..", 2, 5),
        ("PREDNAME", "S", 0, 7),
        ("LPAREN", "(", 0, 8),
        ("INDVAR", "x1", 0, 9),
        ("RPAREN", ")", 0, 11),
        ("OR", "v", 0, 13),
        ("PROPVAR", "p12", 0, 15),
        ("END", "", 0, 18),
    ]


def test_lexer_edge_cases():
    assert parse("p12") == PropVar("p12")
    assert parse("(Ex1).S(x1)") == Exists("x1", PredApp("S", "x1"))
    assert parse("p <=> q") == equivalent(p, q)
    assert parse("p<=>q=>r") == equivalent(p, implies(q, r))
    assert parse("p\tv\x1cq \n") == Or(p, q)
    assert [t.kind for t in _lex("p,q")] == ["PROPVAR", "COMMA", "PROPVAR", "END"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("vx", "unknown symbol 'v' (at position 0)"),  # v then a letter is no connective
        ("p v1", "unknown symbol 'v' (at position 2)"),
        ("p <= q", "unknown symbol '<' (at position 2)"),
        ("p v #", "unknown symbol '#' (at position 4)"),
        ("p .", "dangling dots (at position 2)"),
        (". p", "dangling dots (at position 0)"),
        ("p ..", "dangling dots (at position 2)"),
        ("p\u00b2", "unknown symbol '\u00b2' (at position 1)"),  # names are ASCII
        ("p\u0661 v q", "unknown symbol '\u0661' (at position 1)"),
        ("\u00c9x(x)", "unknown symbol '\u00c9' (at position 0)"),
        ("S\u00e9(x)", "unknown symbol '\u00e9' (at position 1)"),
        ("p)", "unexpected trailing ')' (at position 1)"),
        ("S", "predicate S needs an argument (at position 1)"),
        ("S(x,y)", "non-monadic predicate application (at position 3)"),
        ("S(x", "unbalanced parentheses (at position 3)"),
        ("S(x) , p", "non-monadic predicate application (at position 5)"),
    ],
)
def test_lexer_errors_name_symbol_and_position(text, message):
    with pytest.raises(FormulaSyntaxError) as info:
        parse(text)
    assert str(info.value) == message
    assert info.value.position == int(message.rsplit(" ", 1)[1].rstrip(")"))


# ---------------------------------------------------------------------------
# printing

def test_print_disjunction_parenthesized():
    assert print_formula(Or(p, q)) == "(p v q)"


def test_print_negated_variable():
    assert print_formula(Not(p)) == "~p"


def test_print_universal():
    assert print_formula(ForAll("x", PredApp("S", "x"))) == "(x).S(x)"


def test_print_existential():
    assert print_formula(Exists("x", PredApp("S", "x"))) == "(Ex).S(x)"


# ---------------------------------------------------------------------------
# round trips

_atoms = st.sampled_from([p, q, r, PredApp("S", "x"), PredApp("R", "y")])


def _formulas(max_leaves=8):
    return st.recursive(
        _atoms,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda lr: Or(*lr)),
            inner.map(lambda g: ForAll("x", g)),
            inner.map(lambda g: Exists("y", g)),
        ),
        max_leaves=max_leaves,
    )


@given(_formulas())
def test_print_parse_round_trip(f):
    assert parse(print_formula(f)) == f


@given(_formulas())
def test_printing_is_deterministic(f):
    assert print_formula(f) == print_formula(f)


# ---------------------------------------------------------------------------
# variables

def test_free_variables_of_atom():
    assert free_variables(PredApp("S", "x")) == {"x"}


def test_quantifier_binds_variable():
    assert free_variables(ForAll("x", PredApp("S", "x"))) == set()


def test_free_variables_mixed():
    f = Or(PredApp("S", "x"), Exists("y", PredApp("R", "y")))
    assert free_variables(f) == {"x"}


def test_prop_variables_ignore_individuals():
    f = parse("(x). S(x) v p")
    assert prop_variables(f) == {"p"}
    assert predicates(f) == {"S"}


# ---------------------------------------------------------------------------
# hash-consing

NODE_CLASSES = (PropVar, PredApp, Or, Not, ForAll, Exists)


@given(st.one_of(PROP_TREES, FO_TREES))
@settings(max_examples=200)
def test_equal_formulas_are_one_node(f):
    """Rebuilding a formula, by parsing its text or by substituting
    nothing, gives the node itself, and its hash is the object's own."""
    assert parse(print_formula(f)) is f
    assert apply_substitution(f, {}) is f
    assert hash(f) == object.__hash__(f)


def test_equal_fields_in_two_node_classes_are_two_nodes():
    """Each node class keeps its own table, so a universal and an
    existential with the same variable and body stay apart."""
    body = PredApp("S", "x")
    every, some = ForAll("x", body), Exists("x", body)
    assert every is not some
    assert ForAll._live[("x", body)]() is every
    assert Exists._live[("x", body)]() is some


def test_copies_and_pickles_are_the_node():
    for f in (parse("p v ~q"), parse("(x). S(x) .=>. (Ey). S(y)")):
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f


@pytest.mark.parametrize(
    "build",
    [
        lambda: PropVar(),
        lambda: PropVar("p", "q"),
        lambda: PropVar(name="p"),
        lambda: Not(p, q),
        lambda: Or(p),
        lambda: Or(left=p, right=q),
        lambda: PredApp("S"),
        lambda: ForAll("x", p, q),
    ],
)
def test_construction_takes_exactly_the_fields_by_position(build):
    with pytest.raises(TypeError):
        build()


def test_nodes_nobody_uses_are_freed():
    """Each class holds its live nodes weakly: a dropped enumeration
    leaves its tables no larger than before it was built."""
    gc.collect()
    before = {cls: len(cls._live) for cls in NODE_CLASSES}
    formulas = enumerate_formulas(("p", "q", "r"), max_depth=6, max_size=8)
    assert len(Or._live) > before[Or] + 1000
    del formulas
    gc.collect()
    for cls in NODE_CLASSES:
        assert len(cls._live) <= before[cls], cls.__name__
