"""Reader, labeling, and printer tests.

Tags: [DERIVED] hand-computed oracle, [PAPER] value quoted from the
source material's worked examples, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refflow.syntax import (
    Abstraction,
    Application,
    Case,
    CaseArityError,
    Constant,
    Deref,
    DuplicatePointError,
    Expression,
    FunctionalApplication,
    Group,
    Let,
    LetRec,
    Occurrence,
    ParseError,
    PNat,
    PVar,
    PTuple,
    PWildcard,
    Ref,
    SyntaxModuleError,
    Variable,
    _BINDS,
    _CHILDREN,
    _SHAPES,
    _children,
    _preorder,
    all_points,
    occurs_free,
    parse,
    pretty,
)

from conftest import ALIAS_CHAIN_SRC, RECURSIVE_SRCS, corpus
from reference import free_name_table, free_vars, subterm_at


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def test_literal_shapes():
    """[TRIVIAL] Constants parse to Constant nodes with their value."""
    assert parse("5").expr == Constant(5)
    assert parse("true").expr == Constant(True)
    assert parse("false").expr == Constant(False)
    assert parse("()").expr == Constant(())


def test_variable_and_abstraction_shapes():
    """[TRIVIAL] Identifiers and lambdas parse to the right nodes."""
    assert parse("x").expr == Variable("x")
    lam = parse(r"(\y. y)").expr
    assert isinstance(lam, Abstraction) and lam.param == "y"
    assert isinstance(lam.body.expr, Variable)


def test_reference_forms():
    """[TRIVIAL] ref, assignment, and dereference all parse."""
    assert isinstance(parse("(ref 1)").expr, Ref)
    assert isinstance(parse("(!x)").expr, Deref)
    prog = parse("(x := 2)")
    assert type(prog.expr).__name__ == "Assign"


def test_application_and_prim():
    """[TRIVIAL] Application and primitive forms are distinguished."""
    assert isinstance(parse("(f 1)").expr, Application)
    prim = parse("(+ 1 2)").expr
    assert type(prim).__name__ == "FunctionalApplication"
    assert prim.op == "+"
    assert type(parse("(&& true false)").expr).__name__ == "FunctionalApplication"


def test_case_patterns():
    """[TRIVIAL] Case parses nat, bool, var, wildcard, tuple patterns."""
    prog = parse("(case x [0 -> 1, true -> 2, n -> n, _ -> 4])")
    case = prog.expr
    assert isinstance(case, Case)
    kinds = [type(p).__name__ for p in case.patterns]
    assert kinds == ["PNat", "PBool", "PVar", "PWildcard"]
    tup = parse("(case x [(1, _) -> 0, _ -> 1])").expr
    assert isinstance(tup.patterns[0], PTuple)
    assert isinstance(tup.patterns[0].items[1], PWildcard)


# ---------------------------------------------------------------------------
# Point labeling
# ---------------------------------------------------------------------------


def test_explicit_labels_respected():
    """[DERIVED] Every @N annotation in the reference program lands on
    its node; the outermost point is 12."""
    prog = parse(ALIAS_CHAIN_SRC)
    assert prog.point == 12
    assert all_points(prog) == frozenset(range(1, 13))
    assert isinstance(subterm_at(prog, 2).expr, Ref)
    assert subterm_at(prog, 7).expr == Variable("z")


def test_auto_labels_skip_taken_ids():
    """[DERIVED] Unlabeled nodes get pre-order numbers that skip ids
    already claimed explicitly."""
    prog = parse("(let a 1@2 a)")
    # Pre-order: the let is first and takes 1; the literal claimed 2;
    # the body variable takes the next free id, 3.
    assert prog.point == 1
    assert subterm_at(prog, 2).expr == Constant(1)
    assert subterm_at(prog, 3).expr == Variable("a")


def test_duplicate_point_rejected():
    """[TRIVIAL] Two explicit @N with the same N is an error."""
    with pytest.raises(DuplicatePointError):
        parse("(+ 1@3 2@3)")


def test_case_arity_mismatch_rejected():
    """[TRIVIAL] A case with unequal pattern and clause counts fails."""
    with pytest.raises(CaseArityError):
        parse("(case x [0 -> 1, 2])")


def test_parse_error_has_position():
    """[TRIVIAL] Parse errors carry line and column."""
    with pytest.raises(ParseError) as exc:
        parse("(let x")
    assert exc.value.line == 1 and exc.value.col > 0


# ---------------------------------------------------------------------------
# Binders
# ---------------------------------------------------------------------------


def test_duplicate_binders_freshened():
    """[DERIVED] A rebound name is alpha-renamed so every binding
    occurrence is distinct; uses follow their binder."""
    prog = parse("(let x 1 (let x 2 x))")
    outer = prog.expr
    inner = outer.body.expr
    assert isinstance(outer, Let) and isinstance(inner, Let)
    assert outer.name == "x"
    assert inner.name != "x"
    assert inner.body.expr == Variable(inner.name)


def test_wildcard_binder():
    """[DERIVED] The throwaway binder _ is accepted in let position and
    freshened on reuse."""
    prog = parse("(let _ 1 (let _ 2 3))")
    outer = prog.expr
    inner = outer.body.expr
    assert outer.name == "_"
    assert inner.name == "wild_1"


def test_free_vars():
    """[TRIVIAL] Binders remove their name; everything else is free."""
    assert free_vars(parse("(let x y (+ x z))")) == frozenset({"y", "z"})
    assert free_vars(parse(r"(\a. (a b))")) == frozenset({"b"})
    assert free_vars(parse(ALIAS_CHAIN_SRC)) == frozenset()


def _shadowing_tree() -> Occurrence:
    """(let x y (case x [x -> (λx. (+ x z)), y -> (let rec y (x y) y)])),
    built without parse so that every binder form repeats a name."""
    o = Occurrence
    lam = o(Abstraction("x", o(FunctionalApplication("+", o(Variable("x"), 7), o(Variable("z"), 8)), 6)), 5)
    letrec = o(LetRec("y", o(Application(o(Variable("x"), 10), o(Variable("y"), 11)), 12), o(Variable("y"), 13)), 9)
    case = o(Case(o(Variable("x"), 3), (PVar("x"), PVar("y")), (lam, letrec)), 4)
    return o(Let("x", o(Variable("y"), 2), case), 1)


def test_occurs_free_matches_the_free_name_table():
    """[DERIVED] At every subterm of the first 100 corpus programs, the
    untyped recursive programs, the worked example and a tree whose
    binders all repeat a name, ``occurs_free`` answers for every name of
    the program, and one it never mentions, what the reference's table
    of free names says."""
    programs = list(corpus()[:100])
    programs += [parse(src) for src in (*RECURSIVE_SRCS, ALIAS_CHAIN_SRC)] + [_shadowing_tree()]
    checked = 0
    for program in programs:
        table = free_name_table(program)
        names = {name for occ in _preorder(program) for name in table[occ.point]} | {"nowhere"}
        for occ in _preorder(program):
            for name in sorted(names):
                assert occurs_free(name, occ) == (name in table[occ.point]), (pretty(occ), name)
                checked += 1
    assert free_vars(_shadowing_tree()) == frozenset({"y", "z"})
    assert checked > 5_000


# ---------------------------------------------------------------------------
# Rule tables
# ---------------------------------------------------------------------------


def test_rule_tables_cover_every_expression_class():
    """[TRIVIAL] The child enumeration, the printer, the checking walk and
    the evaluator each have one rule for exactly the expression classes,
    and the binder scopes one for exactly the binder classes, which names
    what each child of a sample node sees bound."""
    from refflow.semantics import _EVAL_RULES
    from refflow.typesys import _CHECK_RULES

    classes = set(Expression.__subclasses__())
    assert len(classes) == 12
    assert set(_CHILDREN) == classes
    assert set(_SHAPES) == classes
    assert set(_CHECK_RULES) == classes
    assert set(_EVAL_RULES) == classes
    assert set(_BINDS) == {Abstraction, Let, LetRec, Case}
    samples = [parse(source).expr for source in (
        r"(\x. x)", "(let f 1 f)", "(let rec f 1 f)", "(case 1 [0 -> 1, y -> y, (a, b) -> a, _ -> 2])"
    )]
    assert [_BINDS[type(expr)](expr) for expr in samples] == [
        (("x",),), ((), ("f",)), (("f",), ("f",)), ((), (), ("y",), (), ())
    ]
    assert all(len(_BINDS[type(expr)](expr)) == len(_children(expr)) for expr in samples)


def _unknown_node_messages() -> tuple:
    """The TypeError message of ``typecheck``, ``evaluate``, ``_children``
    and ``pretty`` on a node of an expression class no table knows, at
    the root and as a let body (None where nothing raised), and a weak
    reference to that class, which dies with this frame."""
    from refflow.semantics import evaluate
    from refflow.typesys import typecheck

    class Mystery(Expression):
        __slots__ = ()

        def __repr__(self) -> str:
            return "Mystery()"

    node = Occurrence(Mystery(), 1)
    nested = Occurrence(Let("a", Occurrence(Constant(1), 2), node), 3)
    messages = []
    for run in (typecheck, evaluate, lambda occ: _children(occ.expr), pretty):
        for occ in (node, nested):
            try:
                run(occ)
            except TypeError as err:
                messages.append(str(err))
            else:
                messages.append(None)
    return messages, weakref.ref(Mystery)


def test_unknown_expression_class_raises():
    """[DERIVED] A hand-built node of a new Expression subclass raises
    the TypeError the match-based walkers raised, recorded from them;
    ``_children`` of a let does not look inside its body, and ``pretty``
    of a let prints it.  The class is collected afterwards, so the
    coverage test above sees only the twelve classes whichever runs
    first."""
    messages, mystery = _unknown_node_messages()
    assert messages == ["unknown expression Mystery()"] * 5 + [None] + ["unknown expression Mystery()"] * 2
    gc.collect()
    assert mystery() is None
    assert len(Expression.__subclasses__()) == 12


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_pretty_round_trip_reference_program():
    """[DERIVED] pretty is a parse inverse on the reference program."""
    prog = parse(ALIAS_CHAIN_SRC)
    assert parse(pretty(prog)) == prog


def test_group_survives_round_trip():
    """[DERIVED] A labeled group over a labeled occurrence is a real
    node and survives printing."""
    prog = parse("((5@3)@4)")
    assert prog.point == 4
    assert isinstance(prog.expr, Group)
    assert parse(pretty(prog)) == prog


def test_pretty_prints_constants_past_the_digit_limit():
    """[DERIVED] A hand-built natural past ``int``'s 4300-digit limit for
    ``str``, as a constant and as a natural pattern, prints the digits
    ``show_value`` prints for it, as do the named constants."""
    from refflow.semantics import show_value

    huge = 10**5000
    digits = show_value(huge)
    assert digits == "1" + "0" * 5000
    assert pretty(Occurrence(Constant(huge), 1)) == f"{digits}@1"
    case = Case(Occurrence(Constant(huge), 2), (PNat(huge),), (Occurrence(Constant(()), 3),))
    assert pretty(Occurrence(case, 1)) == f"(case {digits}@2 [{digits} -> ()@3])@1"
    for value in (True, False, (), 0, -(10**5000)):
        assert pretty(Occurrence(Constant(value), 7)) == f"{show_value(value)}@7"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=25))
def test_pretty_round_trip_generated(seed, size):
    """[DERIVED] pretty o parse is the identity on generated programs."""
    from refflow.agreement import gen_program

    prog = gen_program(seed, size)
    assert parse(pretty(prog)) == prog


# ---------------------------------------------------------------------------
# Pinned reader behaviour
# ---------------------------------------------------------------------------

# Unlabeled, partially labeled and grouped inputs with their fully labeled
# rendering: pre-order numbering skips taken ids, groups are transparent
# unless they label an already labeled occurrence, and repeated binders
# are renamed apart.
PINNED_PRETTY = [
    ('(let x (ref 1) (let y (! x) (+ y 2)))', '(let x (ref 1@3)@2 (let y (!x@6)@5 (+ y@8 2@9)@7)@4)@1'),
    ('(\\x. x)', '(λ x. x@2)@1'),
    ('(case 3 [0 -> true, n -> false])', '(case 3@2 [0 -> true@3, n -> false@4])@1'),
    ('((λ f. (f 1)) (λ y. y))', '((λ f. (f@4 1@5)@3)@2 (λ y. y@7)@6)@1'),
    ('(let rec f (\\x. x) (f 1))', '(let rec f (λ x. x@3)@2 (f@5 1@6)@4)@1'),
    ('(case x [(1, _) -> 0, (a, (b, c)) -> 1, _ -> ()])', '(case x@2 [(1, _) -> 0@3, (a, (b, c)) -> 1@4, _ -> ()@5])@1'),
    ('(let a 1@2 a)', '(let a 1@2 a@3)@1'),
    ('(+ 1@5 (* 2 3@1))', '(+ 1@5 (* 2@4 3@1)@3)@2'),
    ('(let x (ref 4@1)@2 (!x))', '(let x (ref 4@1)@2 (!x@5)@4)@3'),
    ('((f@7 1) (g 2@1))@3', '((f@7 1@4)@2 (g@6 2@1)@5)@3'),
    ('(5@3)@4', '(5@3)@4'),
    ('(5)@4', '5@4'),
    ('((x))', 'x@1'),
    ('((5@3)@4)', '(5@3)@4'),
    ('(((5)))@2', '5@2'),
    ('((5@1))', '5@1'),
    ('(((5@1)@2)@3)', '((5@1)@2)@3'),
    ('((x y))@9', '(x@1 y@2)@9'),
    ('(let x 1 (let x 2 x))', '(let x 1@2 (let x_1 2@4 x_1@5)@3)@1'),
    ('(let _ 1 (let _ 2 3))', '(let _ 1@2 (let wild_1 2@4 3@5)@3)@1'),
    ('(\\x. (\\x. x))', '(λ x. (λ x_1. x_1@3)@2)@1'),
    ('(let x 1 (case x [x -> x, y -> (let y y y)]))', '(let x 1@2 (case x@4 [x_1 -> x_1@5, y -> (let y_2 y@7 y_2@8)@6])@3)@1'),
    ('(let x_1 1 (let x 2 (let x 3 x_1)))', '(let x_1 1@2 (let x 2@4 (let x_2 3@6 x_1@7)@5)@3)@1'),
    ('(+ ٣ 4)', '(+ 3@2 4@3)@1'),
    ('(let αβ 1 αβ)', '(let αβ 1@2 αβ@3)@1'),
    ('(let x² 1 x²)', '(let x² 1@2 x²@3)@1'),
    ("(let x' 1 (let x'_y 2 x'))", "(let x' 1@2 (let x'_y 2@4 x'@5)@3)@1"),
    ('# leading comment\n(+ 1 2) # trailing\n', '(+ 1@2 2@3)@1'),
    ('(&& true (|| false (< 1 (= 2 (- 3 4)))))', '(&& true@2 (|| false@4 (< 1@6 (= 2@8 (- 3@10 4@11)@9)@7)@5)@3)@1'),
    ('(x := (! x))', '(x@2 := (!x@4)@3)@1'),
    ('(λx.x)', '(λ x. x@2)@1'),
    ('007@0010', '7@10'),
    ('x # c', 'x@1'),
]

# Broken inputs with the exact error each raises.
PINNED_ERRORS = [
    ('', ParseError, "unexpected token 'end of input' (line 1, column 1)"),
    ('   ', ParseError, "unexpected token 'end of input' (line 1, column 4)"),
    ('# only a comment', ParseError, "unexpected token 'end of input' (line 1, column 17)"),  # the true end, past the comment
    ('(', ParseError, "unexpected token 'end of input' (line 1, column 2)"),
    (')', ParseError, "unexpected token ')' (line 1, column 1)"),
    (']', ParseError, "unexpected token ']' (line 1, column 1)"),
    ('(let', ParseError, "expected a name, found 'end of input' (line 1, column 5)"),
    ('(let x', ParseError, "unexpected token 'end of input' (line 1, column 7)"),
    ('(let x 1', ParseError, "unexpected token 'end of input' (line 1, column 9)"),
    ('(let x 1 x', ParseError, "expected ')', found 'end of input' (line 1, column 11)"),
    ('(let rec', ParseError, "expected a name, found 'end of input' (line 1, column 9)"),
    ('(let rec f', ParseError, "unexpected token 'end of input' (line 1, column 11)"),
    ('(\\ ', ParseError, "expected a name, found 'end of input' (line 1, column 4)"),
    ('(\\x', ParseError, "expected '.', found 'end of input' (line 1, column 4)"),
    ('(\\x.', ParseError, "unexpected token 'end of input' (line 1, column 5)"),
    ('(\\x. x', ParseError, "expected ')', found 'end of input' (line 1, column 7)"),
    ('(\\ let. 1)', ParseError, "expected a name, found 'let' (line 1, column 4)"),
    ('(\\1. 1)', ParseError, "expected a name, found '1' (line 1, column 3)"),
    ('(case', ParseError, "unexpected token 'end of input' (line 1, column 6)"),
    ('(case x', ParseError, "expected '[', found 'end of input' (line 1, column 8)"),
    ('(case x [', ParseError, "expected a pattern, found 'end of input' (line 1, column 10)"),
    ('(case x [0', CaseArityError, "case alternative needs 'pattern -> occurrence', found 'end of input' at line 1, column 11"),
    ('(case x [0 ->', ParseError, "unexpected token 'end of input' (line 1, column 14)"),
    ('(case x [0 -> 1', ParseError, "expected ',' or ']', found '' (line 1, column 16)"),
    ('(case x [0 -> 1,', ParseError, "expected a pattern, found 'end of input' (line 1, column 17)"),
    ('(case x [0 -> 1]', ParseError, "expected ')', found 'end of input' (line 1, column 17)"),
    ('(case x [0 1])', CaseArityError, "case alternative needs 'pattern -> occurrence', found '1' at line 1, column 12"),
    ('(case x [0 -> 1; 2])', ParseError, "unexpected character ';' (line 1, column 16)"),
    ('(case x [-> 1])', ParseError, "expected a pattern, found '->' (line 1, column 10)"),
    ('(case x [(1, 2 -> 0])', ParseError, "expected ')', found '->' (line 1, column 16)"),
    ('(case x [0 -> 1, 2])', CaseArityError, "case alternative needs 'pattern -> occurrence', found ']' at line 1, column 19"),
    ('(case x [let -> 1])', ParseError, "expected a pattern, found 'let' (line 1, column 10)"),
    ('(case x [0 -> 1, _ -> 2)', ParseError, "expected ',' or ']', found ')' (line 1, column 24)"),
    ('(ref', ParseError, "unexpected token 'end of input' (line 1, column 5)"),
    ('(!', ParseError, "unexpected token 'end of input' (line 1, column 3)"),
    ('(+ 1', ParseError, "unexpected token 'end of input' (line 1, column 5)"),
    ('(+ 1 2 3)', ParseError, "expected ')', found '3' (line 1, column 8)"),
    ('(x :=', ParseError, "unexpected token 'end of input' (line 1, column 6)"),
    ('(x := 1', ParseError, "expected ')', found 'end of input' (line 1, column 8)"),
    ('(f 1', ParseError, "expected ')', found 'end of input' (line 1, column 5)"),
    ('(f 1 2)', ParseError, "expected ')', found '2' (line 1, column 6)"),
    ('x@', ParseError, "expected an integer, found '' (line 1, column 3)"),
    ('x@y', ParseError, "expected an integer, found 'y' (line 1, column 3)"),
    ('x@@1', ParseError, "expected an integer, found '@' (line 1, column 3)"),
    ('x@-1', ParseError, "expected an integer, found '-' (line 1, column 3)"),
    ('x@1@2', ParseError, "unexpected trailing input '@' (line 1, column 4)"),
    ('1 2', ParseError, "unexpected trailing input '2' (line 1, column 3)"),
    ('())', ParseError, "unexpected trailing input ')' (line 1, column 3)"),
    ('$', ParseError, "unexpected character '$' (line 1, column 1)"),
    ('(let x 1 x) $', ParseError, "unexpected character '$' (line 1, column 13)"),
    ('a & b', ParseError, "unexpected character '&' (line 1, column 3)"),
    ('(x | y)', ParseError, "unexpected character '|' (line 1, column 4)"),
    ('(: x)', ParseError, "unexpected character ':' (line 1, column 2)"),
    ("'x", ParseError, 'unexpected character "\'" (line 1, column 1)'),
    ('x@1 y', ParseError, "unexpected trailing input 'y' (line 1, column 5)"),
    ('(let let 1 2)', ParseError, "expected a name, found 'let' (line 1, column 6)"),
    ('(let 1 2 3)', ParseError, "expected a name, found '1' (line 1, column 6)"),
    ('let', ParseError, "keyword 'let' cannot appear here (line 1, column 1)"),
    ('(ref ref)', ParseError, "keyword 'ref' cannot appear here (line 1, column 6)"),
    ('(+ 1@3 2@3)', DuplicatePointError, 'program point 3 is annotated more than once'),
    ('(x@2 (y@1 z@1))@2', DuplicatePointError, 'program point 2 is annotated more than once'),
    ('((5@1)@1)', DuplicatePointError, 'program point 1 is annotated more than once'),
    ('\x0c', ParseError, "unexpected character '\\x0c' (line 1, column 1)"),
    ('1\n  $', ParseError, "unexpected character '$' (line 2, column 3)"),
    ('(1 2)\n\n ]', ParseError, "unexpected trailing input ']' (line 3, column 2)"),
    ('x\xa0y', ParseError, "unexpected character '\\xa0' (line 1, column 2)"),
    ('(let x 1 # comment', ParseError, "unexpected token 'end of input' (line 1, column 19)"),  # the true end, past the comment
    ('(let x 1\n# two\n', ParseError, "unexpected token 'end of input' (line 3, column 1)"),
    ('Ⅻ', ParseError, "unexpected character 'Ⅻ' (line 1, column 1)"),
    ('½', ParseError, "unexpected character '½' (line 1, column 1)"),
    ('²', ParseError, "unexpected character '²' (line 1, column 1)"),  # '²' is a digit but not a decimal one
    ('x@²', ParseError, "unexpected character '²' (line 1, column 3)"),  # '²' is a digit but not a decimal one
    ('(+ ² 1)', ParseError, "unexpected character '²' (line 1, column 4)"),  # '²' is a digit but not a decimal one
    ('1²', ParseError, "unexpected character '²' (line 1, column 2)"),  # '²' is a digit but not a decimal one
]


@pytest.mark.parametrize("source, rendered", PINNED_PRETTY)
def test_pinned_rendering(source, rendered):
    """[DERIVED] The labeled rendering of each pinned input, and the
    rendering reads back to the same tree."""
    prog = parse(source)
    assert pretty(prog) == rendered
    assert parse(rendered) == prog


# Sources whose explicit labels sit where the counter runs, nested
# groups, and repeated binders, for the numbering digest.
NUMBERING_SOURCES = [
    "(+ 1@1 2)",
    "(+ 1@2 (+ 3 4@1))",
    "(let x 5@3 (+ x@1 (* x 2@4)))",
    "((λ y. y@2) 7@4)",
    "(+ 1@100 (+ 2 3))",
    "(case 3@1 [0 -> 4@3, n -> (+ n 1@2)])",
    "(let r (ref 0@5) (let _ (r := 1@3) (! r@1)))",
    "((f x))@5",
    "(5@3)@4",
    "(((f x)@2))@5",
    "((let x 1 x)@3 ((5@1)@2))",
    "(let x 1 (let x x (let x x x)))",
    "(\\x. (\\x. (\\x_1. (x x_1))))",
    "(let _ 1@4 (let _ 2 (let _ 3@2 6)))",
    "(let rec f (\\x. (f x)) (let rec f (\\y. (f y)) (f 1)))",
    "(let n 1 (case n [n -> n, m -> (let n m (let m n m))]))",
]


def test_point_numbering_pinned(monkeypatch):
    """[DERIVED] The labeled rendering of the generator's raw, unlabeled
    sources for seeds 0-1999 (what ``gen_program`` parses) and of sources
    whose labels collide with the counter, nest groups or repeat binders
    hashes to a pinned digest."""
    from refflow import agreement

    generated = []

    def recording_parse(source):
        generated.append(source)
        return parse(source)

    monkeypatch.setattr(agreement, "parse", recording_parse)
    for seed in range(2000):
        agreement.gen_program(seed, 1 + seed % 30)
    assert len(generated) == 2000 and not any("@" in source for source in generated)
    rows = [pretty(parse(source)) for source in generated + NUMBERING_SOURCES]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == "7a5db620774ab8e2"


def _renaming_source(rng, depth: int = 0) -> str:
    """A random source over a small name pool: binders repeat and shadow,
    ``x_1`` and ``wild_1`` collide with the names renaming generates, ``y``
    is sometimes bound and sometimes free, ``z`` is always free, and a few
    nodes carry labels drawn from a range small enough to repeat."""

    def sub() -> str:
        return _renaming_source(rng, depth + 1)

    def binder() -> str:
        return rng.choice(("x", "x", "x_1", "wild_1", "_", "y", "f"))

    def pattern(nested: int = 0) -> str:
        kind = rng.randrange(5 if nested < 2 else 4)
        if kind == 4:
            return "(" + ", ".join(pattern(nested + 1) for _ in range(rng.randint(2, 3))) + ")"
        return (rng.choice(("x", "x_1", "y", "z")), "_", str(rng.randint(0, 2)), "true")[kind]

    label = f"@{rng.randint(1, 40)}" if rng.random() < 0.08 else ""
    if depth >= 5 or depth and rng.random() < 0.25:
        return rng.choice(("x", "x", "x_1", "wild_1", "y", "z", "f", "3", "()")) + label
    form = rng.randrange(8)
    if form == 0:
        text = f"(λ{binder()}. {sub()})"
    elif form == 1:
        text = f"(let {binder()} {sub()} {sub()})"
    elif form == 2:
        text = f"(let rec {binder()} (λ{binder()}. {sub()}) {sub()})"
    elif form == 3:
        alts = ", ".join(f"{pattern()} -> {sub()}" for _ in range(rng.randint(1, 3)))
        text = f"(case {sub()} [{alts}])"
    elif form == 4:
        text = f"({sub()} {sub()})"
    elif form == 5:
        text = f"(+ {sub()} {sub()})"
    elif form == 6:
        text = rng.choice((f"(ref {sub()})", f"(! {sub()})", f"({sub()} := {sub()})"))
    else:
        text = f"({sub()})"
    return text + label


def test_renaming_pinned():
    """[DERIVED] The labeled rendering, or the error's type and message, of
    3000 seeded random sources that repeat and shadow binders of every
    form, read names the renaming could generate, read free names and
    repeat labels, hashes to a pinned digest."""
    import random

    rng = random.Random(20261018)
    rows = []
    for _ in range(3000):
        try:
            rows.append(pretty(parse(_renaming_source(rng))))
        except SyntaxModuleError as err:
            rows.append(f"{type(err).__name__}: {err}")
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == "58140ccb7c9f23cf"


@pytest.mark.parametrize("source, error, message", PINNED_ERRORS)
def test_pinned_errors(source, error, message):
    """[DERIVED] Each broken input raises exactly this error and message."""
    with pytest.raises(SyntaxModuleError) as exc:
        parse(source)
    assert type(exc.value) is error
    assert str(exc.value) == message


LONG_INT = "1" * 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")
@pytest.mark.parametrize(
    "source, column",
    [(LONG_INT, 1), (f"x@{LONG_INT}", 3), (f"(case 1 [{LONG_INT} -> 2])", 10)],
    ids=["constant", "label", "pattern"],
)
def test_overlong_integer_literal_is_a_parse_error(source, column):
    """[DERIVED] An INT with more digits than ``int`` converts is a
    ParseError at the literal, as a constant, an ``@N`` label and a
    natural-number pattern alike."""
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert str(exc.value) == f"integer literal of 5000 digits is too long (line 1, column {column})"


def test_integer_literal_at_the_digit_limit_parses():
    """[TRIVIAL] 4300 digits, the default limit, still read as a number."""
    assert parse("9" * 4300).expr == Constant(10**4300 - 1)


def test_unicode_letters_and_decimal_digits_still_lex():
    """[DERIVED] Identifiers start with any letter and go on with letters,
    digits, '_' and "'"; every Unicode decimal digit is an INT digit."""
    prog = parse("(let αβ² ٣٤ αβ²)")
    assert prog.expr.name == "αβ²"
    assert prog.expr.bound.expr == Constant(34)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_arbitrary_text_parses_or_raises_a_syntax_error(source):
    """[TRIVIAL] On any text the reader returns a tree or raises one of
    its own errors, never anything else."""
    try:
        parse(source)
    except SyntaxModuleError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="()[]@.,->:=!_+*<&|λ\\#\n x1²٣", max_size=200))
def test_near_miss_text_parses_or_raises_a_syntax_error(source):
    """[TRIVIAL] The same on text drawn from the language's own
    characters, where far more inputs get deep into the parser."""
    try:
        parse(source)
    except SyntaxModuleError:
        pass
