"""Collecting evaluator tests.

Tags: [DERIVED] hand-computed oracle, [PAPER] value quoted from the
source material's worked examples, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refflow.semantics import (
    AmbiguousPredecessor,
    DepPair,
    DepState,
    EMPTY_PAIR,
    EvalBudgetExceeded,
    EvalError,
    Location,
    MatchFailure,
    PrimTypeError,
    UnboundVariable,
    UnsupportedPattern,
    evaluate,
    ip_sem,
    match,
    show_value,
)
from refflow.syntax import PBool, PNat, PTuple, PVar, PWildcard, parse

import reference
from conftest import RECURSIVE_SRCS, corpus
from families import cases_source

LOC0 = Location(0)


def test_locations_are_one_per_index():
    """[TRIVIAL] Location(i) is one object per index that equals only
    itself, hashes with tuple's own hash (as the (index,) dataclass did),
    orders by its index, and keeps its index, its text and its repr
    through copies and pickles."""
    loc3 = Location(3)
    assert loc3 is Location(3) and {loc3: 1}[Location(3)] == 1
    assert loc3 != Location(4) and loc3 != (3,) and (3,) != loc3 and loc3 != 3 and loc3 != "loc3"
    assert not loc3 != Location(3)
    assert type(loc3).__hash__ is tuple.__hash__ and hash(loc3) == hash((3,))
    assert Location(2) < loc3 < Location(10) and loc3 <= Location(3) and not loc3 > Location(3)
    assert sorted([Location(10), loc3, Location(2)]) == [Location(2), loc3, Location(10)]
    assert loc3.index == 3 and str(loc3) == "loc3" and repr(loc3) == "Location(index=3)"
    assert copy.deepcopy(loc3) is loc3 and pickle.loads(pickle.dumps(loc3)) is loc3


# ---------------------------------------------------------------------------
# The reference program, end to end
# ---------------------------------------------------------------------------


def test_reference_program_value_and_bindings(alias_chain):
    """[PAPER] The worked example computes 5 with exactly five recorded
    bindings: x and z bind nothing, y depends on x's use, the cell is
    written once empty and once depending on z."""
    outcome = evaluate(alias_chain)
    assert outcome.value == 5
    assert outcome.dep.w == {
        ("x", 2): EMPTY_PAIR,
        ("z", 4): EMPTY_PAIR,
        ("y", 9): DepPair(frozenset(), frozenset({("x", 5)})),
        (LOC0, 2): EMPTY_PAIR,
        (LOC0, 8): DepPair(frozenset(), frozenset({("z", 7)})),
    }


def test_reference_program_realized_order(alias_chain):
    """[PAPER] The realized order is exactly the five derived pairs."""
    outcome = evaluate(alias_chain)
    assert outcome.dep.edges == {(2, 4), (2, 9), (5, 9), (2, 8), (7, 8)}


def test_reference_program_final_pair(alias_chain):
    """[DERIVED] The result depends on the last write and on the reads
    that reached it: ({loc0@8}, {x@6, z@7})."""
    outcome = evaluate(alias_chain)
    assert outcome.pair == DepPair(
        frozenset({(LOC0, 8)}), frozenset({("x", 6), ("z", 7)})
    )


def test_reference_program_bookkeeping(alias_chain):
    """[DERIVED] Twelve rule applications; the cell was allocated at
    point 2; the store holds 5 at the end."""
    outcome = evaluate(alias_chain)
    assert outcome.steps == 12
    assert outcome.loc_origin == {LOC0: 2}
    assert outcome.store == {LOC0: 5}


def test_reference_program_ip(alias_chain):
    """[PAPER] The immediate predecessor of the cell in the realized
    order is its write at 8, the supremum of {2, 8}."""
    outcome = evaluate(alias_chain)
    assert ip_sem(LOC0, outcome.dep) == (LOC0, 8)


# ---------------------------------------------------------------------------
# Rule-level oracles
# ---------------------------------------------------------------------------


def test_var_unions_looked_up_pair():
    """[DERIVED] A variable use returns its binding's recorded pair
    joined with its own occurrence."""
    outcome = evaluate(parse("(let x (ref 1@1)@2 (let y (!(x@3))@4 (y@5)@6)@7)@8"))
    # y's binding recorded the deref footprint; the use at 5 adds y@5.
    assert outcome.pair == DepPair(
        frozenset({(LOC0, 2)}), frozenset({("x", 3), ("y", 5)})
    )


def test_let_binds_at_bound_expression_point():
    """[DERIVED] let records its binding under the bound expression's
    point, not its own."""
    outcome = evaluate(parse("(let a (2@1)@2 (a@3)@4)@5"))
    assert ("a", 2) in outcome.dep.w


def test_param_binds_at_argument_point():
    """[DERIVED] Application records the parameter under the argument's
    end point."""
    outcome = evaluate(parse(r"(let f (\v. (v@1)@2)@3 ((f@4) (7@5))@6)@7"))
    assert ("v", 5) in outcome.dep.w
    assert outcome.value == 7


def test_case_binder_binds_at_scrutinee_point():
    """[DERIVED] A variable pattern binds at the scrutinee's point and
    carries the scrutinee's footprint."""
    outcome = evaluate(parse("(let s (4@1)@2 (case (s@3)@4 [0 -> 0@5, n -> (n@6)@7])@8)@9"))
    assert outcome.value == 4
    assert outcome.dep.w[("n", 4)] == DepPair(frozenset(), frozenset({("s", 3)}))


def test_assignment_returns_unit_with_target_footprint():
    """[DERIVED] An assignment evaluates to () and its pair tracks how
    the target location was reached, not the stored value."""
    outcome = evaluate(parse("(let r (ref 0@1)@2 ((r@3) := (9@4))@5)@6"))
    assert outcome.value == ()
    assert outcome.pair == DepPair(frozenset(), frozenset({("r", 3)}))
    assert outcome.dep.w[(LOC0, 5)] == EMPTY_PAIR


def test_deref_unions_stored_pair_and_latest_write():
    """[DERIVED] Reading a cell joins the reaching pair, the stored
    value's pair, and the latest write occurrence of the cell."""
    outcome = evaluate(parse("(let r (ref 0@1)@2 (let q ((r@3) := (r@4))@5 (!(r@6))@7)@8)@9"))
    # The cell now stores itself; the read sees the write at 5 and the
    # stored pair {r@4}, plus the read path {r@6}.
    assert outcome.pair == DepPair(
        frozenset({(LOC0, 5)}), frozenset({("r", 4), ("r", 6)})
    )


def test_recursion_runs():
    """[DERIVED] let rec supports self-application; 3 + 2 + 1 + 0 = 6."""
    src = (
        r"(let rec sum (\n. (case (n@1)@2 [0 -> (0@3), m -> (+ (m@4) ((sum@5) (- (m@6) (1@7))@8)@9)@10])@11)@12"
        r" ((sum@13) (3@14))@15)@16"
    )
    outcome = evaluate(parse(src))
    assert outcome.value == 6


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_match_accepts_and_rejects():
    """[TRIVIAL] Nat and bool patterns are exact, var binds, wildcard
    always matches, arbitrary tuples are unsupported."""
    assert match(PNat(3), 3) == {}
    assert match(PNat(3), 4) is None
    assert match(PBool(True), True) == {}
    assert match(PBool(True), False) is None
    assert match(PVar("n"), 7) == {"n": 7}
    assert match(PWildcard(), ()) == {}
    with pytest.raises(UnsupportedPattern):
        match(PTuple((PNat(1), PWildcard())), (1, 2))


def test_no_clause_matches():
    """[TRIVIAL] Falling off the end of a case raises MatchFailure."""
    with pytest.raises(MatchFailure):
        evaluate(parse("(case 3 [0 -> 1, 1 -> 2])"))


# ---------------------------------------------------------------------------
# Errors and budgets
# ---------------------------------------------------------------------------


def test_unbound_variable():
    """[TRIVIAL] A free variable with no seeded binding raises."""
    with pytest.raises(UnboundVariable):
        evaluate(parse("nowhere"))


def test_budget_exceeded_is_eval_error():
    """[TRIVIAL] A divergent program hits the step budget."""
    src = r"(let rec f (\x. ((f@1) (x@2))@3)@4 ((f@5) (0@6))@7)@8"
    with pytest.raises(EvalBudgetExceeded):
        evaluate(parse(src), budget=50)
    assert issubclass(EvalBudgetExceeded, EvalError)


def test_prim_type_error():
    """[TRIVIAL] Arithmetic on a boolean raises."""
    with pytest.raises(PrimTypeError):
        evaluate(parse("(+ 1 true)"))


def test_show_value():
    """[TRIVIAL] Values render in surface syntax."""
    assert show_value(True) == "true"
    assert show_value(()) == "()"
    assert show_value(LOC0) == "loc0"
    assert show_value(41) == "41"


def test_show_value_past_the_digit_limit():
    """[DERIVED] Naturals longer than int's default string-conversion
    limit (4300 digits) still print exactly, in either sign."""
    assert show_value(10**5000) == "1" + "0" * 5000
    assert show_value(-(10**5000) + 1) == "-" + "9" * 5000
    square = (10**3000 - 1) ** 2  # 9…98 0…01, 6000 digits
    assert show_value(square) == "9" * 2999 + "8" + "0" * 2999 + "1"
    assert show_value(-7) == "-7" and show_value(0) == "0"


# ---------------------------------------------------------------------------
# The semantic IP
# ---------------------------------------------------------------------------


def test_ip_sem_requires_unique_supremum():
    """[DERIVED] Two incomparable bindings of one subject have no
    immediate predecessor."""
    dep = DepState()
    dep.bind(LOC0, 2, EMPTY_PAIR, None)
    dep.bind(LOC0, 8, EMPTY_PAIR, None, threading=False)
    # No order edge relates 2 and 8, so neither write is latest.
    dep.into.clear()
    with pytest.raises(AmbiguousPredecessor):
        ip_sem(LOC0, dep)


def test_revisit_source_reachable_from_point_gets_no_edge():
    """[DERIVED] Rebinding x at 5 after 5 -> 7 -> 9 were realized: the
    sources 7 and 9 are reachable from 5, so each edge into 5 would close
    a cycle and is dropped; the unrelated source 3 gets its edge, and the
    chaining source is 5 itself."""
    dep = DepState()
    dep.bind("x", 5, EMPTY_PAIR, None)
    dep.bind("y", 7, DepPair(frozenset(), frozenset({("x", 6)})), 5)
    dep.bind("w", 9, EMPTY_PAIR, 7)
    assert dep.edges == {(5, 7), (6, 7), (7, 9)}
    dep.bind("x", 5, DepPair(frozenset(), frozenset({("w", 9), ("z", 3)})), 7)
    assert dep.edges == {(5, 7), (6, 7), (7, 9), (3, 5)}
    assert ip_sem("x", dep) == ("x", 5)


def test_ip_sem_finds_top_when_latest_is_not():
    """[DERIVED] Rebinding the cell at 2 after 2 -> 8: the chaining edge
    8 -> 2 would close a cycle and is dropped, so the latest binding 2 is
    not the top; the backward search from both points finds the unique
    greatest point, 8."""
    dep = DepState()
    dep.bind(LOC0, 2, EMPTY_PAIR, None)
    dep.bind(LOC0, 8, EMPTY_PAIR, None)
    dep.bind(LOC0, 2, EMPTY_PAIR, None)
    assert dep.edges == {(2, 8)} and dep.ip(LOC0) == 2
    assert ip_sem(LOC0, dep) == (LOC0, 8)


def test_ip_sem_missing_subject():
    """[TRIVIAL] Querying a subject never bound returns None."""
    assert ip_sem("ghost", DepState()) is None


def test_bound_points_equals_scan_of_w():
    """[DERIVED] The subject -> points table DepState keeps as it binds
    answers what a scan of dom(w) answers, for every subject of 200
    generated runs, for a subject never bound, and for a point bound
    twice."""
    for program in corpus()[:200]:
        dep = evaluate(program).dep
        subjects = {subject for subject, _ in dep.w}
        assert subjects == set(dep.latest)
        for subject in subjects | {"ghost", Location(10**6)}:
            assert dep.bound_points(subject) == {pt for subj, pt in dep.w if subj == subject}
    dep = DepState()
    dep.bind(LOC0, 2, EMPTY_PAIR, None)
    dep.bind(LOC0, 2, DepPair(frozenset(), frozenset({("x", 1)})), None)
    dep.bind(LOC0, 5, EMPTY_PAIR, None)
    assert dep.bound_points(LOC0) == frozenset({2, 5})
    assert isinstance(dep.bound_points(LOC0), frozenset)


SUBJECTS = ("x", "y", "z", LOC0, Location(1))


def _pair(atoms: frozenset, pts=None) -> DepPair:
    locs = frozenset(atom for atom in atoms if isinstance(atom[0], Location))
    return DepPair(locs, atoms - locs, pts)


def _random_binds(seed: int) -> tuple:
    """A random sequence of bind calls, drawn while the reference state
    runs it: rebinds of a bound key, pairs that carry ``pts`` or not,
    ``incoming`` None, ``threading`` off, and revisits whose sources the
    point already reaches.  Returns the calls, the reference state and
    the number of those revisits."""

    rng = random.Random(seed)
    ref = reference.DepState()
    calls, revisits = [], 0
    for _ in range(rng.randint(1, 14)):
        if ref.w and rng.random() < 0.2:
            subject, point = rng.choice(sorted(ref.w, key=repr))
        else:
            subject, point = rng.choice(SUBJECTS), rng.randrange(12)
        atoms = {(rng.choice(SUBJECTS), rng.randrange(12)) for _ in range(rng.randint(0, 3))}
        reached = sorted(reference._search(ref._succ, (point,)))
        if reached and rng.random() < 0.5:
            atoms.add((rng.choice(SUBJECTS), rng.choice(reached)))
            revisits += 1
        call = (subject, point, frozenset(atoms), rng.choice((None, rng.randrange(12))), rng.random() < 0.7)
        calls.append((*call, rng.random() < 0.5))
        ref.bind(subject, point, _pair(call[2]), *call[3:])
    return calls, ref, revisits


def _order_facts(dep, ip_sem_of) -> tuple:
    interpretations = []
    for subject in SUBJECTS:
        try:
            interpretations.append(ip_sem_of(subject, dep))
        except AmbiguousPredecessor as err:
            interpretations.append((str(err), err.subject, err.points))
    points = [dep.bound_points(subject) for subject in SUBJECTS]
    return dep.edges, dep.w, dep.latest, points, interpretations


def test_bind_matches_the_successor_set_reference():
    """[DERIVED] 4,000 random bind sequences give the same edges, w,
    latest binding, bound points and ip_sem (or ambiguity) for every
    subject on the bitset state as on the reference successor-set state
    of tests/reference.py, once numbering points as they come and once
    from a given index over none, some or all of them."""

    revisits = 0
    for seed in range(4000):
        calls, ref, found = _random_binds(seed)
        revisits += found
        expected = _order_facts(ref, reference.ip_sem)
        order = random.Random(-seed).sample(range(12), seed % 13)
        for index in (None, {point: position for position, point in enumerate(order)}):
            dep = DepState(index)
            for subject, point, atoms, incoming, threading, carry in calls:
                pts = sum({dep.bit(pt) for _, pt in atoms}) if carry else None
                dep.bind(subject, point, _pair(atoms, pts), incoming, threading)
            assert _order_facts(dep, ip_sem) == expected, (seed, index)
    assert revisits > 1000


def _realized_row(program) -> list:
    """The sorted realized edges, then each bound subject's semantic
    interpretation (or the ambiguity it raises)."""
    dep = evaluate(program).dep
    interpretations = []
    for subject in sorted(dep.subjects(), key=repr):
        try:
            interpretations.append(repr(ip_sem(subject, dep)))
        except AmbiguousPredecessor as err:
            interpretations.append(str(err))
    return [sorted(dep.edges), interpretations]


def test_realized_edges_pinned():
    """[DERIVED] The realized order and every bound subject's semantic
    interpretation, over the 1000 corpus programs, cases(4/8/20) and
    untyped recursive programs that revisit points, hash to a pinned
    digest."""
    programs = list(corpus())
    programs += [parse(cases_source(n)) for n in (4, 8, 20)]
    programs += [parse(src) for src in RECURSIVE_SRCS]
    rows = [_realized_row(program) for program in programs]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == "a87ab7bbc01a7bf1"


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=20))
def test_evaluation_is_deterministic(seed, size):
    """[DERIVED] Two runs of one program agree on value, bindings, and
    realized order."""
    from refflow.agreement import gen_program

    prog = gen_program(seed, size)
    first = evaluate(prog)
    second = evaluate(prog)
    assert show_value(first.value) == show_value(second.value)
    assert first.dep.w == second.dep.w
    assert first.dep.edges == second.dep.edges
