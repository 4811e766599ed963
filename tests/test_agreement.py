"""Soundness oracle and generator tests.

Tags: [DERIVED] hand-computed oracle, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refflow.agreement import (
    CLAUSES,
    AgreementReport,
    check_soundness,
    gen_program,
)
from refflow.semantics import AmbiguousPredecessor, Closure, DepPair, DepState, Location, evaluate, ip_sem
from refflow.syntax import (
    Assign,
    Constant,
    FunctionalApplication,
    Let,
    LetRec,
    Occurrence,
    Ref,
    Variable,
    _children,
    parse,
    pretty,
)
from refflow.typesys import MUTATIONS, TypeCheckError, typecheck

import reference
from reference import subterm_at
from conftest import RECURSIVE_SRCS
from families import cases_source


# ---------------------------------------------------------------------------
# The oracle on the reference program
# ---------------------------------------------------------------------------


def test_reference_program_agrees(alias_chain):
    """[DERIVED] Every clause holds on the worked example, with the
    hand-counted number of checks per clause."""
    report = check_soundness(alias_chain)
    assert report.outcome == "pass"
    assert report.steps == 12
    activity = {name: report.clauses[name].activity for name in CLAUSES}
    assert activity == {
        "dependency": 15,
        "alias": 10,
        "type": 6,
        "environment": 3,
        "order": 5,
        "ip": 1,
    }
    assert report.binding_lemma.holds and report.binding_lemma.activity == 6


def test_trivial_program_agrees():
    """[TRIVIAL] A constant has nothing to disagree about."""
    report = check_soundness(parse("5"))
    assert report.outcome == "pass"


def test_rejected_program_raises():
    """[TRIVIAL] A program the checker rejects never reaches the
    differential run."""
    with pytest.raises(TypeCheckError):
        check_soundness(parse(r"(let x (\y. (y@1))@2 ((x@3) ((x@4) (1@5))@6)@7)@8"))


def test_budget_overrun_is_inconclusive():
    """[TRIVIAL] Running out of steps is reported, not failed."""
    src = "(let a (1@1)@2 (let b (2@3)@4 (a@5)@6)@7)@8"
    report = check_soundness(parse(src), budget=3)
    assert report.outcome == "inconclusive"


# ---------------------------------------------------------------------------
# Tampering: the oracle notices runtime lies
# ---------------------------------------------------------------------------


def test_tampered_pair_fails_dependency(alias_chain):
    """[DERIVED] Injecting a ghost occurrence into a run-time pair
    breaks the dependency clause."""

    def tamper(occ, value, pair):
        if occ.point == 4:
            return value, pair.union(DepPair(frozenset(), frozenset({("ghost", 99)})))
        return None

    report = check_soundness(alias_chain, tamper=tamper)
    assert report.outcome == "fail"
    assert "dependency" in report.failed_clauses()


def test_tampered_value_fails_type(alias_chain):
    """[DERIVED] Swapping a computed number for a location breaks the
    type clause: a location needs a nonempty alias set."""

    def tamper(occ, value, pair):
        if occ.point == 3:
            return Location(99), pair
        return None

    report = check_soundness(alias_chain, tamper=tamper)
    assert report.outcome == "fail"
    assert "type" in report.failed_clauses()


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic():
    """[TRIVIAL] Same seed and size, same program."""
    assert pretty(gen_program(7, 12)) == pretty(gen_program(7, 12))
    assert pretty(gen_program(7, 12)) != pretty(gen_program(8, 12))


def test_generator_rejects_non_positive_size():
    """[TRIVIAL] Size must be at least 1."""
    with pytest.raises(ValueError):
        gen_program(0, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=25))
def test_generated_programs_are_closed_and_typed(seed, size):
    """[DERIVED] Generated programs are closed, accepted by the
    checker, and terminate within the default budget."""
    prog = gen_program(seed, size)
    assert reference.free_vars(prog) == frozenset()
    typecheck(prog)
    evaluate(prog)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=25))
def test_generated_programs_agree(seed, size):
    """[DERIVED] The static analysis agrees with the run on generated
    programs."""
    report = check_soundness(gen_program(seed, size))
    assert report.outcome == "pass", report.to_dict()


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def test_report_to_dict_is_sorted(alias_chain):
    """[TRIVIAL] The serialized report lists clauses alphabetically and
    carries outcome, steps, and note."""
    doc = check_soundness(alias_chain).to_dict()
    assert list(doc["clauses"]) == sorted(doc["clauses"])
    assert doc["outcome"] == "pass"
    assert set(doc) == {"outcome", "steps", "note", "binding_lemma", "clauses"}


def test_settle_flags_binding_lemma():
    """[TRIVIAL] A lemma violation alone fails the report."""
    report = AgreementReport()
    report.binding_lemma.check(False, witness="x rebound in its own scope")
    assert report.settle().outcome == "fail"


# ---------------------------------------------------------------------------
# Pinned reports
# ---------------------------------------------------------------------------


def test_reports_under_every_mutation_pinned():
    """[DERIVED] The oracle's reports on the first 300 corpus programs,
    unmutated and under each mutation (a rejection recorded as its
    message), hash to a pinned digest."""
    rows = []
    for mutation in (None, *MUTATIONS):
        for seed in range(300):
            prog = gen_program(seed, 1 + seed % 30)
            try:
                rows.append(check_soundness(prog, mutation=mutation).to_dict())
            except TypeCheckError as err:
                rows.append(str(err))
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == "ff512f009f54f4b6"


@pytest.mark.parametrize(
    "n, digest",
    [(4, "8e935f6c545336be"), (8, "47b0ffda5c102852"), (20, "4dbe9bd26f94b4d2")],
)
def test_reports_on_cases_pinned(n, digest):
    """[DERIVED] The oracle's reports on cases(n), where Pi branches and
    joins n times and one cell is written at every arm, unmutated and
    under each mutation, hash to a pinned digest."""
    prog = parse(cases_source(n))
    rows = []
    for mutation in (None, *MUTATIONS):
        try:
            rows.append(check_soundness(prog, mutation=mutation).to_dict())
        except TypeCheckError as err:
            rows.append(str(err))
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16] == digest


def _points(program, pick) -> frozenset:
    """The points ``pick`` names for each expression of the program."""
    out, stack = set(), [program]
    while stack:
        occ = stack.pop()
        out.update(pick(occ.expr))
        stack.extend(_children(occ.expr))
    return frozenset(out)


def _tampers(program) -> dict:
    """Run-time lies, each one some clause should notice.  The first three
    are the tampers of the tests above; the others lie about every write,
    every written cell and every let-bound natural of the program.  A
    location only ever replaces a natural, which no rule dereferences or
    applies, so each run ends in a report."""
    ghost = DepPair(frozenset(), frozenset({("ghost", 99)}))
    ghosts = DepPair(
        frozenset({(Location(3), 5), (Location(1), 8), (Location(0), 7), (Location(1), 2)}),
        frozenset({("g", 9), ("a", 7)}),
    )
    written = _points(program, lambda e: (e.init.point,) if isinstance(e, Ref)
                      else (e.value.point,) if isinstance(e, Assign) else ())
    targets = _points(program, lambda e: (e.target.point,) if isinstance(e, Assign) else ())
    bound = _points(program, lambda e: (e.bound.point,) if isinstance(e, Let) else ())

    def nat(value) -> bool:
        return type(value) is int

    return {
        "ghost-variable": lambda occ, v, p: (v, p.union(ghost)) if occ.point == 4 else None,
        "location-at-3": lambda occ, v, p: (Location(99), p) if occ.point == 3 and nat(v) else None,
        "ghost-atoms": lambda occ, v, p: (v, p.union(ghosts)) if occ.point == 4 else None,
        # the store: a location's content is itself a location
        "location-content": lambda occ, v, p: (Location(7), p) if occ.point in written and nat(v) else None,
        # the store and its alias check: every write lands in the first cell
        "first-cell-target": lambda occ, v, p: (
            (Location(0), p) if occ.point in targets and isinstance(v, Location) else None
        ),
        # the environment: a let-bound natural is a location
        "location-bound": lambda occ, v, p: (Location(7), p) if occ.point in bound and nat(v) else None,
    }


@functools.lru_cache(maxsize=1)
def _pinned_programs() -> tuple:
    programs = [gen_program(seed, 1 + seed % 30) for seed in range(1000)]
    programs += [parse(cases_source(n)) for n in (4, 8, 20)]
    programs += [parse(src) for src in RECURSIVE_SRCS]
    return tuple(programs)


@pytest.mark.parametrize(
    "variant, digest",
    [
        ("none", "d56c29f662add9aa"),
        ("tvar-drop-atom", "b45740402ffc77cc"),
        ("tlet1-drop-kappa", "967d5afcaadda985"),
        ("tcase-drop-scrutinee", "40e86313285587d9"),
        ("trefread-drop-delta-prime", "5c6845b6eceb9eb8"),
        ("ghost-variable", "418ec8c682e2b98a"),
        ("location-at-3", "2382013984cb9cf9"),
        ("ghost-atoms", "e67d894fd29669e4"),
        ("location-content", "653a57391123511f"),
        ("first-cell-target", "dd598adf7c541636"),
        ("location-bound", "3bb36952fa62a6ee"),
    ],
)
def test_reports_pinned(variant, digest):
    """[DERIVED] The oracle's reports (a rejection recorded as its
    message) over the 1000 corpus programs, cases(4/8/20) and the untyped
    recursive programs, unmutated, under each mutation and under each
    tamper, hash to the digests recorded before the judge checked the
    store and the environment per binding and read its blocks off the
    merges.  The three tampers that forge a location were re-recorded
    when the covering test began refusing a location with no binding
    point: their outcomes stayed, their alias witnesses did not."""
    rows = []
    for program in _pinned_programs():
        options: dict = {}
        if variant in MUTATIONS:
            options["mutation"] = variant
        elif variant != "none":
            options["tamper"] = _tampers(program)[variant]
        try:
            rows.append(check_soundness(program, **options).to_dict())
        except TypeCheckError as err:
            rows.append(str(err))
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16] == digest


def test_any_value_tampered_into_a_location_ends_in_a_report():
    """[DERIVED] A location no ``ref`` allocated, in place of whatever point
    3 evaluates to (an abstraction a ``let rec`` ties, a cell that is read,
    a natural), ends every corpus run in a report, never in a Python
    error."""

    def tamper(occ, value, pair):
        return (Location(99), pair) if occ.point == 3 else None

    outcomes = {check_soundness(program, tamper=tamper).outcome for program in _pinned_programs()[:1000]}
    assert "fail" in outcomes


def test_a_location_no_ref_allocated_never_passes():
    """[DERIVED] A location no ``ref`` allocated, in place of whatever point
    3 evaluates to, fails every corpus run that evaluates point 3: it has
    no binding point, so no internal variable covers it, and it inhabits
    no type once the run says where each location was allocated.  Before
    both refused it, 126 of these 844 runs passed, among them
    gen_program(3, 4), whose point 3 is the ``ref`` a function returns."""
    outcomes: dict = {}
    for program in _pinned_programs()[:1000]:
        met = []

        def tamper(occ, value, pair):
            if occ.point == 3:
                met.append(occ)
                return Location(99), pair
            return None

        key = (check_soundness(program, tamper=tamper).outcome, bool(met))
        outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == {("fail", True): 844, ("pass", False): 156}


def _interpretation(subject, dep):
    try:
        return ip_sem(subject, dep)
    except AmbiguousPredecessor as err:
        return str(err)


def test_numbering_by_pi_index_realizes_the_same_order():
    """[DERIVED] Over the 1000 corpus programs, cases(4/8/20) and the
    untyped recursive programs, a run numbered by Pi's index and a run
    numbering points as it meets them give the same edges, w and ip_sem
    for every subject; a program that does not typecheck has no index and
    runs once; the order clause refuses a run numbered otherwise."""
    from refflow import agreement

    indexed = 0
    for program in _pinned_programs():
        plain = evaluate(program).dep
        try:
            index = typecheck(program).pi.reach[0]
        except TypeCheckError:
            continue
        dep = evaluate(program, index=index).dep
        assert dep.numbered_by is index and dep.edges == plain.edges and dep.w == plain.w
        for subject in plain.subjects():
            assert _interpretation(subject, dep) == _interpretation(subject, plain)
        indexed += 1
    assert indexed == 1003
    program = parse(cases_source(8))
    judge = agreement._Judge(typecheck(program), AgreementReport())
    with pytest.raises(ValueError, match="not numbered by Pi's index"):
        judge.check_order(evaluate(program).dep)


def test_covering_mask_matches_point_set_inclusion(monkeypatch):
    """[DERIVED] For every location and candidate the judge tests, over
    the pinned programs unmutated and under each mutation, the mask test
    agrees with dep.bound_points(location) <= gamma.bound_points(ivar)."""
    from refflow import agreement

    covering, tested = agreement._Judge.covering, []

    def checked(judge, dep, location, candidates):
        found = covering(judge, dep, location, candidates)
        points = dep.bound_points(location)
        assert found == tuple(c for c in candidates if points <= judge.gamma.bound_points(c))
        tested.append(len(candidates) - len(found))
        return found

    monkeypatch.setattr(agreement._Judge, "covering", checked)
    for mutation in (None, *MUTATIONS):
        for program in _pinned_programs():
            try:
                check_soundness(program, mutation=mutation)
            except TypeCheckError:
                pass
    assert len(tested) > 20_000 and sum(tested) > 10_000  # calls, candidates not covering


def test_ip_clause_needs_a_covering_variable(alias_chain):
    """[DERIVED] The ip clause holds on the reference program and on
    cases(8), one check per location; a cell bound at a point its internal
    variable was never typed at (10, where the cell's typing covers only 2
    and 8) has no covering variable and fails the clause."""
    from refflow import agreement

    for program in (alias_chain, parse(cases_source(8))):
        outcome = evaluate(program)
        judge = agreement._Judge(typecheck(program), AgreementReport())
        judge.check_ip(outcome.dep)
        locations = [s for s in outcome.dep.subjects() if isinstance(s, Location)]
        assert judge.clauses["ip"].holds
        assert judge.clauses["ip"].activity == len(locations) > 0

    dep = DepState()
    for point in (2, 8, 10):
        dep.bind(Location(0), point, DepPair(), None)
    judge = agreement._Judge(typecheck(alias_chain), AgreementReport())
    judge.check_ip(dep)
    assert judge.clauses["ip"].activity == 1
    assert judge.clauses["ip"].witnesses == (
        "loc0 interpreted at 10, not among chain-wise interpretations",
    )


# ---------------------------------------------------------------------------
# Witnesses: at most five, in a fixed order
# ---------------------------------------------------------------------------


def test_witnesses_capped_in_event_order():
    """[DERIVED] Dropping the variable atom makes each of the seven uses
    of x a dependency failure; the first five events' witnesses are
    kept, in evaluation order, and every check still counts."""
    prog = parse("(let x 1 (+ x (+ x (+ x (+ x (+ x (+ x x)))))))")
    clause = check_soundness(prog, mutation="tvar-drop-atom").clauses["dependency"]
    assert clause.activity == 41
    assert clause.witnesses == tuple(
        f"point {p}: variable occurrence x@{p} not in delta" for p in (4, 6, 8, 10, 12)
    )


def test_witnesses_capped_in_atom_order(alias_chain):
    """[DERIVED] One event with seven failing atoms: variable atoms
    first, sorted, then location atoms by (index, point); the fifth
    failure is the last one kept.  The injected dependency points also
    add realized edges Pi lacks, shown in sorted order."""

    def tamper(occ, value, pair):
        if occ.point == 4:
            ghosts = DepPair(
                frozenset({(Location(3), 5), (Location(1), 8), (Location(0), 7), (Location(1), 2)}),
                frozenset({("g", 9), ("a", 7)}),
            )
            return value, pair.union(ghosts)
        return None

    report = check_soundness(alias_chain, tamper=tamper)
    dependency = report.clauses["dependency"]
    assert dependency.activity == 51
    assert dependency.witnesses == (
        "point 4: variable occurrence a@7 not in delta",
        "point 4: variable occurrence g@9 not in delta",
        "point 4: holders ['x'] of loc0@7 not in a delta-represented block",
        "point 4: no internal-variable occurrence in delta covers unreachable loc1@2",
        "point 4: no internal-variable occurrence in delta covers unreachable loc1@8",
    )
    order = report.clauses["order"]
    assert order.activity == 11
    assert order.witnesses == tuple(
        f"realized edge {edge} missing from the approximated order"
        for edge in ((5, 4), (7, 4), (8, 4), (9, 4), (9, 8))
    )
    assert report.failed_clauses() == ("dependency", "order")


def test_fail_appends_without_counting():
    """[TRIVIAL] fail records a witness up to the cap of five and leaves
    activity to the caller; check counts and records."""
    report = AgreementReport()
    clause = report.clauses["type"]
    for i in range(7):
        clause.fail(f"w{i}")
    assert clause.activity == 0 and clause.witnesses == tuple(f"w{i}" for i in range(5))
    clause.check(True, "unused")
    assert clause.activity == 1 and len(clause.witnesses) == 5


# ---------------------------------------------------------------------------
# The store, the environment and the holders, checked per binding
# ---------------------------------------------------------------------------


def test_tampered_content_fails_the_store_check(alias_chain):
    """[DERIVED] The write at 8 stores what z@7 evaluated to; made a
    location, the content fails its typing entry v2@8 at the write's own
    end event, and the stray location has no covering variable wherever
    it is a value."""
    report = check_soundness(
        alias_chain, tamper=lambda occ, v, p: (Location(5), p) if occ.point == 7 else None
    )
    assert report.clauses["type"].witnesses == (
        "point 8: content of loc0 does not inhabit v2@8",
        "result value does not inhabit the result type",
    )
    assert report.clauses["alias"].witnesses == tuple(
        f"point {p}: no internal variable in kappa covers all binding points of loc5"
        for p in (7, "8: loc0@8", 10, 11, 12)
    )


def test_redirected_write_fails_the_store_alias_check():
    """[DERIVED] The write at 7 meant for b's cell lands in a's (loc0),
    whose internal variable v2 is typed only at 2: the store check at the
    write's end event finds no covering variable, and neither does ip."""
    program = parse(
        "(let a (ref 1@1)@2 (let b (ref 2@3)@4 (let u ((b@5) := (3@6))@7 (!(a@8))@9)@10)@11)@12"
    )
    report = check_soundness(
        program, tamper=lambda occ, v, p: (Location(0), p) if occ.point == 5 else None
    )
    assert report.clauses["alias"].witnesses == (
        "point 5: no internal variable in kappa covers all binding points of loc0",
        "point 7: no internal variable covers the binding points of loc0",
        "point 8: no internal variable in kappa covers all binding points of loc0",
    )
    assert report.clauses["ip"].witnesses == (
        "loc0 interpreted at 7, not among chain-wise interpretations",
    )


def test_bound_location_fails_the_environment_types():
    """[DERIVED] x bound to a location at 1: the first end events whose
    environments hold x, and then y, check each binding once, against the
    types Γ records for it."""
    program = parse("(let x 1@1 (let y (x@2)@3 (y@4)@5)@6)@7")
    report = check_soundness(
        program, tamper=lambda occ, v, p: (Location(0), p) if occ.point == 1 else None
    )
    assert report.clauses["type"].witnesses == (
        "point 2: value of x inhabits none of its recorded types",
        "point 4: value of y inhabits none of its recorded types",
        "result value does not inhabit the result type",
    )
    assert report.clauses["environment"].activity == 2


def test_holders_read_off_the_bindings():
    """[DERIVED] c is bound at 8 to a's cell (loc0) in place of b's: at
    the read of c (9) a and c both hold loc0, from two blocks; at the ends
    of the lets around it (7, 4), where c is out of scope, a alone does."""

    def tamper(occ, value, pair):
        if isinstance(occ.expr, Variable) and occ.expr.name == "b":
            return Location(0), pair
        return None

    report = check_soundness(parse("(let a (ref 1) (let b (ref 2) (let c b (! c))))"), tamper=tamper)
    assert report.clauses["dependency"].witnesses == (
        "point 9: holders ['a', 'c'] of loc0@2 not in a delta-represented block",
        "point 7: holders ['a'] of loc0@2 not in a delta-represented block",
        "point 4: holders ['a'] of loc0@2 not in a delta-represented block",
    )


def test_environment_clause_checks_each_announced_binding_once():
    """[DERIVED] Fed events by hand: a binding of a name Γ never types
    fails the environment clause at the first end event whose environment
    holds it; the same environment at a later end event checks nothing."""
    from refflow import agreement

    program = parse("(let x 1@1 x@2)@3")
    judge = agreement._Judge(typecheck(program), AgreementReport())
    dep, body = DepState(), program.expr.body
    env = {"x": (1, 1), "ghost": (5, 1)}
    judge.on_step("begin", body, env, None, None, dep)
    judge.on_step("bind", "x", 1, 1, DepPair(), dep)
    judge.on_step("bind", "ghost", 1, 5, DepPair(), dep)
    for _ in range(2):
        judge.on_step("end", body, env, 1, DepPair(frozenset(), frozenset({("x", 2)})), dep)
    environment = judge.clauses["environment"]
    assert environment.activity == 2
    assert environment.witnesses == ("point 2: no typing entry mentions ghost",)


# ---------------------------------------------------------------------------
# The binding lemma
# ---------------------------------------------------------------------------


def _tree(node):
    """An occurrence tree from nested tuples (expression class, point,
    fields...), a name or a constant standing for itself."""
    if not isinstance(node, tuple):
        return node
    cls, point, *fields = node
    return Occurrence(cls(*map(_tree, fields)), point)


def _lemma_case(name: str):
    """(program, a fresh tamper or None) for each way the lemma can fail.

    * ``shadow``: (let x 1 (+ x (let x 2 x))), built without parse: the
      inner let binds x while the sum, where x is free, runs;
    * ``letrec``: (let x 0 (+ x (let rec x (let x 1 x) x))), a let rec
      whose bound, no abstraction, rebinds its own name inside;
    * ``reenter``: the first read of k in f's body returns a closure of
      f's body, so y is bound again while that body runs;
    * ``unentered``: the read of m returns a closure of h's body, which
      h's abstraction never made, and the read of k inside it returns a
      closure binding z, free in that running body.
    """
    if name == "shadow":
        inner = (Let, 5, "x", (Constant, 6, 2), (Variable, 7, "x"))
        return _tree((Let, 1, "x", (Constant, 2, 1), (FunctionalApplication, 3, "+", (Variable, 4, "x"), inner))), None
    if name == "letrec":
        inner = (Let, 6, "x", (Constant, 7, 1), (Variable, 8, "x"))
        return _tree((Let, 1, "x", (Constant, 2, 0), (FunctionalApplication, 3, "+", (Variable, 4, "x"),
                      (LetRec, 5, "x", inner, (Variable, 9, "x"))))), None
    if name == "reenter":
        program = parse(r"(let k (\b. b) (let f (\y. (+ (k 1) y)) (f 2)))")
        forged = {8: lambda value: Closure("y", subterm_at(program, 6), {"k": (value, 2)}, lam_point=5)}
    else:
        program = parse(r"(let k (\b. b) (let m (\c. c) (let h (\z. (+ (k 3) z)) (m 1))))")
        forged = {
            15: lambda value: Closure("c", subterm_at(program, 9), dict(value.env), lam_point=8),
            11: lambda value: Closure("z", subterm_at(program, 13), {}, lam_point=8),
        }

    def tamper(occ, value, pair):
        forge = forged.pop(occ.point, None)  # each forgery once
        return None if forge is None else (forge(value), pair)

    return program, tamper


def _lemma_report(name: str) -> dict:
    program, tamper = _lemma_case(name)
    return check_soundness(program, tamper=tamper).to_dict()


# Recorded before the judge tested frames only where the lemma can fail.
LEMMA_CASES = {
    "shadow": ("fail", 4, ["x bound during evaluation of point 3 where it is free"]),
    "letrec": ("fail", 8, ["x bound during evaluation of point 3 where it is free"] * 2),
    "reenter": ("fail", 18, ["y bound during evaluation of point 6 where it is free"]),
    "unentered": ("fail", 16, ["z bound during evaluation of point 9 where it is free"]),
}


@pytest.mark.parametrize("name", sorted(LEMMA_CASES))
def test_binding_lemma_able_to_fail(name):
    """[DERIVED] A repeated binder, a let rec rebinding its own name in its
    bound, a closure re-entering a running body and a closure entering a
    body its abstraction never made each fail the lemma, with the
    activity and witnesses recorded before, and what the reference's scan
    of every frame at every bind reports."""
    outcome, activity, witnesses = LEMMA_CASES[name]
    report = _lemma_report(name)
    assert report["outcome"] == outcome
    assert report["binding_lemma"] == {"holds": False, "activity": activity, "witnesses": witnesses}
    program, tamper = _lemma_case(name)
    assert report["binding_lemma"] == reference.binding_lemma(program, tamper=tamper)


def test_lemma_reports_pinned():
    """[DERIVED] The four lemma cases' whole reports hash to the digest
    recorded before the judge tested frames only where the lemma can
    fail."""
    rows = [_lemma_report(name) for name in LEMMA_CASES]
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16] == "0081fdd73760d3b8"


def _closure_swap():
    """A tamper that answers each closure-valued occurrence after the first
    with the closure met just before it, so bodies run where their own
    application never sent them."""
    met = []

    def tamper(occ, value, pair):
        if isinstance(value, Closure):
            met.append(value)
            if len(met) > 1:
                return met[-2], pair
        return None

    return tamper


def test_binding_lemma_matches_the_reference_scan():
    """[DERIVED] Over the first 200 corpus programs, cases(4/8) and the
    lemma cases, untampered and with every closure swapped for the one
    met before it, the judge's lemma verdict is the reference scan's;
    the swaps fail it on some programs, so the comparison is not vacuous."""
    programs = [gen_program(seed, 1 + seed % 30) for seed in range(200)]
    programs += [parse(cases_source(n)) for n in (4, 8)]
    programs += [_lemma_case(name)[0] for name in sorted(LEMMA_CASES)]
    failed = 0
    for program in programs:
        for tamper in (None, _closure_swap):
            options = {} if tamper is None else {"tamper": tamper()}
            lemma = check_soundness(program, **options).to_dict()["binding_lemma"]
            if tamper is not None:
                options["tamper"] = tamper()
            assert lemma == reference.binding_lemma(program, **options), pretty(program)
            failed += not lemma["holds"]
    assert failed >= 15
