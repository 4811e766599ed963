"""Acceptance gate: the ten shipping criteria, one line each.

Every test prints exactly one ``PASS criterion N`` / ``FAIL criterion
N`` line (visible with ``pytest -s`` and in captured output) and
asserts the same condition, so ``pytest -v`` shows the per-criterion
verdicts too.

Tags: [DERIVED] hand-computed oracle, [PAPER] value quoted from the
source material's worked examples.
"""

from __future__ import annotations

import contextlib
import io
import time

import pytest

from refflow.agreement import CLAUSES, check_soundness, gen_program
from refflow.approx import approximate_pi
from refflow.cli import main as cli_main
from refflow.security import check_noninterference, default_labeling
from refflow.semantics import DepPair, EMPTY_PAIR, Location, evaluate, ip_sem
from refflow.syntax import parse
from refflow.typesys import LinearityViolation, TypeCheckError, typecheck

from conftest import (
    ALIAS_CHAIN_SRC,
    DIRECT_FLOW_SRC,
    DOUBLE_USE_SRC,
    INDIRECT_FLOW_SRC,
    NO_FLOW_SRC,
    corpus,
)

LOC0 = Location(0)


def _verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{state} criterion {number}: {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


@pytest.fixture(scope="module")
def corpus_reports():
    """One differential run per corpus seed, shared by criteria 6-7.
    Returns the reports plus the wall time the runs took."""
    started = time.perf_counter()
    reports = []
    for program in corpus():
        reports.append(check_soundness(program))
    return reports, time.perf_counter() - started


def test_criterion_01_reference_bindings():
    """[PAPER] The reference program computes 5 with exactly the five
    derived bindings, in under a second."""
    started = time.perf_counter()
    outcome = evaluate(parse(ALIAS_CHAIN_SRC))
    elapsed = time.perf_counter() - started
    expected = {
        ("x", 2): EMPTY_PAIR,
        ("z", 4): EMPTY_PAIR,
        ("y", 9): DepPair(frozenset(), frozenset({("x", 5)})),
        (LOC0, 2): EMPTY_PAIR,
        (LOC0, 8): DepPair(frozenset(), frozenset({("z", 7)})),
    }
    ok = outcome.value == 5 and outcome.dep.w == expected and elapsed < 1.0
    _verdict(1, "reference bindings and value", ok, f"{elapsed:.3f}s")


def test_criterion_02_realized_order():
    """[PAPER] The realized order is exactly the five derived pairs, in
    under a second."""
    started = time.perf_counter()
    outcome = evaluate(parse(ALIAS_CHAIN_SRC))
    elapsed = time.perf_counter() - started
    ok = outcome.dep.edges == {(2, 4), (2, 9), (5, 9), (2, 8), (7, 8)} and elapsed < 1.0
    _verdict(2, "realized order", ok, f"{elapsed:.3f}s")


def test_criterion_03_semantic_ip():
    """[PAPER] The cell's immediate predecessor is its write at 8, the
    supremum of its two bindings."""
    outcome = evaluate(parse(ALIAS_CHAIN_SRC))
    ok = ip_sem(LOC0, outcome.dep) == (LOC0, 8)
    _verdict(3, "semantic immediate predecessor", ok)


def test_criterion_04_containment():
    """[DERIVED] The static order's closure contains every realized
    pair."""
    program = parse(ALIAS_CHAIN_SRC)
    closure = approximate_pi(program).closure()
    realized = {(2, 4), (2, 9), (5, 9), (2, 8), (7, 8)}
    ok = realized <= closure
    _verdict(4, "static order contains the run", ok)


def test_criterion_05_linearity():
    """[PAPER] The double-use program is rejected, naming points 3 and
    4."""
    try:
        typecheck(parse(DOUBLE_USE_SRC))
        ok, detail = False, "accepted"
    except LinearityViolation as err:
        ok, detail = err.points == (3, 4), f"points {err.points}"
    _verdict(5, "linearity enforcement", ok, detail)


def test_criterion_06_fuzz_soundness(corpus_reports):
    """[DERIVED] 1000 generated programs: no failures, under 1%
    inconclusive, every clause exercised on at least 100 programs,
    within five minutes."""
    reports, elapsed = corpus_reports
    failures = sum(1 for r in reports if r.outcome == "fail")
    inconclusive = sum(1 for r in reports if r.outcome == "inconclusive")
    exercised = {
        name: sum(1 for r in reports if r.clauses[name].activity > 0)
        for name in CLAUSES
    }
    ok = (
        failures == 0
        and inconclusive < 10
        and all(count >= 100 for count in exercised.values())
        and elapsed < 300.0
    )
    detail = (
        f"fail {failures}, inconclusive {inconclusive},"
        f" min clause coverage {min(exercised.values())}, {elapsed:.1f}s"
    )
    _verdict(6, "fuzz soundness", ok, detail)


def test_criterion_07_binding_lemma(corpus_reports):
    """[DERIVED] Across the corpus, no binding ever rebinds a name that
    is still free in an enclosing evaluation."""
    reports, _ = corpus_reports
    violations = sum(0 if r.binding_lemma.holds else 1 for r in reports)
    active = sum(1 for r in reports if r.binding_lemma.activity > 0)
    ok = violations == 0 and active >= 100
    _verdict(7, "binding lemma", ok, f"violations {violations}, active on {active}")


def test_criterion_08_mutations_are_caught():
    """[DERIVED] Each rule mutation makes some corpus program fail, and
    the failing clause is the expected one."""
    expected = {
        "tvar-drop-atom": "dependency",
        "tlet1-drop-kappa": "alias",
        "tcase-drop-scrutinee": "dependency",
        "trefread-drop-delta-prime": "dependency",
    }
    caught = {}
    for mutation, clause in expected.items():
        caught[mutation] = False
        for program in corpus():
            try:
                report = check_soundness(program, mutation=mutation)
            except TypeCheckError:
                continue
            if report.outcome == "fail" and clause in report.failed_clauses():
                caught[mutation] = True
                break
    ok = all(caught.values())
    detail = ", ".join(f"{m}: {'caught' if hit else 'missed'}" for m, hit in caught.items())
    _verdict(8, "mutations are caught", ok, detail)


def test_criterion_09_noninterference():
    """[DERIVED] The three documented programs verdict as specified and
    the two formulations agree on a 200-program labeled corpus, within
    a minute."""
    started = time.perf_counter()
    high = {"h": "high"}
    direct = check_noninterference(parse(DIRECT_FLOW_SRC), high)
    clean = check_noninterference(parse(NO_FLOW_SRC), high)
    indirect = check_noninterference(parse(INDIRECT_FLOW_SRC), high)
    examples_ok = (not direct.ok) and clean.ok and (not indirect.ok)
    agreement_ok = True
    for seed in range(200):
        program = gen_program(seed, 1 + seed % 25)
        verdict = check_noninterference(program, default_labeling(program))
        if not verdict.formulations_agree:
            agreement_ok = False
            break
    elapsed = time.perf_counter() - started
    ok = examples_ok and agreement_ok and elapsed < 60.0
    _verdict(9, "noninterference", ok, f"{elapsed:.2f}s")


def test_criterion_10_determinism(tmp_path):
    """[DERIVED] eval, typecheck, check, and seeded fuzz emit identical
    machine output across three consecutive runs."""
    labels = tmp_path / "labels.txt"
    labels.write_text("h = high\n")
    commands = [
        ["eval", "--json", "--trace", "--expr", ALIAS_CHAIN_SRC],
        ["typecheck", "--json", "--expr", ALIAS_CHAIN_SRC],
        ["check", "--json", "--expr", ALIAS_CHAIN_SRC],
        ["fuzz", "--json", "--seed", "17", "--count", "10", "--size", "12"],
    ]
    ok = True
    for argv in commands:
        outputs = set()
        for _ in range(3):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                cli_main(argv)
            outputs.add(buffer.getvalue())
        if len(outputs) != 1:
            ok = False
            break
    _verdict(10, "deterministic machine output", ok)
