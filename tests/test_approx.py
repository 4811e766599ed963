"""Static order and alias-base tests.

Tags: [DERIVED] hand-computed oracle, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from refflow.approx import approximate_pi, binding_sites, build_alias_base
from refflow.semantics import evaluate
from refflow.syntax import parse
from refflow.typesys import IVar

from conftest import ALIAS_CHAIN_SRC


# ---------------------------------------------------------------------------
# The approximated order
# ---------------------------------------------------------------------------


def test_reference_program_visit_order(alias_chain):
    """[DERIVED] The walk reaches every point once, bound expressions
    before bodies, the write's source before the write."""
    pi = approximate_pi(alias_chain)
    assert pi.visit == (1, 2, 3, 4, 5, 7, 8, 9, 6, 10, 11, 12)
    assert pi.final == 12


def test_reference_program_cover_edges(alias_chain):
    """[DERIVED] Exactly the eleven cover edges of the walk."""
    pi = approximate_pi(alias_chain)
    assert pi.edges == frozenset(
        {(1, 2), (2, 3), (3, 4), (4, 5), (5, 7), (7, 8), (8, 9), (9, 6), (6, 10), (10, 11), (11, 12)}
    )


def test_closure_contains_realized_order(alias_chain):
    """[DERIVED] The static order's closure contains every realized
    pair of the reference run."""
    closure = approximate_pi(alias_chain).closure()
    realized = evaluate(alias_chain).dep.edges
    assert realized <= closure


def test_branches_fork_and_join():
    """[DERIVED] Case branches are ordered after the scrutinee and
    before the case point, never between each other."""
    pi = approximate_pi(parse("(case (1@1)@2 [0 -> (7@3)@4, _ -> (8@5)@6])@9"))
    closure = pi.closure()
    assert (2, 4) in closure and (2, 6) in closure
    assert (4, 9) in closure and (6, 9) in closure
    assert (4, 5) not in closure and (6, 3) not in closure


def test_acyclic_on_reference_program(alias_chain):
    """[TRIVIAL] The closure never relates a point to itself or both
    ways."""
    closure = approximate_pi(alias_chain).closure()
    assert all(a != b for a, b in closure)
    assert all((b, a) not in closure for a, b in closure)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=20))
def test_generated_orders_contain_their_runs(seed, size):
    """[DERIVED] On generated programs the closure stays acyclic and
    contains the realized order."""
    from refflow.agreement import gen_program

    prog = gen_program(seed, size)
    pi = approximate_pi(prog)
    closure = pi.closure()
    assert all(a != b for a, b in closure)
    assert all((b, a) not in closure for a, b in closure)
    assert evaluate(prog).dep.edges <= closure


# ---------------------------------------------------------------------------
# Binding sites
# ---------------------------------------------------------------------------


def test_binding_sites_all_forms():
    """[DERIVED] Sites are reported at the semantic binding points: the
    bound expression, the argument, the scrutinee."""
    assert binding_sites(parse(ALIAS_CHAIN_SRC)) == (("x", 2), ("z", 4), ("y", 9))
    assert binding_sites(parse(r"(let f (\v. (v@1))@3 ((f@4) (7@5))@7)@8")) == (
        ("f", 3),
        ("v", 5),
    )
    assert binding_sites(parse("(case (1@1)@2 [0 -> 2, n -> (n@5)])@7")) == (("n", 2),)


# ---------------------------------------------------------------------------
# Alias base
# ---------------------------------------------------------------------------


def test_reference_program_alias_blocks(alias_chain):
    """[DERIVED] x shares a block with the cell it names; y and z stay
    singletons."""
    assert build_alias_base(alias_chain) == (
        frozenset({"x", IVar(2)}),
        frozenset({"y"}),
        frozenset({"z"}),
    )


def test_two_names_for_one_cell_share_a_block():
    """[DERIVED] A copied reference joins its source's block."""
    prog = parse("(let a (ref 1@1)@2 (let b (a@3)@4 (!(b@5))@6)@7)@8")
    blocks = build_alias_base(prog)
    assert frozenset({"a", "b", IVar(2)}) in blocks


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=20))
def test_shared_blocks_name_a_reference(seed, size):
    """[TRIVIAL] Any block with several members contains an internal
    variable: names only alias through a cell."""
    from refflow.agreement import gen_program

    blocks = build_alias_base(gen_program(seed, size))
    for block in blocks:
        if len(block) > 1:
            assert any(isinstance(member, IVar) for member in block)


# ---------------------------------------------------------------------------
# One flow walk per program
# ---------------------------------------------------------------------------


def test_analysis_artifacts_equal_the_standalone_walks():
    """[DERIVED] Pi, the alias base and the binding sites an analysis
    derives from its one walk equal what the standalone entry points
    compute, on 200 generated programs."""
    from refflow.agreement import gen_program
    from refflow.typesys import typecheck

    for seed in range(200):
        prog = gen_program(seed, 1 + seed % 30)
        analysis = typecheck(prog)
        pi = approximate_pi(prog)
        assert (analysis.pi.visit, analysis.pi.edges) == (pi.visit, pi.edges)
        assert analysis.alias_base == build_alias_base(prog)
        assert analysis.binding_sites == binding_sites(prog)


def _count_walks(monkeypatch) -> list:
    """Patch the flow walker to count its root calls; returns the counter."""
    from refflow.approx import _FlowWalker

    original = _FlowWalker.walk
    depth = [0]
    roots = [0]

    def walk(self, *args):
        roots[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_FlowWalker, "walk", walk)
    return roots


def test_each_pipeline_walks_once(monkeypatch):
    """[DERIVED] The oracle, the noninterference check and typecheck's
    Pi plus alias base each walk the program once."""
    from refflow.agreement import check_soundness
    from refflow.security import check_noninterference
    from refflow.typesys import typecheck

    prog = parse(ALIAS_CHAIN_SRC)
    roots = _count_walks(monkeypatch)
    assert check_soundness(prog).verdict
    assert roots == [1]
    assert not check_noninterference(prog, {"x": "high"}).ok
    assert roots == [2]
    analysis = typecheck(prog)
    analysis.pi, analysis.alias_base, analysis.binding_sites
    assert roots == [3]
    approximate_pi(prog), build_alias_base(prog), binding_sites(prog)
    assert roots == [6]
