"""Static order and alias-base tests.

Tags: [DERIVED] hand-computed oracle, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import hashlib
import json
import subprocess

from hypothesis import given, settings
from hypothesis import strategies as st

from refflow.approx import approximate_pi, binding_sites, build_alias_base
from refflow.semantics import evaluate
from refflow.syntax import parse
from refflow.typesys import Base, IVar, atom_key, subject_key, typecheck

from conftest import ALIAS_CHAIN_SRC, fresh_python


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
# One walk per program
# ---------------------------------------------------------------------------


# Hand programs for the pinned digest, one per walk shape the corpus lacks.
HAND_PROGRAMS = (
    # a forked application: f may be either abstraction
    r"(let f (case true [true -> (\a. (ref a)), false -> (\b. (ref (+ b 1)))]) (let r (f 3) (! r)))",
    r"(let rec f (\x. (+ x 1)) (f 2))",
    "(let a (+ h 1) (let b (ref a) (let c b (! c))))",  # h is free
    r"(let f (\x. (ref x)) 1)",  # the abstraction is never applied
    "(let r (ref 1) (case r [s -> (s := (! r))]))",  # the pattern binds a reference
)


def _type_row(ty, table) -> list:
    if isinstance(ty, Base):
        return ["base", sorted(atom_key(a) for a in table.points_of(ty.delta)), sorted(subject_key(s) for s in ty.kappa)]
    return ["arrow", sorted(ty.origins), sorted(atom_key(a) for a in table.points_of(ty.pending))]


def _static_row(prog) -> list:
    analysis = typecheck(prog, allow_free=True)
    table = analysis.atoms
    return [
        list(analysis.pi.visit),
        sorted(analysis.pi.edges),
        list(analysis.binding_sites),
        [sorted(subject_key(s) for s in block) for block in analysis.alias_base],
        sorted([atom_key(atom), _type_row(ty, table)] for atom, ty in analysis.gamma.entries.items()),
        sorted([point, _type_row(ty, table)] for point, ty in analysis.type_of.items()),
    ]


def test_static_artifacts_pinned():
    """[DERIVED] Pi's visit order and edges, the binding sites, the alias
    base, Γ and the per-point types of the 1000 corpus programs and the
    hand programs hash to a pinned digest: any change to the walk's
    order, edges, sites, merges or types moves it."""
    from refflow.agreement import gen_program

    programs = [gen_program(seed, 1 + seed % 30) for seed in range(1000)]
    programs += [parse(source) for source in HAND_PROGRAMS]
    rows = [_static_row(prog) for prog in programs]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == "39a7f1014afc6280"


def test_hand_program_artifacts():
    """[DERIVED] Both bodies behind the forked application start from the
    argument (15) and join at the application (13), unordered between
    each other, and both parameters bind at the argument; the body of the
    unapplied abstraction is neither visited nor bound; the pattern
    binder joins the block of the cell it names."""
    forked = typecheck(parse(HAND_PROGRAMS[0]))
    assert {(15, 6), (15, 10), (5, 13), (8, 13)} <= forked.pi.edges
    assert not forked.pi.precedes(6, 10) and not forked.pi.precedes(10, 6)
    assert forked.binding_sites == (("f", 2), ("a", 15), ("b", 15), ("r", 13))
    assert frozenset({"r", IVar(5), IVar(8)}) in forked.alias_base
    unapplied = typecheck(parse(HAND_PROGRAMS[3]))
    assert unapplied.pi.visit == (2, 5, 1)
    assert unapplied.binding_sites == (("f", 2),)
    assert frozenset({"x"}) in unapplied.alias_base
    by_pattern = typecheck(parse(HAND_PROGRAMS[4]))
    assert by_pattern.alias_base == (frozenset({"r", "s", IVar(2)}),)


def _count_walks(monkeypatch) -> list:
    """Patch the checking walk to count its root calls; returns the counter."""
    from refflow.typesys import _Checker

    original = _Checker.check
    depth = [0]
    roots = [0]

    def check(self, *args):
        roots[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_Checker, "check", check)
    return roots


def test_each_pipeline_walks_once(monkeypatch):
    """[DERIVED] The oracle, the noninterference check, and typecheck
    with Pi, the alias base and the binding sites each walk the program
    once; each standalone entry point walks it once."""
    from refflow.agreement import check_soundness
    from refflow.security import check_noninterference

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


def test_static_half_does_not_import_approx():
    """[TRIVIAL] The alias base and the default labeling come from
    typesys alone: a fresh process that asks for both never imports
    refflow.approx."""
    code = (
        "import sys\n"
        "from refflow.security import default_labeling\n"
        "from refflow.syntax import parse\n"
        "from refflow.typesys import typecheck\n"
        f"program = parse({ALIAS_CHAIN_SRC!r})\n"
        "typecheck(program).alias_base, default_labeling(program)\n"
        "sys.exit('refflow.approx' in sys.modules)\n"
    )
    proc = fresh_python("-c", code, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
