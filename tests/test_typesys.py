"""Static analysis tests: types, environment, chains, linearity.

Tags: [DERIVED] hand-computed oracle, [PAPER] value quoted from the
source material's worked examples, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refflow.agreement import gen_program
from refflow.security import check_noninterference
from refflow.semantics import Location
from refflow.syntax import (
    Abstraction,
    Application,
    Case,
    Constant,
    Deref,
    Group,
    Let,
    LetRec,
    Occurrence,
    PNat,
    PVar,
    PWildcard,
    Ref,
    Variable,
    parse,
)
from refflow.typesys import (
    MUTATIONS,
    AbstractionInRef,
    Arrow,
    Atoms,
    Base,
    IVar,
    LinearityViolation,
    NonReferenceDeref,
    Pi,
    TypeCheckError,
    TypeEnv,
    UndefinedUnion,
    ip_type,
    linear_use_check,
    subject_key,
    type_dict,
    type_union,
    type_value,
    typecheck,
)

from conftest import (
    ALIAS_CHAIN_SRC,
    DIRECT_FLOW_SRC,
    INDIRECT_FLOW_SRC,
    NO_FLOW_SRC,
    RECURSIVE_SRCS,
    corpus,
)
from families import cases_source
from reference import Pi as ReferencePi
from reference import UnknownPoint, _reduced_predecessors, p_chains, predecessors
from reference import ip_type as reference_ip_type
from reference import linear_use_check as reference_linear_use_check

V2 = IVar(2)


def atoms(*pairs):
    return frozenset(pairs)


def bits(table, *pairs) -> int:
    """The bitset of the atoms in ``table``, interning any it lacks."""
    return sum({table.bit(pair) for pair in pairs})


def decoded(analysis, ty):
    """``ty`` with its atom bitset decoded through the analysis's table
    into the frozenset of atoms it stands for."""
    if isinstance(ty, Base):
        return Base(frozenset(analysis.atoms.points_of(ty.delta)), ty.kappa)
    return Arrow(ty.origins, frozenset(analysis.atoms.points_of(ty.pending)))


def test_internal_variables_are_one_per_point():
    """[TRIVIAL] IVar(p) is one object per point that equals only itself,
    hashes with tuple's own hash (as the (point,) dataclass did), and keeps
    its point, its text and its repr through copies and pickles."""
    v5 = IVar(5)
    assert v5 == IVar(5) and v5 is IVar(5) and {v5: 1}[IVar(5)] == 1
    assert v5 != IVar(6) and v5 != (5,) and (5,) != v5 and v5 != 5 and v5 != "v5"
    assert not v5 != IVar(5)
    assert type(v5).__hash__ is tuple.__hash__ and hash(v5) == hash((5,))
    assert v5.point == 5 and str(v5) == "v5" and repr(v5) == "IVar(point=5)"
    assert copy.deepcopy(v5) is v5 and pickle.loads(pickle.dumps(v5)) is v5


# ---------------------------------------------------------------------------
# The reference program's static facts
# ---------------------------------------------------------------------------


def test_reference_program_result_type(alias_chain):
    """[DERIVED] The read's type collects the alias-chain uses, the
    write's source, and the deref-site internal occurrence; the result
    is a number, so kappa is empty."""
    analysis = typecheck(alias_chain)
    assert decoded(analysis, analysis.result_type) == Base(
        atoms(("x", 5), ("x", 6), ("z", 7), (V2, 10)), frozenset()
    )


def test_reference_program_gamma(alias_chain):
    """[DERIVED] The environment holds exactly five entries: the cell at
    its birth and at its rewrite, and the three let binders."""
    analysis = typecheck(alias_chain)
    assert {key: decoded(analysis, ty) for key, ty in analysis.gamma.entries.items()} == {
        (V2, 2): Base(frozenset(), frozenset({V2})),
        ("x", 12): Base(frozenset(), frozenset({V2, "x"})),
        ("z", 9): Base(frozenset(), frozenset()),
        (V2, 8): Base(atoms(("x", 5), ("z", 7)), frozenset({"x", V2})),
        ("y", 11): Base(atoms(("x", 5)), frozenset()),
    }


def test_reference_program_per_point_types(alias_chain):
    """[DERIVED] Spot-checks of the per-point table: the uses of x carry
    the alias pair, the write carries its target's footprint."""
    analysis = typecheck(alias_chain)
    assert decoded(analysis, analysis.type_of[5]) == Base(atoms(("x", 5)), frozenset({"x", V2}))
    assert decoded(analysis, analysis.type_of[7]) == Base(atoms(("z", 7)), frozenset())
    assert decoded(analysis, analysis.type_of[8]) == Base(atoms(("x", 5)), frozenset())
    assert analysis.type_of[10] == analysis.result_type


def test_var_use_joins_entry_and_occurrence():
    """[PAPER] A variable use is its entry's type joined with its own
    occurrence."""
    analysis = typecheck(parse("(let x (y@1)@2 (x@3)@4)@5"), allow_free=True)
    assert decoded(analysis, analysis.type_of[3]) == Base(atoms(("y", 1), ("x", 3)), frozenset())


def test_case_over_approximates_clauses():
    """[DERIVED] The case type contains each clause's type and the
    scrutinee's footprint."""
    src = "(let s (4@1)@2 (case (s@3)@4 [0 -> (7@5)@6, n -> (n@7)@8])@9)@10"
    analysis = typecheck(parse(src))
    case_ty = decoded(analysis, analysis.type_of[9])
    for clause_point in (6, 8):
        clause_ty = decoded(analysis, analysis.type_of[clause_point])
        assert clause_ty.delta <= case_ty.delta
        assert clause_ty.kappa <= case_ty.kappa
    assert decoded(analysis, analysis.type_of[3]).delta <= case_ty.delta


# ---------------------------------------------------------------------------
# Unions
# ---------------------------------------------------------------------------


def test_union_is_componentwise_on_base():
    """[DERIVED] Base unions join both components."""
    table = Atoms()
    a = Base(bits(table, ("x", 1)), frozenset({"x"}))
    b = Base(bits(table, ("y", 2)), frozenset({V2}))
    assert type_union(a, b, 0) == Base(bits(table, ("x", 1), ("y", 2)), frozenset({"x", V2}))


def test_union_of_arrows_joins_origins_and_pending():
    """[DERIVED] Arrow unions keep every origin and every pending atom."""
    table = Atoms()
    a = Arrow(frozenset({2}), bits(table, ("x", 1)))
    b = Arrow(frozenset({5}), bits(table, ("y", 3)))
    assert type_union(a, b, 0) == Arrow(frozenset({2, 5}), bits(table, ("x", 1), ("y", 3)))


def test_union_of_mixed_shapes_is_undefined():
    """[TRIVIAL] Base with Arrow has no union."""
    with pytest.raises(UndefinedUnion):
        type_union(Base(), Arrow(frozenset({1})), 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("xyz"), st.integers(1, 9)), max_size=4),
    st.lists(st.tuples(st.sampled_from("xyz"), st.integers(1, 9)), max_size=4),
    st.lists(st.tuples(st.sampled_from("xyz"), st.integers(1, 9)), max_size=4),
)
def test_union_laws(d1, d2, d3):
    """[DERIVED] Union is commutative, associative, idempotent on
    same-shape types."""
    table = Atoms()
    a, b, c = (Base(bits(table, *d)) for d in (d1, d2, d3))
    assert type_union(a, b, 0) == type_union(b, a, 0)
    assert type_union(type_union(a, b, 0), c, 0) == type_union(a, type_union(b, c, 0), 0)
    assert type_union(a, a, 0) == a


# ---------------------------------------------------------------------------
# Chains and the type-level IP
# ---------------------------------------------------------------------------


def test_p_chains_documented_cases():
    """[DERIVED] Maximal chains ending at the query point, over the
    closure of the cover edges."""
    pi = Pi((1, 2, 3, 4), frozenset({(1, 2), (2, 4), (3, 4)}))
    assert p_chains(pi, 4) == frozenset({(1, 2, 4), (3, 4)})
    assert p_chains(Pi((1,), frozenset()), 1) == frozenset({(1,)})
    linear = Pi((1, 2, 3), frozenset({(1, 2), (2, 3)}))
    assert p_chains(linear, 3) == frozenset({(1, 2, 3)})


def test_p_chains_unknown_point():
    """[TRIVIAL] Querying a point outside the order raises."""
    with pytest.raises(UnknownPoint):
        p_chains(Pi((1,), frozenset()), 99)


def test_ip_type_single_chain():
    """[DERIVED] On one chain the IP is the latest entry at or before
    the query point."""
    gamma = TypeEnv()
    gamma.bind(V2, 2, Base())
    gamma.bind(V2, 8, Base(bits(Atoms(), ("z", 7))))
    pi = Pi((2, 8, 10), frozenset({(2, 8), (8, 10)}))
    assert ip_type(V2, gamma, pi, at=10) == frozenset({(V2, 8)})


def test_ip_type_joining_branches():
    """[DERIVED] Two branches joining contribute one supremum each."""
    v9 = IVar(9)
    gamma = TypeEnv()
    gamma.bind(v9, 3, Base())
    gamma.bind(v9, 4, Base())
    pi = Pi((1, 3, 4, 5), frozenset({(1, 3), (1, 4), (3, 5), (4, 5)}))
    assert ip_type(v9, gamma, pi, at=5) == frozenset({(v9, 3), (v9, 4)})


def test_ip_type_unbound_subject():
    """[TRIVIAL] A subject with no entries has no predecessors."""
    pi = Pi((1,), frozenset())
    assert ip_type("ghost", TypeEnv(), pi, at=1) == frozenset()


def test_ip_type_on_reference_program(alias_chain):
    """[DERIVED] At the end of the reference program the cell's IP is
    its rewrite entry."""
    analysis = typecheck(alias_chain)
    assert ip_type(V2, analysis.gamma, analysis.pi, at=12) == frozenset({(V2, 8)})


def test_ip_type_matches_per_chain_definition():
    """[DERIVED] On generated programs, for every internal variable and
    query point, the backward search equals the per-chain definition:
    the greatest binding on each maximal chain ending at the query.
    Programs whose chains exceed p_chains' cap are skipped and counted."""
    programs = 200
    skipped = 0
    for program in corpus()[:programs]:
        analysis = typecheck(program)
        gamma, pi = analysis.gamma, analysis.pi
        try:
            chains = {at: p_chains(pi, at) for at in sorted(pi.points)}
        except RuntimeError:
            skipped += 1
            continue
        for internal in (s for s in gamma.subjects() if isinstance(s, IVar)):
            bound = gamma.bound_points(internal)
            for at, at_chains in chains.items():
                tops = (next((p for p in reversed(c) if p in bound), None) for c in at_chains)
                expected = frozenset((internal, p) for p in tops if p is not None)
                assert ip_type(internal, gamma, pi, at=at) == expected, (seed, internal, at)
    assert skipped <= programs // 10


# ---------------------------------------------------------------------------
# The order's bitsets against depth-first search
# ---------------------------------------------------------------------------


def dfs_closure(edges) -> frozenset:
    """Reference: every pair joined by a path of edges, by depth-first search."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    pairs = set()
    for start in succ:
        stack, seen = list(succ[start]), set()
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                pairs.add((start, node))
                stack.extend(succ.get(node, ()))
    return frozenset(pairs)


def reference_reduced_predecessors(pi: Pi, closure: frozenset) -> dict:
    """Reference: keep an edge unless some third point lies between its ends."""
    pred: dict = {}
    for a, b in sorted(pi.edges):
        mids = (c for c in pi.points if c != a and c != b)
        if not any((a, c) in closure and (c, b) in closure for c in mids):
            pred.setdefault(b, []).append(a)
    return pred


def assert_order_matches_dfs(pi: Pi):
    closure = dfs_closure(pi.edges)
    assert pi.closure() == closure
    for a in pi.points:
        for b in pi.points:
            assert pi.precedes(a, b) == ((a, b) in closure), (a, b)
    assert _reduced_predecessors(pi) == reference_reduced_predecessors(pi, closure)


BRANCHING_PIS = (
    # a diamond with a redundant shortcut, then a tail
    Pi((1, 2, 3, 4, 5), frozenset({(1, 2), (1, 3), (2, 4), (3, 4), (1, 4), (4, 5)})),
    # two sequential forks and joins, plus a point no edge touches
    Pi((1, 2, 3, 4, 5, 6, 7, 8),
       frozenset({(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7)})),
    # visit order differs from numeric order
    Pi((9, 2, 7, 1), frozenset({(9, 7), (2, 7), (7, 1), (9, 1)})),
)


@pytest.mark.parametrize("pi", BRANCHING_PIS)
def test_order_matches_dfs_on_branching_orders(pi):
    """[DERIVED] precedes, closure and the reduction agree with DFS."""
    assert_order_matches_dfs(pi)


@settings(max_examples=60, deadline=None)
@given(
    st.permutations(range(12)),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
)
def test_order_matches_dfs_on_random_forward_edges(visit, positions):
    """[DERIVED] Any edge set that runs forward along the visit order
    yields the same order as DFS."""
    edges = frozenset((visit[i], visit[j]) for i, j in positions if i < j)
    assert_order_matches_dfs(Pi(tuple(visit), edges))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=30))
def test_order_matches_dfs_on_generated_programs(seed, size):
    """[DERIVED] The checking walk's orders agree with DFS too."""
    assert_order_matches_dfs(typecheck(gen_program(seed, size)).pi)


def test_pi_from_the_walk_equals_pi_from_its_edges():
    """[DERIVED] On the 1000 corpus programs and cases(4/8/20), the Pi
    the walk builds from its predecessor sets and the Pi rebuilt from
    its visit and edges agree in reach, final point, points and every
    point's predecessors."""
    programs = list(corpus())
    programs += [parse(cases_source(n)) for n in (4, 8, 20)]
    for program in programs:
        pi = typecheck(program).pi
        rebuilt = Pi(pi.visit, pi.edges)
        assert rebuilt.reach == pi.reach
        assert (rebuilt.final, rebuilt.points) == (pi.final, pi.points)
        assert all(predecessors(rebuilt, p) == predecessors(pi, p) for p in pi.visit)


def _order_rows(pi, gamma: TypeEnv, ip, preds) -> list:
    """What the order answers, as JSON: visit, final point, points,
    edges, closure, and at every visited point its predecessors as
    ``preds(pi, point)`` reads them, its
    ancestors decoded from ``reach`` and, for every Γ subject, ``ip``'s
    atoms there and at the default query point."""
    index, anc = pi.reach
    return [
        list(pi.visit), pi.final, sorted(pi.points), sorted(pi.edges), sorted(pi.closure()),
        [preds(pi, p) for p in pi.visit],
        [[a for a in pi.visit if anc[p] >> index[a] & 1] for p in pi.visit],
        [
            [str(s), [sorted(pt for _, pt in ip(s, gamma, pi, at=at)) for at in (*pi.visit, None)]]
            for s in sorted(gamma.subjects(), key=subject_key)
        ],
    ]


def test_pi_and_ip_type_match_the_set_based_reference():
    """[DERIVED] Over the 1000 corpus programs, cases(4/8/20), the untyped
    recursive programs (which the checker rejects) and fork.rf (an
    application of a function with two origins), Pi and ip_type
    answer as the earlier set-based Pi and ip_type do on the walk's visit
    and edges, and the answers hash to the digest recorded with the
    set-based walk, which pins the walk's visit and edges too."""
    programs = list(corpus())
    programs += [parse(cases_source(n)) for n in (4, 8, 20)]
    programs += [parse(src) for src in RECURSIVE_SRCS]
    programs.append(parse((Path(__file__).parent / "data" / "fork.rf").read_text(encoding="utf-8")))
    rows = []
    for program in programs:
        try:
            analysis = typecheck(program)
        except TypeCheckError:
            continue
        pi, gamma = analysis.pi, analysis.gamma
        rows.append(_order_rows(pi, gamma, ip_type, predecessors))
        reference = ReferencePi(pi.visit, pi.edges)
        assert rows[-1] == _order_rows(reference, gamma, reference_ip_type, ReferencePi.predecessors)
    assert len(rows) == 1004
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == "aedda5c40a5ff217"


def test_pi_from_random_edges_matches_the_set_based_reference():
    """[DERIVED] On 3000 seeded random visits and edge sets, with edges
    that run backwards, start or end outside the visit, or loop, Pi
    refuses with ValueError exactly the 839 inputs whose reach the
    reference refuses, and answers as the reference on the rest, under a
    Γ that also binds points outside the visit."""
    rng = random.Random(15)
    refused = 0
    for _ in range(3000):
        visit = tuple(rng.sample(range(12), rng.randint(0, 9)))
        edges = set()
        for _ in range(rng.randint(0, 12) if len(visit) > 1 else 0):
            a, b = sorted(rng.sample(range(len(visit)), 2))
            edges.add((visit[a], visit[b]))
        if rng.random() < 0.3:  # it may run backwards, leave the visit or loop
            edges.add((rng.randrange(12), rng.randrange(12)))
        reference = ReferencePi(visit, frozenset(edges))
        try:
            pi = Pi(visit, frozenset(edges))
        except ValueError:
            refused += 1
            with pytest.raises(ValueError):
                reference.reach
            continue
        gamma = TypeEnv()
        for _ in range(rng.randint(0, 6)):
            gamma.bind(rng.choice(("a", "b", V2)), rng.randrange(12), Base())
        assert _order_rows(pi, gamma, ip_type, predecessors) == _order_rows(
            reference, gamma, reference_ip_type, ReferencePi.predecessors
        )
    assert refused == 839


def test_bound_points_is_a_snapshot():
    """[TRIVIAL] The frozenset bound_points returns keeps its points when
    Γ later binds the same subject at a new point."""
    gamma = TypeEnv()
    gamma.bind(V2, 2, Base())
    before = gamma.bound_points(V2)
    gamma.bind(V2, 8, Base())
    gamma.bind(V2, 2, Base(bits(Atoms(), ("z", 7))))
    assert isinstance(before, frozenset) and before == frozenset({2})
    assert gamma.bound_points(V2) == frozenset({2, 8})


def test_backward_edge_raises():
    """[TRIVIAL] An edge against the visit order, or ending outside it,
    is refused at first use; points outside the visit stay unordered."""
    with pytest.raises(ValueError):
        Pi((1, 2), frozenset({(2, 1)})).precedes(1, 2)
    with pytest.raises(ValueError):
        Pi((1, 2), frozenset({(1, 3)})).closure()
    pi = Pi((1, 2), frozenset({(1, 2)}))
    assert not pi.precedes(1, 99) and not pi.precedes(99, 2)


# ---------------------------------------------------------------------------
# Value admission
# ---------------------------------------------------------------------------


def test_type_value_constants_and_locations():
    """[PAPER] Constants admit any Base with empty kappa; locations
    require kappa nonempty."""
    assert type_value(5, Base(bits(Atoms(), ("x", 1)), frozenset()))
    assert not type_value(5, Base(0, frozenset({V2})))
    assert not type_value(Location(0), Base(0, frozenset()))
    assert type_value(Location(0), Base(0, frozenset({V2})))


def test_type_value_refuses_a_location_no_ref_allocated():
    """[DERIVED] Given where each location was allocated, a location
    needs its own allocation point's internal variable in kappa, and one
    that no ref allocated inhabits no type, whatever kappa names."""
    ty = Base(0, frozenset({V2}))
    assert type_value(Location(0), ty, {Location(0): 2})
    assert not type_value(Location(0), ty, {Location(0): 5})
    assert not type_value(Location(99), ty, {Location(0): 2})
    assert not type_value(Location(99), ty, {})


# ---------------------------------------------------------------------------
# Linearity
# ---------------------------------------------------------------------------


def test_single_use_abstraction_accepted():
    """[TRIVIAL] One use of a function-valued binder is fine."""
    assert linear_use_check(parse(r"(let f (\y. (y@1))@2 ((f@3) (1@4))@5)@6")) == ()


def test_double_use_rejected_with_points(double_use):
    """[PAPER] Applying a bound abstraction twice is a violation naming
    both use points."""
    violations = linear_use_check(double_use)
    assert violations and isinstance(violations[0], LinearityViolation)
    assert violations[0].points == (3, 4)
    with pytest.raises(LinearityViolation):
        typecheck(double_use)


def test_abstraction_in_ref_rejected():
    """[PAPER] A reference cannot hold an abstraction, directly or
    through a function-valued name, also a let rec's name in its own
    bound.  A plain let's name is free in its own bound: no function
    name there, and unbound when the program runs."""
    direct = linear_use_check(parse(r"(ref (\y. (y@1))@2)@3"))
    assert direct and isinstance(direct[0], AbstractionInRef)
    named = linear_use_check(parse(r"(let f (\y. (y@1))@2 (ref (f@3))@4)@5"))
    assert named and isinstance(named[0], AbstractionInRef)
    own = linear_use_check(parse(r"(let rec f (\y. (ref f)) 1)"))
    assert own and isinstance(own[0], AbstractionInRef)
    assert linear_use_check(parse(r"(let f (\y. (ref f)) 1)")) == ()
    assert check_noninterference(parse(r"(let f (\x. (ref f)) (f 1))"), {}).ok


# Hand programs for the linearity digest, one per shape it must cover.
LINEAR_HAND_PROGRAMS = (
    r"(let f (\x. x) (+ (f 1) (f 2)))",  # a let-bound abstraction used twice
    r"(let rec f (\x. (f x)) (f 1))",  # a let rec's uses in its bound count
    r"(let f ((\x. x)@90)@91 (ref (f@92)@93))",  # through groups, ref through a name
    r"(ref ((\x. x)@94)@95)",  # ref of a grouped abstraction
    r"(+ f (let f (\x. x) (f (f 1))))",  # a free name equal to a binder's name
)


def _untyped_source(rng, depth: int, label: list, group_ok: bool = True) -> str:
    """A random program over the names f, g, x and y, typed or not, rich
    in abstractions under let, let rec, ref and groups.  ``label`` holds
    the last explicit point handed to a group."""

    def sub():
        return _untyped_source(rng, depth - 1, label)

    if depth == 0 or rng.random() < 0.2:
        return rng.choice(("0", "f", "g", "x"))
    kind = rng.choice(
        ("abs", "abs", "let", "let", "rec", "ref", "ref", "group", "app", "app", "prim", "case", "deref")
    )
    if kind == "group" and group_ok:
        label[0] += 2
        point = label[0]
        return f"({_untyped_source(rng, depth - 1, label, False)}@{point})@{point + 1}"
    if kind == "abs":
        return rf"(\{rng.choice('xy')}. {sub()})"
    if kind in ("let", "rec"):
        keyword = "let rec" if kind == "rec" else "let"
        bound = rf"(\{rng.choice('xy')}. {sub()})" if rng.random() < 0.5 else sub()
        return f"({keyword} {rng.choice('fg')} {bound} {sub()})"
    if kind == "ref":
        return f"(ref {sub()})"
    if kind == "prim":
        return f"(+ {sub()} {sub()})"
    if kind == "case":
        return f"(case {sub()} [0 -> {sub()}, {rng.choice('xy')} -> {sub()}])"
    if kind == "deref":
        return f"(! {sub()})"
    return f"({sub()} {sub()})"


def test_linear_use_check_pinned():
    """[DERIVED] The class, message and points of every violation, in
    order, over the 1000 corpus programs, the hand programs and 2000
    seeded untyped programs hash to a pinned digest; 363 of the untyped
    programs have violations, 71 of them several."""
    rng = random.Random(7)
    programs = list(corpus())
    programs += [parse(source) for source in LINEAR_HAND_PROGRAMS]
    programs += [parse(_untyped_source(rng, 5, [1000])) for _ in range(2000)]
    rows = [
        [[type(v).__name__, str(v), list(getattr(v, "points", (v.point,)))] for v in linear_use_check(p)]
        for p in programs
    ]
    untyped = rows[1000 + len(LINEAR_HAND_PROGRAMS):]
    assert sum(bool(row) for row in untyped) == 363
    assert sum(len(row) > 1 for row in untyped) == 71
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == "a1aeb77910816bf4"


def _shadowing_tree(rng: random.Random, depth: int) -> Occurrence:
    """A hand-built tree over the names f, g and x, which parse would
    have renamed apart: binders of every form shadow each other, let and
    let rec bind the same names to abstractions (some behind a group)
    and to other values, and ref wraps names and abstractions."""
    points = itertools.count(1)

    def node(expr) -> Occurrence:
        return Occurrence(expr, next(points))

    def lam(d: int) -> Occurrence:
        inner = node(Abstraction(rng.choice("fgx"), tree(d - 1)))
        return node(Group(inner)) if rng.random() < 0.2 else inner

    def tree(d: int) -> Occurrence:
        name = rng.choice("fgx")
        if d <= 0 or rng.random() < 0.15:
            return node(Variable(name) if rng.random() < 0.8 else Constant(1))
        kind = rng.choice(("let", "let", "rec", "abs", "app", "ref", "ref", "case", "deref"))
        if kind in ("let", "rec"):
            bound = lam(d) if rng.random() < 0.6 else tree(d - 1)
            return node((Let if kind == "let" else LetRec)(name, bound, tree(d - 1)))
        if kind == "abs":
            return node(Abstraction(name, tree(d - 1)))
        if kind == "app":
            return node(Application(tree(d - 1), tree(d - 1)))
        if kind == "ref":
            init = rng.choice(("name", "grouped", "lam", "tree"))
            if init in ("name", "grouped"):
                init_occ = node(Variable(name))
                return node(Ref(node(Group(init_occ)) if init == "grouped" else init_occ))
            return node(Ref(lam(d) if init == "lam" else tree(d - 1)))
        if kind == "case":
            return node(Case(tree(d - 1), (PNat(0), PVar(name)), (tree(d - 1), tree(d - 1))))
        return node(Deref(tree(d - 1)))

    return tree(depth)


def _shadowing_hand_trees() -> list:
    """A plain let that shadows a function name, whose uses still count
    for the function; a let rec whose own bound uses its name; and a ref
    of a name that a plain let rebound inside a let of an abstraction."""
    points = itertools.count(1)

    def n(expr) -> Occurrence:
        return Occurrence(expr, next(points))

    def ident() -> Occurrence:
        return n(Abstraction("x", n(Variable("x"))))

    def use(fn: str, arg: Occurrence) -> Occurrence:
        return n(Application(n(Variable(fn)), arg))

    return [
        n(Let("f", ident(), n(Let("f", n(Constant(1)), use("f", n(Variable("f"))))))),
        n(LetRec("f", n(Abstraction("x", use("f", n(Variable("x"))))), use("f", n(Constant(1))))),
        n(Let("f", ident(), n(Let("f", n(Constant(1)), n(Ref(n(Variable("f")))))))),
    ]


def test_linear_use_check_matches_reference_on_shadowing_trees():
    """[DERIVED] On 3000 seeded hand-built trees whose binders shadow
    each other, and on three hand-built trees, the one-loop check reports
    the same violations, in order, as the per-path reference in
    tests/reference.py."""

    def rows(violations):
        return [(type(v).__name__, str(v), getattr(v, "points", (v.point,))) for v in violations]

    rng = random.Random(12)
    trees = [_shadowing_tree(rng, rng.randint(2, 7)) for _ in range(3000)]
    trees += _shadowing_hand_trees()
    flagged = several = 0
    for tree in trees:
        expected = rows(reference_linear_use_check(tree))
        assert rows(linear_use_check(tree)) == expected, tree
        flagged += bool(expected)
        several += len(expected) > 1
    assert [[type(v) for v in linear_use_check(tree)] for tree in trees[-3:]] == [
        [LinearityViolation], [LinearityViolation], [AbstractionInRef]
    ]
    assert flagged > 500 and several > 100, (flagged, several)


def test_gamma_binds_no_point_the_run_never_binds():
    """[DERIVED] A hand-built tree that rebinds x inside one case arm,
    which parse would have renamed apart: (let x 1@2 (let u (case 0@4
    [0 -> (let x 2@6 x@7)@5, _ -> 3@8])@3 x@9)@10)@1.  The run binds x at
    1 and 5 only, and so does Γ: names are lexically scoped, so the case
    merges no entry for x at its point 3.  What a fork does merge, a
    cell's entry at the fork's point, is pinned by the recordings
    cases8.typecheck.json, fork.typecheck.json and twocell.typecheck.json
    in tests/data."""
    arm = Occurrence(Let("x", Occurrence(Constant(2), 6), Occurrence(Variable("x"), 7)), 5)
    case = Occurrence(Case(Occurrence(Constant(0), 4), (PNat(0), PWildcard()), (arm, Occurrence(Constant(3), 8))), 3)
    body = Occurrence(Let("u", case, Occurrence(Variable("x"), 9)), 10)
    tree = Occurrence(Let("x", Occurrence(Constant(1), 2), body), 1)
    assert typecheck(tree).gamma.bound_points("x") == {1, 5}


# ---------------------------------------------------------------------------
# Rejections and free variables
# ---------------------------------------------------------------------------


def test_deref_of_non_reference_rejected():
    """[TRIVIAL] Reading a number is a shape error."""
    with pytest.raises(NonReferenceDeref):
        typecheck(parse("(let n (1@1)@2 (!(n@3))@4)@5"))


def test_free_variables_need_allow_free():
    """[TRIVIAL] Free names are rejected by default and admitted as
    opaque inputs with allow_free."""
    from refflow.typesys import UnboundName

    prog = parse("(+ (h@1) (1@2))@3")
    with pytest.raises(UnboundName):
        typecheck(prog)
    analysis = typecheck(prog, allow_free=True)
    assert decoded(analysis, analysis.type_of[1]) == Base(atoms(("h", 1)), frozenset())


def test_wrapping_in_unused_let_preserves_result_type(alias_chain):
    """[DERIVED] Weakening: binding an unused name around a program does
    not change the program's result type."""
    wrapped = parse("(let u (9@91)@92 " + ALIAS_CHAIN_SRC + ")@93")
    assert typecheck(wrapped).result_type == typecheck(alias_chain).result_type


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------


def test_mutations_change_the_analysis(alias_chain):
    """[DERIVED] Each documented mutation visibly alters the analysis
    output on the reference program."""
    from refflow.typesys import NonReferenceAssign

    baseline = typecheck(alias_chain)
    tvar = typecheck(alias_chain, "tvar-drop-atom")
    assert ("x", 5) not in decoded(tvar, tvar.type_of[5]).delta
    # Dropping kappa at the let makes the later write through x look
    # like a write through a number, so the program is now rejected.
    with pytest.raises(NonReferenceAssign):
        typecheck(alias_chain, "tlet1-drop-kappa")
    plain_ref = parse("(let x (ref 1@1)@2 (x@3)@4)@5")
    tlet = typecheck(plain_ref, "tlet1-drop-kappa")
    assert typecheck(plain_ref).gamma.entries[("x", 5)].kappa
    assert tlet.gamma.entries[("x", 5)].kappa == frozenset()
    tref = typecheck(alias_chain, "trefread-drop-delta-prime")
    assert decoded(tref, tref.type_of[10]).delta < decoded(baseline, baseline.type_of[10]).delta


def test_tcase_mutation_drops_scrutinee():
    """[DERIVED] The case mutation stops joining the scrutinee's type
    into the result."""
    src = "(let s (4@1)@2 (case (s@3)@4 [0 -> (7@5)@6, n -> (1@7)@8])@9)@10"
    prog = parse(src)
    baseline = typecheck(prog)
    mutated = typecheck(prog, "tcase-drop-scrutinee")
    assert ("s", 3) in decoded(baseline, baseline.type_of[9]).delta
    assert ("s", 3) not in decoded(mutated, mutated.type_of[9]).delta


# ---------------------------------------------------------------------------
# Every type, pinned
# ---------------------------------------------------------------------------


def _typed_programs() -> list:
    """The corpus, cases(4/8/20), the recursive programs, the five programs
    under tests/data the digests below were recorded on, named so that a
    new fixture there changes no digest, and programs that read a free h:
    the flow examples and cases(20) with h left unbound."""
    sources = list(corpus())
    sources += [parse(cases_source(n)) for n in (4, 8, 20)]
    sources += [parse(src) for src in (DIRECT_FLOW_SRC, NO_FLOW_SRC, INDIRECT_FLOW_SRC)]
    sources.append(parse(cases_source(20)[cases_source(20).index("(let r"):-1]))
    sources += [parse(src) for src in RECURSIVE_SRCS]
    data = Path(__file__).parent / "data"
    sources += [parse((data / f"{name}.rf").read_text(encoding="utf-8"))
                for name in ("cases8", "countdown", "fork", "rebind", "twocell")]
    return sources


def _type_rows(analysis) -> dict:
    """Every type of the analysis, rendered as ``typecheck --json``
    renders it."""

    def show(ty):
        return type_dict(ty, analysis.atoms)

    gamma = sorted(analysis.gamma.entries.items(), key=lambda item: (subject_key(item[0][0]), item[0][1]))
    return {
        "result": show(analysis.result_type),
        "types": {str(point): show(ty) for point, ty in sorted(analysis.type_of.items())},
        "gamma": [{"subject": str(subject), "point": point, "type": show(ty)} for (subject, point), ty in gamma],
    }


@pytest.mark.parametrize(
    "variant, digest",
    [
        ("none", "6fb7ac4e6de20700"),
        ("tvar-drop-atom", "a0815dc669ecedb0"),
        ("tlet1-drop-kappa", "16348110bbe0d1ba"),
        ("tcase-drop-scrutinee", "e9194dec27512c6d"),
        ("trefread-drop-delta-prime", "153b53c423942822"),
        ("allow-free", "52e603b25ea04c2b"),
    ],
)
def test_types_pinned(variant, digest):
    """[DERIVED] Every type of every point, every Γ entry and the result
    type, each from a fresh typecheck, over the corpus, cases(4/8/20), the
    recursive programs and tests/data, unmutated, under each mutation and
    with free names allowed (a rejection recorded as its message), hash
    to the digests recorded while the dependency sets were frozensets of
    atoms."""
    options = {"allow_free": True} if variant == "allow-free" else {}
    mutation = variant if variant in MUTATIONS else None
    rows = []
    for program in _typed_programs():
        try:
            rows.append(_type_rows(typecheck(program, mutation, **options)))
        except TypeCheckError as err:
            rows.append(str(err))
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16] == digest
