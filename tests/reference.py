"""Reference implementations that the tests hold the library against.

Each function here is an earlier, simpler form of a library function,
kept verbatim so that a differential test can compare the two on inputs
the library's own pinned tests never build.

``linear_use_check`` carries the names bound to an abstraction and the
names whose uses count down each path as fresh sets and maps, one pair
per node; the library keeps one set and one map and restores them with
markers on its stack.

``DepState``, ``_search`` and ``ip_sem`` keep the realized order as
successor sets of points and search them; the library keeps one bitset
of sources per point, numbered by an index of points, and walks those.
They read only a pair's atoms, never its ``pts``.

``Pi`` and ``ip_type`` keep the approximated order as predecessor sets
of points and search them; the library builds Pi as an index of points
with one bitset of sources per point, as the realized order is kept,
and walks those.

``p_chains`` enumerates Pi's maximal chains over the transitive
reduction ``_reduced_predecessors`` gives; the chain-wise tests of
``ip_type`` compare against it.  Both read the library's Pi, its
``into`` keys being the points some edge enters.

``free_name_table`` builds the free names of every subterm, by point,
in one recursive walk, and ``binding_lemma`` tests every frame on the
stack against it at every bind; the library's judge tests a frame, with
``occurs_free``, only where the lemma can fail.

``expanded_origins`` closes an origin set through the Γ entries of the
internal variables it names, bound at or before the binding; the
library's origin sets need no closing on any program the checker typed,
so it returns the origin set itself.

``check_noninterference`` builds one sort key per flow, sink by sink,
and sorts them all, returning the flows' atoms and sites and the
positions the chain reading missed; the library goes per binding point
in ascending order and keeps each point's sinks and sources, factored.
It reads ``security.typecheck`` when called, so a test that patches
the library's walk patches this one too.
"""

from __future__ import annotations

from functools import cached_property

from refflow import security
from refflow.agreement import ClauseVerdict
from refflow.semantics import AmbiguousPredecessor, DepPair, EvalError, Location, evaluate
from refflow.syntax import (
    Abstraction,
    Application,
    Assign,
    Case,
    Deref,
    FunctionalApplication,
    Group,
    Let,
    LetRec,
    Occurrence,
    PVar,
    Ref,
    Variable,
    _children,
)
from refflow.typesys import AbstractionInRef, Analysis, Base, IVar, LinearityViolation, Type, TypeEnv, _ungrouped


def linear_use_check(program: Occurrence) -> tuple:
    """Violations of the linear-abstraction discipline, without raising.

    Flags names bound to a syntactic abstraction and used twice, and
    abstractions placed under ref, directly or through such a name; uses
    of abstractions that flow through parameters are caught during the
    checking walk instead.  Returns the violations in program order.

    One pre-order walk carries the names bound to an abstraction and the
    names whose uses count, each with the use list of its binding; a let
    rec's own bound counts its uses, a let's does not.  Binders are
    globally unique after parsing, so no binding shadows another.
    """

    found: list = []  # violations in pre-order; a use list stands for its binding's
    stack = [(program, frozenset(), {})]
    while stack:
        occ, fun_names, counted = stack.pop()
        expr = occ.expr
        if isinstance(expr, Variable):
            uses = counted.get(expr.name)
            if uses is not None:
                uses.append(occ.point)
            continue
        if isinstance(expr, (Let, LetRec)) and isinstance(_ungrouped(expr.bound).expr, Abstraction):
            uses = []
            found.append(uses)
            fun_names = fun_names | {expr.name}
            in_scope = {**counted, expr.name: uses}
            stack.append((expr.body, fun_names, in_scope))
            stack.append((expr.bound, fun_names, in_scope if isinstance(expr, LetRec) else counted))
            continue
        if isinstance(expr, Ref):
            init = _ungrouped(expr.init).expr
            if isinstance(init, Abstraction) or isinstance(init, Variable) and init.name in fun_names:
                found.append(AbstractionInRef(occ.point))
        stack.extend((child, fun_names, counted) for child in reversed(_children(expr)))
    return tuple(
        LinearityViolation(item) if isinstance(item, list) else item
        for item in found
        if not isinstance(item, list) or len(item) > 1
    )


def _search(adjacency: dict, starts) -> set:
    """Every node reachable from some node of ``starts`` in one or more
    steps."""

    seen: set = set()
    stack = list(starts)
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class DepState:
    """The function w plus the realized order on program points.

    The order is kept once, as successor sets; ``edges`` builds the edge
    set on demand.  ``_points`` keeps every point each subject was bound
    at, so ``bound_points`` need not scan ``w``.

    Every edge a binding adds ends at the binding point, so adding one
    cannot open a path out of that point: ``bind`` searches at most once.
    A point with no successors yet, which is every point a typed program
    binds, takes all its sources without a search.  A point that already
    has successors, which only untyped recursion revisiting it can give,
    takes one forward search from it, and the sources that search reaches
    get no edge, since each would close a cycle.
    """

    def __init__(self):
        self.w: dict = {}
        self.latest: dict = {}
        self._succ: dict = {}
        self._points: dict = {}

    # -- order ---------------------------------------------------------------

    def successors(self):
        """(before, the set of points right after it) for every point
        with successors."""

        return self._succ.items()

    @property
    def edges(self) -> set:
        return {(before, after) for before, afters in self._succ.items() for after in afters}

    # -- bindings --------------------------------------------------------------

    def bind(self, subject, point: int, pair: DepPair, incoming, threading: bool = True):
        # the sources: the pair's points, the threading and chaining points
        sources = {pt for _, pt in pair.locs}
        sources.update(pt for _, pt in pair.vars)
        if threading and incoming is not None:
            sources.add(incoming)
        previous = self.latest.get(subject)
        if previous is not None:
            sources.add(previous)
        sources.discard(point)
        succ = self._succ
        if sources and succ.get(point):
            sources -= _search(succ, (point,))  # each would close a cycle
        for before in sources:
            afters = succ.get(before)
            if afters is None:
                succ[before] = {point}
            else:
                afters.add(point)
        key = (subject, point)
        if key in self.w:
            self.w[key] = self.w[key].union(pair)
        else:
            self.w[key] = pair
            self._points.setdefault(subject, set()).add(point)
        self.latest[subject] = point

    def bound_points(self, subject) -> frozenset:
        return frozenset(self._points.get(subject, ()))

    def ip(self, subject):
        """The subject's latest binding point, or None when it was never
        bound.  Chaining edges make it the order-greatest binding point
        unless a revisit dropped its chaining edge; ``ip_sem`` finds the
        greatest one in every case.
        """

        return self.latest.get(subject)

    def subjects(self) -> frozenset:
        return frozenset(self.latest)


def ip_sem(subject, dep: DepState):
    """The interpretation of a subject: its order-greatest binding atom.

    Returns (subject, point) for the unique greatest binding point of the
    subject in dom(w), or None when the subject was never bound.  The
    order is acyclic (``bind`` drops every edge that would close a cycle),
    so a binding point is below another exactly when one backward search
    from all binding points, over a predecessor map that lives only for
    this call, reaches it.  The points it does not reach are the tops; no
    unique top means the order is ambiguous for the subject.
    """

    candidates = dep.bound_points(subject)
    if not candidates:
        return None
    if len(candidates) == 1:
        return (subject, next(iter(candidates)))
    pred: dict = {}
    for before, afters in dep.successors():
        for after in afters:
            pred.setdefault(after, []).append(before)
    tops = candidates - _search(pred, candidates)
    if len(tops) != 1:
        raise AmbiguousPredecessor(subject, candidates)
    return (subject, next(iter(tops)))


class Pi:
    """Happens-before approximation: cover edges over visited points.

    ``visit`` lists the points in the order the checking walk reached them,
    and every edge runs forward along it, so ``visit`` is a topological
    order.  Pi holds the predecessor sets the walk filled (``pred``:
    point to the points with an edge into it), or builds them from
    ``edges``; ``edges`` and ``points`` are views built on first use.
    On first use one pass over ``visit`` builds ``reach``: ``index``
    (point to position in ``visit``) and ``anc`` (point to the Python-int
    bitset of its strict ancestors, bit ``index[a]`` set when ``a``
    precedes it); an edge running against the visit order raises
    ValueError.  Points outside ``visit`` are unordered.
    """

    def __init__(self, visit: tuple, edges=(), pred: dict | None = None):
        self.visit = visit
        self.final = visit[-1] if visit else None
        if pred is None:
            pred = {}
            for a, b in edges:
                pred.setdefault(b, set()).add(a)
        self._pred = pred

    @cached_property
    def edges(self) -> frozenset:
        return frozenset((a, b) for b, preds in self._pred.items() for a in preds)

    @cached_property
    def points(self) -> frozenset:
        return frozenset(self.visit)

    @cached_property
    def reach(self) -> tuple:
        """(index, anc), built in one pass over the visit order: a bit
        test on them answers whether one point precedes another."""

        index: dict = {}
        anc: dict = {}
        for position, point in enumerate(self.visit):
            index[point] = position
            bits = 0
            for pred in self._pred.get(point, ()):
                # the checking walk only adds edges from a visited point to a later one
                if pred not in anc:
                    raise ValueError(f"edge {(pred, point)} runs against the visit order")
                bits |= anc[pred] | (1 << index[pred])
            anc[point] = bits
        outside = self._pred.keys() - anc.keys()
        if outside:
            raise ValueError(f"edges end at points outside the visit order: {sorted(outside)}")
        return index, anc

    def precedes(self, a: int, b: int) -> bool:
        """a strictly precedes b, transitively."""

        index, anc = self.reach
        return a != b and a in index and b in anc and anc[b] >> index[a] & 1 == 1

    def closure(self) -> frozenset:
        """Every strictly ordered pair (a, b)."""

        index, anc = self.reach
        return frozenset(
            (a, b)
            for b in self.visit
            for a in self.visit[: index[b]]
            if anc[b] >> index[a] & 1
        )

    def predecessors(self, point: int):
        return sorted(self._pred.get(point, ()))


def ip_type(subject, gamma: TypeEnv, pi: Pi, at: int | None = None) -> frozenset:
    """Chain-wise interpretation of a subject for a query at ``at``: on
    each maximal chain ending at the query point, the greatest binding
    occurrence of the subject; returned as the set of atoms over all
    chains.

    Computed by a backward search that stops at binding points, which
    visits each point once and agrees with per-chain enumeration.
    """

    if at is None:
        at = pi.final
    bound = gamma.bound_points(subject)
    if at is None or not bound:
        return frozenset()
    if at in bound:
        return frozenset({(subject, at)})
    found = set()
    stack = [at]
    seen = {at}
    while stack:
        node = stack.pop()
        for pred in pi.predecessors(node):
            if pred in seen:
                continue
            seen.add(pred)
            if pred in bound:
                found.add((subject, pred))
            else:
                stack.append(pred)
    return frozenset(found)


class UnknownPoint(Exception):
    def __init__(self, point: int):
        super().__init__(f"point {point} does not occur in the order")
        self.point = point


def _reduced_predecessors(pi: Pi) -> dict:
    """Predecessor lists of the transitive reduction of the order.

    An edge (a, b) is dropped when a longer path connects its endpoints,
    which happens exactly when a precedes another predecessor of b;
    chains enumerated over what remains are exactly the maximal chains
    of the order's closure.
    """

    pred: dict = {}
    for node in pi.into:
        parents = pi.predecessors(node)
        pred[node] = [a for a in parents if not any(pi.precedes(a, c) for c in parents)]
    return pred


def p_chains(pi: Pi, point: int, limit: int = 100_000) -> frozenset:
    """All maximal chains of the order's closure whose greatest element
    is ``point``, each as an ascending tuple ending at ``point``.

    The count is capped to guard against pathological graphs; the cap is
    far above anything reachable at tested sizes.
    """

    if point not in pi.points:
        raise UnknownPoint(point)
    pred = _reduced_predecessors(pi)
    chains = set()
    stack = [(point, (point,))]
    while stack:
        node, path = stack.pop()
        parents = pred.get(node, ())
        if not parents:
            chains.add(tuple(reversed(path)))
            if len(chains) >= limit:
                raise RuntimeError("chain enumeration exceeded its cap")
            continue
        for parent in parents:
            stack.append((parent, path + (parent,)))
    return frozenset(chains)


def _free_in(occ: Occurrence, table: dict) -> frozenset:
    expr = occ.expr
    match expr:
        case Variable(name):
            fv = frozenset({name})
        case Abstraction(param, body):
            fv = _free_in(body, table) - {param}
        case Let(name, bound, body):
            fv = _free_in(bound, table) | (_free_in(body, table) - {name})
        case LetRec(name, bound, body):
            fv = (_free_in(bound, table) | _free_in(body, table)) - {name}
        case Application(a, b) | FunctionalApplication(_, a, b) | Assign(a, b):
            fv = _free_in(a, table) | _free_in(b, table)
        case Case(scrutinee, patterns, clauses):
            fv = _free_in(scrutinee, table)
            for pattern, clause in zip(patterns, clauses):
                clause_fv = _free_in(clause, table)
                fv = fv | (clause_fv - {pattern.name} if isinstance(pattern, PVar) else clause_fv)
        case Ref(inner) | Deref(inner) | Group(inner):
            fv = _free_in(inner, table)
        case _:
            fv = frozenset()
    table[occ.point] = fv
    return fv


def free_name_table(occ: Occurrence) -> dict:
    """The names occurring free in each subterm, by the subterm's point."""

    table: dict = {}
    _free_in(occ, table)
    return table


def free_vars(occ: Occurrence) -> frozenset:
    """Names that occur free in the occurrence."""

    return free_name_table(occ)[occ.point]


def binding_lemma(program: Occurrence, *, tamper=None, budget: int = 1_000_000) -> dict:
    """The binding lemma's verdict on a run of ``program``, as
    ``AgreementReport.to_dict`` shows it: at every bind of a name, every
    frame on the stack (a point) is one check, which fails when the name
    is free in the frame by the program's free-name table.  A run that
    ends in an evaluation error keeps the checks made so far."""

    table = free_name_table(program)
    lemma = ClauseVerdict()
    stack: list = []

    def on_step(kind, occ, env, value, pair, dep):
        if kind == "begin":
            stack.append(occ.point)
        elif kind == "end":
            if stack:
                stack.pop()
        elif not isinstance(occ, Location):
            lemma.activity += len(stack)
            for frame in stack:
                if occ in table.get(frame, ()):
                    lemma.fail(f"{occ} bound during evaluation of point {frame} where it is free")

    try:
        evaluate(program, budget=budget, on_step=on_step, tamper=tamper)
    except EvalError:
        pass
    return {"holds": lemma.holds, "activity": lemma.activity, "witnesses": list(lemma.witnesses)}


def _origins_of(ty: Type) -> int:
    return ty.delta if isinstance(ty, Base) else ty.pending


def expanded_origins(ty: Type, analysis: Analysis, binding: int) -> int:
    """The origin set of ``ty`` (a bitset over ``analysis.atoms``) closed
    transitively through the Γ entries of internal variables bound at or
    before ``binding``.

    Only atoms with an entry are expanded, each once, and an entry adds
    only atoms not seen yet."""

    bit = analysis.atoms.bit
    entered = sum(bit(key) for key in analysis.gamma.entries if isinstance(key[0], IVar))
    origins = seen = _origins_of(ty)
    frontier = origins & entered
    if not frontier:
        return origins
    index, anc = analysis.pi.reach
    bits = anc.get(binding, 0)
    entries, at = analysis.gamma.entries, analysis.atoms.at
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        atom = at[low.bit_length() - 1]
        point = atom[1]
        if point != binding and not (point in index and bits >> index[point] & 1):
            continue
        new = _origins_of(entries[atom]) & ~seen
        seen |= new
        frontier |= new & entered
    return seen


def check_noninterference(program: Occurrence, labeling: dict) -> tuple:
    """(atoms, sites, missed): the flows' high occurrences and low binding
    sites and the positions of the flows the chain reading misses, the
    flows assembled as sort keys (binding point, occurrence point,
    subject, binder, ...), one per flow, sorted once."""

    analysis: Analysis = security.typecheck(program, allow_free=True)
    table, type_of = analysis.atoms, analysis.type_of
    high = {name for name, level in labeling.items() if level == security.HIGH}
    high_bits = table.mask(high.__contains__)
    if not high_bits:
        return (), (), ()
    keys = []
    for site in analysis.binding_sites:
        binder, binding = site
        if security.level_of(labeling, binder) != security.LOW:
            continue
        sources = security.expanded_origins(type_of[binding]) & high_bits
        if sources:
            index, anc = analysis.pi.reach
            bits = anc.get(binding, 0)
            # the first four fields tell flows apart, so the sort never compares the rest
            keys += [
                (binding, pt, atom[0], binder, atom, site, pt == binding or pt in index and bits >> index[pt] & 1 == 1)
                for atom in table.points_of(sources) for pt in (atom[1],)
            ]
    if not keys:
        return (), (), ()
    keys.sort()
    *_, atoms, sites, chained = zip(*keys)
    return atoms, sites, tuple(i for i, kept in enumerate(chained) if not kept)
