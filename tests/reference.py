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
"""

from __future__ import annotations

from refflow.semantics import AmbiguousPredecessor, DepPair
from refflow.syntax import Abstraction, Let, LetRec, Occurrence, Ref, Variable, _children
from refflow.typesys import AbstractionInRef, LinearityViolation, _ungrouped


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
