"""Static approximations of the run: the happens-before order and alias base.

Both artifacts come out of one syntactic walk in evaluation order.  The
walk carries, for every expression, a small descriptor of the value it
can produce: the abstraction points it may be a closure of, and the
internal variables of the references it may be.  Descriptors let the
walk descend into an abstraction's body at its application site (unique
per abstraction under linearity) and let binders inherit the reference
identities of what they are bound to.

``approximate_pi`` records one cover edge per consecutive visit.  Case
alternatives fork from the scrutinee's point and join at the case's own
point, so points of different alternatives stay incomparable; the
bodies behind a several-origin application fork and join the same way.

``build_alias_base`` partitions every variable and internal variable of
the program into alias blocks: a binder shares a block with every
internal variable its bound value may denote, and names alias each
other only by meeting in such a block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Abstraction,
    Application,
    Assign,
    Case,
    Constant,
    Deref,
    FunctionalApplication,
    Group,
    Let,
    LetRec,
    Occurrence,
    PVar,
    Ref,
    Variable,
)
from .typesys import IVar, Pi, _resolve_abstraction, subject_key


# ---------------------------------------------------------------------------
# The evaluation-order walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Descriptor:
    """What a subexpression may evaluate to, for walking purposes."""

    origins: frozenset = frozenset()
    refs: frozenset = frozenset()

    def union(self, other: "_Descriptor") -> "_Descriptor":
        return _Descriptor(self.origins | other.origins, self.refs | other.refs)


_NOTHING = _Descriptor()


class _FlowWalker:
    def __init__(self):
        self.visit: list = []
        self.edges: set = set()
        self.lam_scopes: dict = {}
        self.lam_occ: dict = {}
        self.walked: set = set()
        self.merges: list = []
        self.bind_sites: list = []

    def note(self, point: int, prev):
        self.visit.append(point)
        if prev is not None and prev != point:
            self.edges.add((prev, point))

    def merge(self, name: str, refs: frozenset):
        for internal in sorted(refs, key=subject_key):
            self.merges.append((name, internal))

    def walk(self, occ: Occurrence, prev, scope: dict):
        """Visit the occurrence; returns (its point, its descriptor)."""

        expr = occ.expr
        p = occ.point
        match expr:
            case Constant(_):
                self.note(p, prev)
                return p, _NOTHING

            case Variable(name):
                self.note(p, prev)
                return p, scope.get(name, _NOTHING)

            case Abstraction(_, _):
                self.lam_occ[p] = occ
                self.lam_scopes[p] = dict(scope)
                self.note(p, prev)
                return p, _Descriptor(origins=frozenset({p}))

            case Group(inner):
                last, desc = self.walk(inner, prev, scope)
                self.note(p, last)
                return p, desc

            case Let(name, bound, body):
                bound_last, bound_desc = self.walk(bound, prev, scope)
                self.bind_sites.append((name, bound.point))
                self.merge(name, bound_desc.refs)
                body_last, body_desc = self.walk(body, bound_last, {**scope, name: bound_desc})
                self.note(p, body_last)
                return p, body_desc

            case LetRec(name, bound, body):
                lam = _resolve_abstraction(bound)
                if lam is not None:
                    inner_scope = {**scope, name: _Descriptor(origins=frozenset({lam.point}))}
                    bound_last, _ = self.walk(bound, prev, inner_scope)
                else:
                    bound_last, bound_desc = self.walk(bound, prev, scope)
                    self.merge(name, bound_desc.refs)
                    inner_scope = {**scope, name: bound_desc}
                self.bind_sites.append((name, bound.point))
                body_last, body_desc = self.walk(body, bound_last, inner_scope)
                self.note(p, body_last)
                return p, body_desc

            case Application(fn, arg):
                fn_last, fn_desc = self.walk(fn, prev, scope)
                arg_last, arg_desc = self.walk(arg, fn_last, scope)
                pending = [
                    origin
                    for origin in sorted(fn_desc.origins)
                    if origin in self.lam_occ and origin not in self.walked
                ]
                if not pending:
                    self.note(p, arg_last)
                    return p, _NOTHING
                body_lasts = []
                result = _NOTHING
                for origin in pending:
                    self.walked.add(origin)
                    lam = self.lam_occ[origin]
                    self.bind_sites.append((lam.expr.param, arg.point))
                    self.merge(lam.expr.param, arg_desc.refs)
                    body_scope = {**self.lam_scopes[origin], lam.expr.param: arg_desc}
                    body_last, body_desc = self.walk(lam.expr.body, arg_last, body_scope)
                    body_lasts.append(body_last)
                    result = result.union(body_desc)
                self.visit.append(p)
                for last in body_lasts:
                    if last != p:
                        self.edges.add((last, p))
                return p, result

            case FunctionalApplication(_, left, right):
                left_last, _ = self.walk(left, prev, scope)
                right_last, _ = self.walk(right, left_last, scope)
                self.note(p, right_last)
                return p, _NOTHING

            case Ref(init):
                init_last, _ = self.walk(init, prev, scope)
                self.note(p, init_last)
                return p, _Descriptor(refs=frozenset({IVar(p)}))

            case Assign(target, value):
                target_last, _ = self.walk(target, prev, scope)
                value_last, _ = self.walk(value, target_last, scope)
                self.note(p, value_last)
                return p, _NOTHING

            case Deref(ref):
                ref_last, _ = self.walk(ref, prev, scope)
                self.note(p, ref_last)
                return p, _NOTHING

            case Case(scrutinee, patterns, clauses):
                scrut_last, scrut_desc = self.walk(scrutinee, prev, scope)
                branch_lasts = []
                result = _NOTHING
                for pattern, clause in zip(patterns, clauses):
                    branch_scope = scope
                    if isinstance(pattern, PVar):
                        self.bind_sites.append((pattern.name, scrutinee.point))
                        self.merge(pattern.name, scrut_desc.refs)
                        branch_scope = {**scope, pattern.name: scrut_desc}
                    last, desc = self.walk(clause, scrut_last, branch_scope)
                    branch_lasts.append(last)
                    result = result.union(desc)
                self.visit.append(p)
                for last in branch_lasts:
                    if last != p:
                        self.edges.add((last, p))
                return p, result

        raise TypeError(f"unknown expression {expr!r}")


def _walked(program: Occurrence, walker: _FlowWalker | None) -> _FlowWalker:
    """``walker`` after it has walked ``program``; a fresh walker when None.

    A walker shared between the entry points below walks only on the
    first of them, so the entry point that walks is charged for it.
    """

    if walker is None:
        walker = _FlowWalker()
    if not walker.visit:
        walker.walk(program, None, {})
    return walker


def binding_sites(program: Occurrence, walker: _FlowWalker | None = None) -> tuple:
    """Every binding the run would perform, as (name, binding point)
    pairs in evaluation order: let and let rec binders at their bound
    expression's point, parameters at their argument's point, pattern
    binders at their scrutinee's point."""

    return tuple(_walked(program, walker).bind_sites)


def approximate_pi(program: Occurrence, walker: _FlowWalker | None = None) -> Pi:
    """The static happens-before order over the program's points."""

    walker = _walked(program, walker)
    return Pi(tuple(walker.visit), frozenset(walker.edges))


# ---------------------------------------------------------------------------
# Alias base
# ---------------------------------------------------------------------------


def _subjects_of(program: Occurrence) -> list:
    """Every variable name and internal variable the program mentions."""

    out: set = set()

    def visit(occ: Occurrence):
        expr = occ.expr
        match expr:
            case Variable(name):
                out.add(name)
            case Abstraction(param, body):
                out.add(param)
                visit(body)
                return
            case Let(name, bound, body) | LetRec(name, bound, body):
                out.add(name)
                visit(bound)
                visit(body)
                return
            case Case(scrutinee, patterns, clauses):
                for pattern in patterns:
                    if isinstance(pattern, PVar):
                        out.add(pattern.name)
                visit(scrutinee)
                for clause in clauses:
                    visit(clause)
                return
            case Ref(init):
                out.add(IVar(occ.point))
                visit(init)
                return
            case Application(a, b) | FunctionalApplication(_, a, b) | Assign(a, b):
                visit(a)
                visit(b)
                return
            case Deref(inner) | Group(inner):
                visit(inner)
                return
        # constants and variables have no children left to visit

    visit(program)
    return sorted(out, key=subject_key)


def build_alias_base(program: Occurrence, walker: _FlowWalker | None = None) -> tuple:
    """Partition the program's variables and internal variables into
    alias blocks.

    A binder joins the block of every internal variable its bound value
    may denote; every other subject stays a singleton.  Two names can
    only share a block by sharing an internal variable, so any block
    with several members names at least one reference.  Blocks come
    back sorted for stable output.
    """

    walker = _walked(program, walker)
    parent: dict = {}

    def find(subject):
        parent.setdefault(subject, subject)
        root = subject
        while parent[root] != root:
            root = parent[root]
        while parent[subject] != root:
            parent[subject], subject = root, parent[subject]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for subject in _subjects_of(program):
        find(subject)
    for name, internal in walker.merges:
        union(name, internal)

    blocks: dict = {}
    for subject in parent:
        blocks.setdefault(find(subject), set()).add(subject)
    ordered = sorted(
        (frozenset(group) for group in blocks.values()),
        key=lambda group: min(subject_key(s) for s in group),
    )
    for block in ordered:
        if len(block) > 1 and not any(isinstance(s, IVar) for s in block):
            raise AssertionError(f"alias block without a reference: {sorted(block, key=subject_key)}")
    return tuple(ordered)
