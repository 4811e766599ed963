"""Dependency types, the checking walk, and the approximated order's queries.

A base type is a pair (delta, kappa): delta collects the atomic
occurrences a value may have been computed from, kappa the names the
value may be aliased under when it is a reference; delta is a bitset
over the analysis's one table of atoms, ``Atoms``.  Reference contents
are typed through *internal variables*, one per allocation point; the
current entry of an internal variable fuses the content's dependencies
with the alias set of the location it stands for.  Abstractions get an
opaque arrow type that remembers its origin points plus any atoms that
were pushed onto it by reads; the atoms land in the result when the
abstraction is applied.

Checking walks the program in evaluation order and descends into an
abstraction's body at its application site, which linearity makes
unique, so the walk sees the same environment and store history the
evaluator does.  The walk is total on the linear fragment: used-twice
abstractions, abstractions stored in references, references stored in
references, and recursive descents are rejected.

The same walk records the flow facts the rest of the static half reads,
so each program is walked once: the approximated order Pi (every point
visited after its children, one cover edge per consecutive visit, case
arms and the bodies behind a several-origin application forking from
one point and joining at their parent), numbered in visit order as the
walk goes; the binding sites; and the alias merges, one (binder,
internal variable) pair per cell a binder's value may denote, unified
into the alias base in the style of Steensgaard's points-to analysis
(POPL 1996): every subject starts in its own block and each merge joins
two blocks.

Pi is a ``semantics.Order``, the point index and bitset edge store the
collecting run keeps its realized order in, so the oracle compares the
two bit for bit.  The visit order is a topological order of Pi's edges,
so one pass over it gives every point its strict ancestors as a bitset
and ``precedes`` is a bit test; the chain-wise interpretation of a
subject's binding points, ``ip_type``, is one walk back over Pi.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .syntax import (
    Abstraction,
    Application,
    Assign,
    Case,
    Constant,
    Deref,
    Frozen,
    FunctionalApplication,
    Group,
    Let,
    LetRec,
    Occurrence,
    PBool,
    PNat,
    PTuple,
    PVar,
    PWildcard,
    Record,
    Ref,
    Variable,
    _children,
    _set,
)
from .semantics import Closure, Interned, Location, Order


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class IVar(Interned):
    """Internal variable standing for the reference allocated at a point."""

    __slots__ = ()
    _instances: dict = {}
    _field = "point"
    point = property(itemgetter(0))

    def __str__(self) -> str:
        return f"v{self[0]}"


def subject_key(subject):
    """Deterministic sort key for names and internal variables."""

    if isinstance(subject, IVar):
        return (1, subject.point, "")
    return (0, 0, subject)


def atom_key(atom):
    subject, point = atom
    return (*subject_key(subject), point)


def show_atom(atom) -> str:
    subject, point = atom
    return f"{subject}@{point}"


class Atoms(Order):
    """The atoms (subject, point) of one analysis, each numbered once, in
    the order first met: a set of atoms is the bitset of their positions,
    ``bit`` interns one and ``points_of`` decodes a bitset, lowest position
    first.  The table only grows, so a bitset keeps its meaning; the run
    ``check_soundness`` drives shares it."""

    def mask(self, keep) -> int:
        """The bits of the atoms whose subject ``keep`` accepts."""

        bits = 0
        for position, (subject, _) in enumerate(self.at):
            if keep(subject):
                bits |= 1 << position
        return bits


class Type(Frozen):
    __slots__ = ()


class Base(Type):
    __slots__ = __match_args__ = ("delta", "kappa")
    def __init__(self, delta: int = 0, kappa: frozenset = frozenset()):
        _set(self, "delta", delta)  # a bitset over the analysis's Atoms
        _set(self, "kappa", kappa)


# the type of every constant; immutable, so one instance serves them all
_NO_ORIGINS = Base()


class Arrow(Type):
    __slots__ = __match_args__ = ("origins", "pending")
    def __init__(self, origins: frozenset, pending: int = 0):
        _set(self, "origins", origins)
        _set(self, "pending", pending)  # a bitset over the analysis's Atoms


def type_dict(ty: Type, atoms: Atoms) -> dict:
    """A type as ``typecheck --json`` prints it, its atoms decoded from
    ``atoms`` and sorted; ``show_type`` prints this document as text."""

    def shown(bits: int) -> list:
        return [show_atom(a) for a in sorted(atoms.points_of(bits), key=atom_key)]

    if isinstance(ty, Base):
        kappa = [str(s) for s in sorted(ty.kappa, key=subject_key)]
        return {"kind": "base", "delta": shown(ty.delta), "kappa": kappa}
    return {"kind": "arrow", "origins": sorted(ty.origins), "pending": shown(ty.pending)}


def show_type(doc: dict) -> str:
    if doc["kind"] == "base":
        return f"({{{', '.join(doc['delta'])}}}, {{{', '.join(doc['kappa'])}}})"
    pending = f"+{{{', '.join(doc['pending'])}}}" if doc["pending"] else ""
    return f"fun[{','.join(map(str, doc['origins']))}]{pending}"


def push_atoms(ty: Type, atoms: int) -> Type:
    """Add atoms (a bitset) to a type where they will surface in a result."""

    if not atoms:
        return ty
    if isinstance(ty, Base):
        return Base(ty.delta | atoms, ty.kappa)
    return Arrow(ty.origins, ty.pending | atoms)


def kappa_ivars(ty: Base):
    return sorted((s for s in ty.kappa if isinstance(s, IVar)), key=subject_key)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class TypeCheckError(Exception):
    def __init__(self, message: str, point: int):
        super().__init__(f"{message} (at point {point})")
        self.point = point


class LinearityViolation(TypeCheckError):
    def __init__(self, points):
        pts = tuple(sorted(points))
        text = " and ".join(str(p) for p in pts)
        super().__init__(f"abstraction used more than once, at points {text}", pts[-1])
        self.points = pts


class RecursiveApplication(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("abstraction applied within its own body", point)


class AbstractionInRef(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("abstractions cannot be stored in references", point)


class UnsupportedRefContent(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("references cannot store other references", point)


class NonReferenceDeref(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("dereference of a non-reference", point)


class NonReferenceAssign(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("assignment to a non-reference", point)


class NonFunctionApplication(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("application of a non-function", point)


class PrimShapeError(TypeCheckError):
    def __init__(self, op: str, point: int):
        super().__init__(f"operator {op!r} applied to a function", point)
        self.op = op


class CaseOnAbstraction(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("constant patterns cannot match a function", point)


class UndefinedUnion(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("the types have no union", point)


class UnboundName(TypeCheckError):
    def __init__(self, name: str, point: int):
        super().__init__(f"unbound name {name!r}", point)
        self.name = name


class UnsupportedPattern(TypeCheckError):
    def __init__(self, point: int):
        super().__init__("tuple patterns are outside the typed fragment", point)


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------


def type_union(left: Type, right: Type, point: int = 0) -> Type:
    """The least upper bound of two types of the same shape.

    Base types join component-wise on both sets; arrows join their
    origins and their pending atoms.  A base type has no union with an
    arrow: no value is both a function and a non-function.
    """

    if isinstance(left, Base) and isinstance(right, Base):
        return Base(left.delta | right.delta, left.kappa | right.kappa)
    if isinstance(left, Arrow) and isinstance(right, Arrow):
        return Arrow(left.origins | right.origins, left.pending | right.pending)
    raise UndefinedUnion(point)


# ---------------------------------------------------------------------------
# Type environments
# ---------------------------------------------------------------------------


class TypeEnv:
    """Append-only history of typed bindings, with a current view.

    Keys are atomic occurrences (subject, point); ``latest`` tracks the
    point each subject was most recently bound at along the walk, and
    ``_points`` the set of every point each subject was bound at, grown
    in place; ``bound_points`` hands out a frozen copy.
    """

    def __init__(self):
        self.entries: dict = {}
        self.latest: dict = {}
        self._points: dict = {}

    def bind(self, subject, point: int, ty: Type):
        key = (subject, point)
        if key in self.entries:
            self.entries[key] = type_union(self.entries[key], ty, point)
        else:
            self.entries[key] = ty
            self._points.setdefault(subject, set()).add(point)
        self.latest[subject] = point

    def current(self, subject) -> Type | None:
        point = self.latest.get(subject)
        if point is None:
            return None
        return self.entries[(subject, point)]

    def at(self, subject, point: int) -> Type | None:
        return self.entries.get((subject, point))

    def bound_points(self, subject) -> frozenset:
        return frozenset(self._points.get(subject, ()))

    def subjects(self) -> frozenset:
        return frozenset(self._points)


# ---------------------------------------------------------------------------
# The approximated order
# ---------------------------------------------------------------------------


class Pi(Order):
    """Happens-before approximation: cover edges over visited points.

    The checking walk numbers each point when it visits it, after its
    children, and gives it its sources at once, all visited before it:
    positions follow ``visit``, and every edge runs forward along it, so
    ``visit`` is a topological order.  ``Pi(visit, edges)`` takes the
    same steps over the given points and edges, and refuses (ValueError)
    an edge that runs against the visit order or ends outside it.
    ``reach`` is (index, anc), ``anc`` mapping each visited point to the
    bitset of its strict ancestors, built on first use.  Points outside
    ``visit`` are unordered.
    """

    def __init__(self, visit: tuple = (), edges=()):
        super().__init__()
        into: dict = {}
        for before, after in edges:
            into.setdefault(after, []).append(before)
        for point in visit:
            sources = 0
            for before in into.pop(point, ()):
                if before not in self.index:
                    raise ValueError(f"edge {(before, point)} runs against the visit order")
                sources |= self.bit(before)
            if sources:
                self.into[point] = sources
            self.bit(point)
        if into:
            raise ValueError(f"edges end at points outside the visit order: {sorted(into)}")

    @cached_property
    def visit(self) -> tuple:
        return tuple(self.at)

    @property
    def final(self) -> int | None:
        return self.at[-1] if self.at else None

    @cached_property
    def points(self) -> frozenset:
        return frozenset(self.at)

    @cached_property
    def reach(self) -> tuple:
        """(index, anc), built in one pass over the visit order: a point's
        ancestors are its sources' bits ORed with their ancestors, and a
        bit test on them answers whether one point precedes another."""

        anc: dict = {}
        for point in self.at:
            bits = self.into.get(point, 0)
            for before in self.points_of(bits):
                bits |= anc[before]
            anc[point] = bits
        return self.index, anc

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


def ip_type(subject, gamma: TypeEnv, pi: Pi, at: int | None = None) -> frozenset:
    """Chain-wise interpretation of a subject for a query at ``at``: on
    each maximal chain ending at the query point, the greatest binding
    occurrence of the subject; returned as the set of atoms over all
    chains.

    Computed by one backward walk over Pi that stops at binding points,
    which visits each point once and agrees with per-chain enumeration.
    """

    if at is None:
        at = pi.final
    bound = gamma.bound_points(subject)
    if at is None or not bound:
        return frozenset()
    if at in bound:
        return frozenset({(subject, at)})
    if at not in pi.points:
        return frozenset()
    mask = sum(map(pi.bit, bound & pi.points))
    return frozenset((subject, point) for point in pi.points_of(pi.walk(pi.bit(at), stop=mask) & mask))


# ---------------------------------------------------------------------------
# Linearity pre-check
# ---------------------------------------------------------------------------


def _ungrouped(occ: Occurrence) -> Occurrence:
    """The occurrence behind pass-through group wrappers."""

    while isinstance(occ.expr, Group):
        occ = occ.expr.inner
    return occ


def linear_use_check(program: Occurrence) -> tuple:
    """Violations of the linear-abstraction discipline, without raising.

    Flags names bound to a syntactic abstraction and used twice, and
    abstractions placed under ref, directly or through such a name; uses
    of abstractions that flow through parameters are caught during the
    checking walk instead.  Returns the violations in program order.

    One pre-order loop keeps the names bound to an abstraction and the
    names whose uses count, each with the use list of its binding; only
    a let-bound abstraction changes them.  A let rec's own bound counts
    its uses, a let's does not: a marker between bound and body starts
    the count.  A marker after the body puts back what the name held, so
    each node sees what a per-path scope would, also under shadowing.
    """

    found: list = []  # violations in pre-order; a use list stands for its binding's
    fun_names: set = set()
    counted: dict = {}
    stack: list = [program]
    pop = stack.pop
    while stack:
        occ = pop()
        if type(occ) is tuple:
            # a marker (name, use list or None, whether it stays a function name)
            name, uses, keep = occ
            if uses is None:
                del counted[name]
            else:
                counted[name] = uses
            if not keep:
                fun_names.discard(name)
            continue
        expr = occ.expr
        kind = type(expr)  # no expression class has subclasses
        if kind is Variable:
            uses = counted.get(expr.name)
            if uses is not None:
                uses.append(occ.point)
            continue
        if (kind is Let or kind is LetRec) and type(_ungrouped(expr.bound).expr) is Abstraction:
            name, uses = expr.name, []
            found.append(uses)
            stack += ((name, counted.get(name), name in fun_names), expr.body)
            fun_names.add(name)
            if kind is LetRec:
                counted[name] = uses
            else:
                stack.append((name, uses, True))
            stack.append(expr.bound)
            continue
        if kind is Ref:
            init = _ungrouped(expr.init).expr
            if isinstance(init, Abstraction) or isinstance(init, Variable) and init.name in fun_names:
                found.append(AbstractionInRef(occ.point))
        stack += _children(expr)[::-1]
    return tuple(
        LinearityViolation(item) if isinstance(item, list) else item
        for item in found
        if not isinstance(item, list) or len(item) > 1
    )


# ---------------------------------------------------------------------------
# Subjects
# ---------------------------------------------------------------------------


def program_subjects(program: Occurrence) -> list:
    """Every name the program binds or mentions and the internal variable
    of every allocation point, sorted by ``subject_key``."""

    out: set = set()
    stack = [program]
    while stack:
        occ = stack.pop()
        subjects = _SUBJECTS.get(type(occ.expr))
        if subjects is not None:
            out.update(subjects(occ))
        stack.extend(_children(occ.expr))
    return sorted(out, key=subject_key)


# the subjects an occurrence names, by the exact class of its expression
_SUBJECTS = {
    Variable: lambda occ: (occ.expr.name,),
    Abstraction: lambda occ: (occ.expr.param,),
    Let: lambda occ: (occ.expr.name,),
    LetRec: lambda occ: (occ.expr.name,),
    Case: lambda occ: [pattern.name for pattern in occ.expr.patterns if type(pattern) is PVar],
    Ref: lambda occ: (IVar(occ.point),),
}


# ---------------------------------------------------------------------------
# The checking walk
# ---------------------------------------------------------------------------


MUTATIONS = (
    "tvar-drop-atom",
    "tlet1-drop-kappa",
    "tcase-drop-scrutinee",
    "trefread-drop-delta-prime",
)


class Analysis(Record):
    """Everything the program's one checking walk produced: Γ, the type of
    every point it typed, the result type, and the flow facts recorded on
    the way.  ``atoms`` numbers the atoms the types name.  Pi is the visit
    order with its cover edges; the binding sites are (name, binding
    point) pairs in evaluation order; each merge (binder, internal
    variable) says the binder may denote that cell, and the alias blocks
    are derived from the merges on first use."""

    __match_args__ = ("program", "gamma", "type_of", "result_type", "pi", "binding_sites", "merges", "atoms")
    def __init__(self, program: Occurrence, gamma: TypeEnv, type_of: dict, result_type: Type, pi: Pi,
                 binding_sites: tuple, merges: tuple, atoms: Atoms):
        self.program = program
        self.gamma = gamma
        self.type_of = type_of
        self.result_type = result_type
        self.pi = pi
        self.binding_sites = binding_sites
        self.merges = merges
        self.atoms = atoms

    @cached_property
    def alias_blocks(self) -> dict:
        """Each subject some merge touches, with its alias block.

        One union-find over the merges, in the style of Steensgaard
        (path halving): a binder joins the block of every internal
        variable its bound value may denote.  A subject no merge touches
        is a block of its own and is not in the map.  Each merge names an
        internal variable, so every block here names a reference.
        """

        parent: dict = {}

        def find(subject):
            parent.setdefault(subject, subject)
            while parent[subject] != subject:
                parent[subject] = parent[parent[subject]]
                subject = parent[subject]
            return subject

        for name, internal in self.merges:
            parent[find(name)] = find(internal)
        blocks: dict = {}
        for subject in parent:
            blocks.setdefault(find(subject), set()).add(subject)
        return {subject: block for block in map(frozenset, blocks.values()) for subject in block}

    @cached_property
    def alias_base(self) -> tuple:
        """The program's subjects partitioned into alias blocks: the
        merged blocks plus a singleton for every other subject, ordered
        by their least member."""

        merged = self.alias_blocks
        blocks: list = []
        placed: set = set()
        # subjects come sorted, so each block is met first at its least member
        for subject in program_subjects(self.program):
            if subject not in placed:
                block = merged.get(subject) or frozenset((subject,))
                placed.update(block)
                blocks.append(block)
        return tuple(blocks)


class _Checker:
    """The checking walk.  It visits every point after its children, in
    evaluation order, numbering it in Pi with edges from ``last``, the
    bits of the points the walk just left: the point visited before, or
    where case arms or the bodies behind a several-origin application
    forked from one point, the end of every branch."""

    def __init__(self, program: Occurrence, mutation: str | None, allow_free: bool):
        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}")
        self.program = program
        self.mutation = mutation
        self.allow_free = allow_free
        self.gamma = TypeEnv()
        self.atoms = Atoms()
        self.type_of: dict = {}
        self.lams: dict = {}  # abstraction point -> its Abstraction
        self.lam_scopes: dict = {}
        self.claims: dict = {}
        self.active: set = set()
        self.pi = Pi()
        self.last = 0
        self.sites: list = []
        self.merges: list = []

    def run(self) -> Analysis:
        violations = linear_use_check(self.program)
        if violations:
            raise violations[0]
        result = self.check(self.program, {})
        return Analysis(
            program=self.program,
            gamma=self.gamma,
            type_of=self.type_of,
            result_type=result,
            pi=self.pi,
            binding_sites=tuple(self.sites),
            merges=tuple(self.merges),
            atoms=self.atoms,
        )

    def check(self, occ: Occurrence, scope: dict) -> Type:
        expr = occ.expr
        try:
            rule = _CHECK_RULES[type(expr)]
        except KeyError:
            raise TypeError(f"unknown expression {expr!r}") from None
        p = occ.point
        ty = rule(self, expr, p, scope)
        self.type_of[p] = ty
        if self.last:
            self.pi.into[p] = self.last
        self.last = self.pi.bit(p)
        return ty

    def _binder(self, name: str, site: int, ty: Type) -> Type:
        """Record that ``name`` is bound at ``site`` to a value of type
        ``ty``, with one merge per internal variable the value may
        denote; returns the type the binder records, where aliased
        bindings join the alias set."""

        self.sites.append((name, site))
        if isinstance(ty, Arrow) or not ty.kappa:
            return ty
        self.merges.extend((name, internal) for internal in kappa_ivars(ty))
        return Base(ty.delta, ty.kappa | {name})

    # -- the rules, one per expression class; each returns the node's type --

    def _constant(self, expr: Constant, p: int, scope: dict) -> Type:
        return _NO_ORIGINS

    def _variable(self, expr: Variable, p: int, scope: dict) -> Type:
        name = expr.name
        ty = scope.get(name)
        if ty is None:
            # None marks a let rec name its own bound cannot see
            if not self.allow_free or name in scope:
                raise UnboundName(name, p)
            ty = Base()
        if self.mutation == "tvar-drop-atom":
            return ty
        return push_atoms(ty, self.atoms.bit((name, p)))

    def _abstraction(self, expr: Abstraction, p: int, scope: dict) -> Type:
        self.lams[p] = expr
        self.lam_scopes[p] = dict(scope)
        return Arrow(frozenset({p}))

    def _let(self, expr: Let, p: int, scope: dict) -> Type:
        name, bound = expr.name, expr.bound
        recorded = self._binder(name, bound.point, self.check(bound, scope))
        if self.mutation == "tlet1-drop-kappa" and isinstance(recorded, Base):
            recorded = Base(recorded.delta, frozenset())
        self.gamma.bind(name, p, recorded)
        return self.check(expr.body, {**scope, name: recorded})

    def _let_rec(self, expr: LetRec, p: int, scope: dict) -> Type:
        name, bound = expr.name, expr.bound
        lam = _ungrouped(bound)
        if not isinstance(lam.expr, Abstraction):
            bound_ty = self.check(bound, {**scope, name: None})
            recorded = self._binder(name, bound.point, bound_ty)
            self.gamma.bind(name, p, recorded)
            return self.check(expr.body, {**scope, name: recorded})
        rec_ty = Arrow(frozenset({lam.point}))
        inner_scope = {**scope, name: rec_ty}
        self.check(bound, inner_scope)
        self._binder(name, bound.point, rec_ty)
        self.gamma.bind(name, p, rec_ty)
        return self.check(expr.body, inner_scope)

    def _application(self, expr: Application, p: int, scope: dict) -> Type:
        fn, arg = expr.fn, expr.arg
        fn_ty = self.check(fn, scope)
        if not isinstance(fn_ty, Arrow):
            raise NonFunctionApplication(p)
        arg_ty = self.check(arg, scope)
        origins = sorted(fn_ty.origins)
        forked = len(origins) > 1
        # every branch binds into its own copy, so the fork's state needs none
        snapshot = self.gamma.latest
        start, ends = self.last, 0
        branch_latests: list = []
        result: Type | None = None
        for lam_point in origins:
            if lam_point in self.active:
                raise RecursiveApplication(fn.point)
            if lam_point in self.claims and self.claims[lam_point] != fn.point:
                raise LinearityViolation((self.claims[lam_point], fn.point))
            self.claims[lam_point] = fn.point
            if forked:
                # only one body runs; type each from the same state
                self.gamma.latest = dict(snapshot)
            lam = self.lams[lam_point]
            param = lam.param
            recorded = self._binder(param, arg.point, arg_ty)
            self.gamma.bind(param, arg.point, recorded)
            body_scope = {**self.lam_scopes[lam_point], param: recorded}
            self.active.add(lam_point)
            self.last = start
            try:
                body_ty = self.check(lam.body, body_scope)
            finally:
                self.active.discard(lam_point)
            ends |= self.last
            result = body_ty if result is None else type_union(result, body_ty, p)
            branch_latests.append(self.gamma.latest)
        self.last = ends
        if forked:
            self._merge_branches(snapshot, branch_latests, p)
        return push_atoms(result, fn_ty.pending)

    def _primitive(self, expr: FunctionalApplication, p: int, scope: dict) -> Type:
        left_ty = self.check(expr.left, scope)
        right_ty = self.check(expr.right, scope)
        if isinstance(left_ty, Arrow) or isinstance(right_ty, Arrow):
            raise PrimShapeError(expr.op, p)
        return Base(left_ty.delta | right_ty.delta)

    def _ref(self, expr: Ref, p: int, scope: dict) -> Type:
        init_ty = self.check(expr.init, scope)
        if isinstance(init_ty, Arrow):
            raise AbstractionInRef(p)
        if init_ty.kappa:
            raise UnsupportedRefContent(p)
        internal = IVar(p)
        self.gamma.bind(internal, p, Base(init_ty.delta, frozenset({internal})))
        return Base(init_ty.delta, frozenset({internal}))

    def _assign(self, expr: Assign, p: int, scope: dict) -> Type:
        target_ty = self.check(expr.target, scope)
        value_ty = self.check(expr.value, scope)
        if isinstance(target_ty, Arrow) or not target_ty.kappa:
            raise NonReferenceAssign(p)
        if isinstance(value_ty, Arrow):
            raise AbstractionInRef(p)
        if value_ty.kappa:
            raise UnsupportedRefContent(p)
        stored = Base(target_ty.delta | value_ty.delta, target_ty.kappa)
        for internal in kappa_ivars(target_ty):
            self.gamma.bind(internal, p, stored)
        return Base(target_ty.delta, frozenset())

    def _deref(self, expr: Deref, p: int, scope: dict) -> Type:
        ref_ty = self.check(expr.ref, scope)
        internals = () if isinstance(ref_ty, Arrow) else kappa_ivars(ref_ty)
        if not internals:
            raise NonReferenceDeref(p)
        delta = ref_ty.delta
        for internal in internals:
            delta |= self.gamma.current(internal).delta
            if self.mutation != "trefread-drop-delta-prime":
                delta |= self.atoms.bit((internal, p))
        return Base(delta, frozenset())

    def _case(self, expr: Case, p: int, scope: dict) -> Type:
        scrutinee = expr.scrutinee
        scrut_ty = self.check(scrutinee, scope)
        snapshot = self.gamma.latest
        start, ends = self.last, 0
        branch_latests = []
        result: Type | None = None
        for pattern, clause in zip(expr.patterns, expr.clauses):
            self.gamma.latest = dict(snapshot)
            branch_scope = scope
            match pattern:
                case PVar(name):
                    recorded = self._binder(name, scrutinee.point, scrut_ty)
                    self.gamma.bind(name, scrutinee.point, recorded)
                    branch_scope = {**scope, name: recorded}
                case PWildcard():
                    pass
                case PNat(_) | PBool(_):
                    if isinstance(scrut_ty, Arrow):
                        raise CaseOnAbstraction(p)
                case PTuple(_):
                    raise UnsupportedPattern(p)
            self.last = start
            branch_ty = self.check(clause, branch_scope)
            ends |= self.last
            result = branch_ty if result is None else type_union(result, branch_ty, p)
            branch_latests.append(self.gamma.latest)
        self.last = ends
        self._merge_branches(snapshot, branch_latests, p)
        if self.mutation == "tcase-drop-scrutinee":
            return result
        if isinstance(scrut_ty, Base):
            return push_atoms(result, scrut_ty.delta)
        return push_atoms(result, scrut_ty.pending)

    def _merge_branches(self, snapshot: dict, branch_latests: list, point: int):
        """Combine the store typings the branches left behind.

        A subject that existed before the case and was rebound on some
        branch gets a merged entry at the case's point, the union over
        what each branch would leave it as.  Subjects born inside one
        branch keep their single entry.
        """

        merged_latest = dict(snapshot)
        rebound: set = set()
        for latest in branch_latests:
            for subject, pt in latest.items():
                if subject not in snapshot:
                    merged_latest.setdefault(subject, pt)
                elif pt != snapshot[subject]:
                    rebound.add(subject)
        self.gamma.latest = merged_latest
        # every branch started from the snapshot, so its latest has each pre-fork subject
        for subject in sorted(rebound, key=subject_key):
            union: Type | None = None
            for latest in branch_latests:
                ty = self.gamma.entries[(subject, latest[subject])]
                union = ty if union is None else type_union(union, ty, point)
            self.gamma.bind(subject, point, union)


# exact classes: no expression class has subclasses
_CHECK_RULES = {
    Constant: _Checker._constant,
    Variable: _Checker._variable,
    Abstraction: _Checker._abstraction,
    Group: lambda self, expr, p, scope: self.check(expr.inner, scope),
    Let: _Checker._let,
    LetRec: _Checker._let_rec,
    Application: _Checker._application,
    FunctionalApplication: _Checker._primitive,
    Ref: _Checker._ref,
    Assign: _Checker._assign,
    Deref: _Checker._deref,
    Case: _Checker._case,
}


def typecheck(
    program: Occurrence, mutation: str | None = None, *, allow_free: bool = False
) -> Analysis:
    """Type the program, or raise a TypeCheckError explaining the rejection.

    With ``allow_free`` a name bound nowhere around its occurrence is
    admitted as an opaque input of empty base type, so its reads still
    surface as atoms in the result's dependency set.
    """

    return _Checker(program, mutation, allow_free).run()


# ---------------------------------------------------------------------------
# Value membership
# ---------------------------------------------------------------------------


def type_value(value, ty: Type, loc_origin: dict | None = None) -> bool:
    """Whether a runtime value inhabits a static type.

    Ground values need an alias-free base type; a location needs its
    allocation point's internal variable in the alias set, and must be
    in ``loc_origin`` when given; a closure needs its abstraction point
    among the arrow's origins.
    """

    if isinstance(value, Closure):
        return isinstance(ty, Arrow) and value.lam_point in ty.origins
    if isinstance(value, Location):
        if not isinstance(ty, Base):
            return False
        if loc_origin is not None:  # a location no ref allocated inhabits no type
            return value in loc_origin and IVar(loc_origin[value]) in ty.kappa
        return any(isinstance(s, IVar) for s in ty.kappa)
    return isinstance(ty, Base) and not ty.kappa
