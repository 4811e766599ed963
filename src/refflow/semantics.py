"""Collecting big-step semantics with dependency tracking.

Evaluation produces, besides the value, a *dependency pair* (L, V): the
location occurrences and variable occurrences the value was computed
from.  A side table ``w`` records, for every binding made during the
run, the pair the bound value carried at binding time; keys of ``w`` are
atomic occurrences, a subject (variable name or store location) tagged
with the program point the binding happened at.

Alongside ``w`` the run grows a strict order on program points with
three kinds of edges:

* dependency edges: every point mentioned in a binding's pair precedes
  the binding point;
* threading edges: the point a binding rule was entered from precedes
  the binding point (assignments are exempt: an assignment is ordered
  by its chaining edge and the written value's dependency edges);
* chaining edges: a subject's previous binding point precedes its new
  one, so the bindings of one subject always form a chain and the
  interpretation of a subject is the chain's top.

Self edges are dropped, and an edge whose addition would close a cycle
is dropped too; the latter can only be provoked by recursive programs,
which the type system rejects.  The order is an ``Order``, as the
static half's Pi is: one index of points, and one bitset per point of
the points right before it; ``DepState`` says what a revisit costs.

A run can be watched through one callback, ``on_step``, called with six
positional arguments and nothing allocated for it:

* ``on_step("begin", occ, env, None, None, dep)`` before an occurrence
  is evaluated in ``env``;
* ``on_step("end", occ, env, value, pair, dep)`` once it has its value
  and pair;
* ``on_step("bind", subject, point, value, pair, dep)`` after ``subject``
  is bound at ``point`` to ``value`` (for a location, the content just
  written) with the pair ``pair``; every name an environment holds was
  announced this way before the environment is used.

``dep`` is the run's ``DepState``.  An event costs one call, and without
a callback nothing at all.

``show_value`` prints constants through ``syntax.show_constant``, a location
as ``locN`` and a closure by its abstraction's point.
"""

from __future__ import annotations

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
    Pattern,
    Record,
    Ref,
    Variable,
    _set,
    show_constant,
)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Interned(tuple):
    """A value that is one object per key, like an interned string.

    Underneath it is the one-tuple ``(key,)``, so it hashes with tuple's
    C-level hash, to the value a one-field Frozen record gives, and
    orders by its key.  Equality is identity: it equals no plain tuple.
    Each subclass keeps its own ``_instances`` table, key -> instance;
    the instances are immutable, so every analysis shares them.
    """

    __slots__ = ()

    def __new__(cls, key):
        found = cls._instances.get(key)
        if found is None:
            found = cls._instances[key] = tuple.__new__(cls, (key,))
        return found

    __hash__ = tuple.__hash__

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    def __reduce__(self):
        return (type(self), (self[0],))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._field}={self[0]})"


class Location(Interned):
    """A store location, one object per index."""

    __slots__ = ()
    _instances: dict = {}
    _field = "index"
    index = property(itemgetter(0))

    def __str__(self) -> str:
        return f"loc{self[0]}"


class Closure(Record):
    __match_args__ = ("param", "body", "env", "lam_point")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only when identical
    def __init__(self, param: str, body: Occurrence, env: dict, lam_point: int):
        self.param = param
        self.body = body
        self.env = env
        self.lam_point = lam_point

    def __str__(self) -> str:
        return f"<fun@{self.lam_point}>"


class RecClosure(Closure):
    __match_args__ = ("param", "body", "env", "lam_point", "name", "bind_point")
    def __init__(self, param: str, body: Occurrence, env: dict, lam_point: int, name: str = "", bind_point: int = 0):
        super().__init__(param, body, env, lam_point)
        self.name = name
        self.bind_point = bind_point

    def __str__(self) -> str:
        return f"<rec {self.name}@{self.lam_point}>"


def show_value(value: object) -> str:
    if isinstance(value, (Location, Closure)):
        return str(value)
    if isinstance(value, int) or value == ():
        return show_constant(value)
    return repr(value)


# ---------------------------------------------------------------------------
# Dependency pairs and the collected state
# ---------------------------------------------------------------------------


class DepPair(Frozen):
    """A set of location occurrences and a set of variable occurrences.

    Members are (subject, point) tuples; subjects in ``locs`` are
    Location values, subjects in ``vars`` are variable names.  ``pts``
    is the bitset of the points the atoms name, in the run's numbering,
    and ``bits`` of the ``vars`` atoms, in the atom table the run was
    given; each is None for a pair built elsewhere (``bits`` also in a
    run given no table) and takes no part in equality, hashing or output.
    """

    __slots__ = __match_args__ = ("locs", "vars", "pts", "bits")
    _compared = ("locs", "vars")
    def __init__(self, locs: frozenset = frozenset(), vars: frozenset = frozenset(), pts=None, bits=None):
        _set(self, "locs", locs)
        _set(self, "vars", vars)
        _set(self, "pts", pts)
        _set(self, "bits", bits)

    def union(self, other: "DepPair") -> "DepPair":
        pts = None if self.pts is None or other.pts is None else self.pts | other.pts
        bits = None if self.bits is None or other.bits is None else self.bits | other.bits
        return DepPair(self.locs | other.locs, self.vars | other.vars, pts, bits)


EMPTY_PAIR = DepPair(pts=0, bits=0)


class Order:
    """Points numbered by an index, and an order over them as bitsets
    (Agrawal, Borgida & Jagadish, SIGMOD 1989).

    A point's bit is its position in ``index`` (point to position, 0 to
    n - 1 each once; ``at`` is the inverse), and ``bit`` gives a point
    outside it the next free position.  ``into`` keeps the order once:
    each point with an edge into it, to the bitset of its sources.
    """

    def __init__(self, index: dict | None = None):
        self.index: dict = dict(index or ())
        self.at: list = sorted(self.index, key=self.index.get)
        self.into: dict = {}

    def bit(self, point: int) -> int:
        position = self.index.get(point)
        if position is None:
            position = self.index[point] = len(self.at)
            self.at.append(point)
        return 1 << position

    def points_of(self, bits: int) -> list:
        points = []  # lowest position first
        while bits:
            low = bits & -bits
            points.append(self.at[low.bit_length() - 1])
            bits ^= low
        return points

    @property
    def edges(self) -> frozenset:
        return frozenset((before, after) for after, bits in self.into.items() for before in self.points_of(bits))

    def walk(self, bits: int, stop: int = 0) -> int:
        """The bits of the points some path leads from to a point in
        ``bits``, walked backwards over ``into`` and not past ``stop``."""

        into, at = self.into, self.at
        reached, todo = 0, bits
        while todo:
            low = todo & -todo
            new = into.get(at[low.bit_length() - 1], 0) & ~reached
            reached, todo = reached | new, (todo ^ low) | (new & ~stop)
        return reached


class DepState(Order):
    """The function w plus the realized order on program points, numbered
    by ``index`` when one is given, such as Pi's.  ``_points`` keeps the
    bitset of each subject's binding points.

    Every edge a binding adds ends at the binding point, so adding one
    cannot open a path out of that point.  A point no edge starts from
    yet, which is every point a typed program binds, takes its new
    sources in one OR.  A point some edge starts from, which only untyped
    recursion revisiting it can give, gets no edge from a new source it
    reaches, since each would close a cycle: one walk back from each
    source tells.
    """

    def __init__(self, index: dict | None = None):
        super().__init__(index)
        self.w: dict = {}
        self.latest: dict = {}
        self.numbered_by = index
        self._points: dict = {}
        self._tails = 0  # the points some edge starts from

    # -- bindings --------------------------------------------------------------

    def bind(self, subject, point: int, pair: DepPair, incoming, threading: bool = True):
        # the sources: the pair's points, the threading and chaining points
        bit = self.bit
        sources = pair.pts
        if sources is None:  # a pair built outside the run: the OR of its atoms' bits
            sources = sum({bit(pt) for _, pt in pair.locs | pair.vars})
        if threading and incoming is not None:
            sources |= bit(incoming)
        previous = self.latest.get(subject)
        if previous is not None:
            sources |= bit(previous)
        here = bit(point)
        known = self.into.get(point, 0)
        sources &= ~(here | known)  # only a new edge can close a cycle
        if sources and self._tails & here:  # a source the point reaches would close a cycle
            sources &= ~sum(low for low in map(bit, self.points_of(sources)) if self.walk(low) & here)
        if sources:
            self.into[point] = known | sources
            self._tails |= sources
        key = (subject, point)
        if key in self.w:
            self.w[key] = self.w[key].union(pair)
        else:
            self.w[key] = pair
            self._points[subject] = self._points.get(subject, 0) | here
        self.latest[subject] = point

    def bound_bits(self, subject) -> int:
        return self._points.get(subject, 0)

    def bound_points(self, subject) -> frozenset:
        return frozenset(self.points_of(self._points.get(subject, 0)))

    def ip(self, subject):
        """The subject's latest binding point, or None when it was never
        bound.  Chaining edges make it the order-greatest binding point
        unless a revisit dropped its chaining edge; ``ip_sem`` finds the
        greatest one in every case.
        """

        return self.latest.get(subject)

    def subjects(self) -> frozenset:
        return frozenset(self.latest)


def w_key(item) -> tuple:
    """The order w's items are shown in: by point, then by subject text."""

    (subject, point), _ = item
    return (point, str(subject))


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class EvalError(Exception):
    """A run-time failure; ``steps`` is how many steps the run had taken."""

    def __init__(self, message: str, point: int):
        super().__init__(f"{message} (at point {point})")
        self.point = point
        self.steps = 0


class UnboundVariable(EvalError):
    def __init__(self, name: str, point: int):
        super().__init__(f"unbound variable {name!r}", point)
        self.name = name


class NotAFunction(EvalError):
    def __init__(self, value, point: int):
        super().__init__(f"cannot apply non-function {show_value(value)}", point)


class NotAReference(EvalError):
    def __init__(self, value, point: int):
        super().__init__(f"expected a reference, found {show_value(value)}", point)


class MatchFailure(EvalError):
    def __init__(self, value, point: int):
        super().__init__(f"no pattern matches {show_value(value)}", point)


class UnsupportedPattern(EvalError):
    def __init__(self, point: int):
        super().__init__("unsupported pattern form", point)


class AmbiguousPredecessor(EvalError):
    def __init__(self, subject, points, point: int = 0):
        super().__init__(
            f"no unique greatest binding of {subject} among points {sorted(points)}", point
        )
        self.subject = subject
        self.points = frozenset(points)


class PrimTypeError(EvalError):
    def __init__(self, op: str, point: int):
        super().__init__(f"operator {op!r} applied to unsuitable operands", point)


class EvalBudgetExceeded(EvalError):
    def __init__(self, budget: int, point: int):
        super().__init__(f"evaluation exceeded the step budget of {budget}", point)
        self.budget = budget


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


def match(pattern: Pattern, value, point: int = 0) -> dict | None:
    """The bindings a successful match produces, or None on mismatch.

    Tuple patterns are rejected outright: the expression language has no
    tuple constructor, so no value could ever match one.
    """

    kind = type(pattern)
    if kind is PNat:
        return {} if isinstance(value, int) and not isinstance(value, bool) and value == pattern.value else None
    if kind is PBool:
        return {} if isinstance(value, bool) and value == pattern.value else None
    if kind is PVar:
        return {pattern.name: value}
    if kind is PWildcard:
        return {}
    if kind is PTuple:
        raise UnsupportedPattern(point)
    raise TypeError(f"unknown pattern {pattern!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class EvalOutcome(Record):
    __match_args__ = ("value", "pair", "dep", "store", "steps", "loc_origin")
    def __init__(self, value, pair: DepPair, dep: DepState, store: dict, steps: int, loc_origin: dict | None = None):
        self.value = value
        self.pair = pair
        self.dep = dep
        self.store = store
        self.steps = steps
        self.loc_origin = {} if loc_origin is None else loc_origin


_ARITHMETIC = {"+": int.__add__, "-": int.__sub__, "*": int.__mul__, "<": int.__lt__}


def _apply_prim(op: str, left, right, point: int):
    def nat(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is not None:
        if not (nat(left) and nat(right)):
            raise PrimTypeError(op, point)
        return arithmetic(left, right)
    if op == "=":
        comparable = (nat(left) and nat(right)) or (
            isinstance(left, bool) and isinstance(right, bool)
        ) or (left == () and right == () and isinstance(left, tuple) and isinstance(right, tuple))
        if not comparable:
            raise PrimTypeError(op, point)
        return left == right
    if op in ("&&", "||"):
        if not (isinstance(left, bool) and isinstance(right, bool)):
            raise PrimTypeError(op, point)
        return (left and right) if op == "&&" else (left or right)
    raise PrimTypeError(op, point)


class _Evaluator:
    def __init__(self, budget: int, on_step, tamper, index, atoms):
        self.store: dict = {}
        self.dep = DepState(index)
        self.atoms = atoms
        self.steps = 0
        self.budget = budget
        self.on_step = on_step
        self.tamper = tamper
        self.next_location = 0
        self.loc_origin: dict = {}

    def run(self, occ: Occurrence):
        try:
            return self.eval(occ, {}, None)
        except EvalError as err:
            err.steps = self.steps
            raise

    def bind(self, subject, point, value, pair, incoming, threading=True):
        self.dep.bind(subject, point, pair, incoming, threading)
        if self.on_step is not None:
            self.on_step("bind", subject, point, value, pair, self.dep)

    def eval(self, occ: Occurrence, env: dict, incoming):
        self.steps += 1
        if self.steps > self.budget:
            raise EvalBudgetExceeded(self.budget, occ.point)
        on_step = self.on_step
        if on_step is not None:
            on_step("begin", occ, env, None, None, self.dep)
        expr = occ.expr
        try:
            rule = _EVAL_RULES[type(expr)]
        except KeyError:
            raise TypeError(f"unknown expression {expr!r}") from None
        value, pair = rule(self, expr, occ.point, env, incoming)
        if self.tamper is not None:
            swapped = self.tamper(occ, value, pair)
            if swapped is not None:
                value, pair = swapped
        if on_step is not None:
            on_step("end", occ, env, value, pair, self.dep)
        return value, pair

    # -- the rules, one per expression class; each returns (value, pair) --

    def _constant(self, expr: Constant, p: int, env: dict, incoming):
        return expr.value, EMPTY_PAIR

    def _variable(self, expr: Variable, p: int, env: dict, incoming):
        name = expr.name
        if name not in env:
            raise UnboundVariable(name, p)
        value, bind_point = env[name]
        looked_up = self.dep.w.get((name, bind_point), EMPTY_PAIR)
        atom = (name, p)
        pts = None if looked_up.pts is None else looked_up.pts | self.dep.bit(p)
        bits = None if looked_up.bits is None or self.atoms is None else looked_up.bits | self.atoms.bit(atom)
        return value, DepPair(looked_up.locs, looked_up.vars | {atom}, pts, bits)

    def _abstraction(self, expr: Abstraction, p: int, env: dict, incoming):
        return Closure(expr.param, expr.body, env, lam_point=p), EMPTY_PAIR

    def _let(self, expr: Let | LetRec, p: int, env: dict, incoming):
        name, bound = expr.name, expr.bound
        bound_value, bound_pair = self.eval(bound, env, incoming)
        bind_point = bound.point
        # a let rec ties the knot when its bound is an abstraction; else it is a plain let
        if type(expr) is LetRec and type(bound.expr) is Abstraction and isinstance(bound_value, Closure):
            closure = bound_value
            bound_value = RecClosure(closure.param, closure.body, closure.env, closure.lam_point, name, bind_point)
        self.bind(name, bind_point, bound_value, bound_pair, incoming)
        inner_env = {**env, name: (bound_value, bind_point)}
        return self.eval(expr.body, inner_env, bind_point)

    def _application(self, expr: Application, p: int, env: dict, incoming):
        fn, arg = expr.fn, expr.arg
        fn_value, fn_pair = self.eval(fn, env, incoming)
        arg_value, arg_pair = self.eval(arg, env, fn.point)
        if not isinstance(fn_value, Closure):
            raise NotAFunction(fn_value, p)
        bind_point = arg.point
        self.bind(fn_value.param, bind_point, arg_value, arg_pair, incoming)
        call_env = dict(fn_value.env)
        if isinstance(fn_value, RecClosure):
            call_env[fn_value.name] = (fn_value, fn_value.bind_point)
        call_env[fn_value.param] = (arg_value, bind_point)
        body_value, body_pair = self.eval(fn_value.body, call_env, bind_point)
        return body_value, fn_pair.union(body_pair)

    def _primitive(self, expr: FunctionalApplication, p: int, env: dict, incoming):
        left_value, left_pair = self.eval(expr.left, env, incoming)
        right_value, right_pair = self.eval(expr.right, env, expr.left.point)
        return _apply_prim(expr.op, left_value, right_value, p), left_pair.union(right_pair)

    def _ref(self, expr: Ref, p: int, env: dict, incoming):
        init_value, init_pair = self.eval(expr.init, env, incoming)
        location = Location(self.next_location)
        self.next_location += 1
        self.store[location] = init_value
        self.loc_origin[location] = p
        self.bind(location, p, init_value, init_pair, incoming)
        return location, init_pair

    def _assign(self, expr: Assign, p: int, env: dict, incoming):
        target = expr.target
        target_value, target_pair = self.eval(target, env, incoming)
        written_value, written_pair = self.eval(expr.value, env, target.point)
        if not isinstance(target_value, Location):
            raise NotAReference(target_value, p)
        self.store[target_value] = written_value
        self.bind(target_value, p, written_value, written_pair, incoming, threading=False)
        return (), target_pair

    def _deref(self, expr: Deref, p: int, env: dict, incoming):
        ref_value, ref_pair = self.eval(expr.ref, env, incoming)
        if not isinstance(ref_value, Location) or ref_value not in self.store:
            raise NotAReference(ref_value, p)
        content = self.store[ref_value]
        current = self.dep.ip(ref_value)
        stored_pair = self.dep.w.get((ref_value, current), EMPTY_PAIR)
        read = ref_pair.union(stored_pair)
        pts = None if read.pts is None else read.pts | self.dep.bit(current)
        return content, DepPair(read.locs | {(ref_value, current)}, read.vars, pts, read.bits)

    def _case(self, expr: Case, p: int, env: dict, incoming):
        scrutinee = expr.scrutinee
        scrut_value, scrut_pair = self.eval(scrutinee, env, incoming)
        for pattern, clause in zip(expr.patterns, expr.clauses):
            bindings = match(pattern, scrut_value, p)
            if bindings is None:
                continue
            branch_env = env
            bind_point = scrutinee.point
            for name, bound_value in bindings.items():
                self.bind(name, bind_point, bound_value, scrut_pair, incoming)
                branch_env = {**branch_env, name: (bound_value, bind_point)}
            branch_value, branch_pair = self.eval(clause, branch_env, bind_point)
            return branch_value, branch_pair.union(scrut_pair)
        raise MatchFailure(scrut_value, p)


# exact classes: no expression class has subclasses
_EVAL_RULES = {
    Constant: _Evaluator._constant,
    Variable: _Evaluator._variable,
    Abstraction: _Evaluator._abstraction,
    Group: lambda self, expr, p, env, incoming: self.eval(expr.inner, env, incoming),
    Let: _Evaluator._let,
    LetRec: _Evaluator._let,
    Application: _Evaluator._application,
    FunctionalApplication: _Evaluator._primitive,
    Ref: _Evaluator._ref,
    Assign: _Evaluator._assign,
    Deref: _Evaluator._deref,
    Case: _Evaluator._case,
}


def evaluate(
    program: Occurrence,
    *,
    budget: int = 1_000_000,
    on_step=None,
    tamper=None,
    index: dict | None = None,
    atoms: Order | None = None,
) -> EvalOutcome:
    """Run the program and collect w, the realized order, and the result
    pair; ``index`` numbers the order's points (see ``DepState``), and
    ``atoms``, when given, the variable atoms of the pairs' ``bits``."""

    machine = _Evaluator(budget, on_step, tamper, index, atoms)
    value, pair = machine.run(program)
    return EvalOutcome(
        value=value,
        pair=pair,
        dep=machine.dep,
        store=machine.store,
        steps=machine.steps,
        loc_origin=machine.loc_origin,
    )


def ip_sem(subject, dep: DepState):
    """The interpretation of a subject: its order-greatest binding atom.

    Returns (subject, point) for the unique greatest binding point of the
    subject in dom(w), or None when the subject was never bound.  The
    order is acyclic (``bind`` drops every edge that would close a cycle),
    so a binding point is below another exactly when one backward walk
    over ``into``, from the bits of all binding points, reaches it.  The
    candidates it does not reach are the tops; no unique top means the
    order is ambiguous for the subject.
    """

    candidates = dep.bound_bits(subject)
    if not candidates:
        return None
    tops = candidates
    if candidates & (candidates - 1):
        tops &= ~dep.walk(candidates, stop=candidates)
        if tops & (tops - 1) or not tops:
            raise AmbiguousPredecessor(subject, dep.bound_points(subject))
    return (subject, dep.points_of(tops)[0])
