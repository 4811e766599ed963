"""The differential soundness oracle and its program generator.

The oracle runs the static pipeline and the collecting evaluator on the
same program and checks, step by step, that the static artifacts
over-approximate what the run actually did.  The verdict is split into
six clauses:

* dependency: every runtime dependency pair is covered by the
  corresponding static dependency set;
* alias: locations are covered by internal variables of the typing, and
  the names a location is reachable under sit inside one alias block;
* type: runtime values inhabit their static types;
* environment: every live binding has a typed counterpart;
* order: the realized point order is contained in the approximated one;
* ip: the run's interpretation of each location is unique, and some
  internal variable of the typing covers the location.

A report carries one verdict per clause with witnesses on failure plus
an activity counter saying how often the clause actually had something
to check, so a fuzz campaign can tell vacuous passes from real ones.

What the judge pays follows what is new or failing.  An event is one
plain call (``semantics`` gives the protocol).  Checks that pass are
counted in bulk and format nothing; witnesses, and the text saying
where, are built, sorted, only for failures.  The run's atoms are bits
of the analysis's table, so a dependency pair costs one mask for its
variable atoms and one per distinct location; an end event with an
empty pair and a value that is not a location costs no more than its
call.  The
environment is checked per binding: a bind event records its (name,
point) pair, which is checked once, at the first end event whose
environment holds it, and a location's holders are read off the pairs
bound to it, so no environment is scanned whole.  The store is checked
per write, at the first end event after it.  The run keeps its order
in a ``semantics.Order`` numbered by Pi's own index, so the realized
order costs one mask per bound point against Pi's ancestor bitsets,
once the run ends.
Alias blocks are read off the checking walk's merges; a subject no
merge touches is its own block.
"""

from __future__ import annotations

import random

from .semantics import (
    Closure,
    DepPair,
    DepState,
    EvalBudgetExceeded,
    EvalError,
    Location,
    evaluate,
    ip_sem,
)
from .syntax import Occurrence, Record, occurs_free, parse
from .typesys import (
    Analysis,
    Arrow,
    Base,
    IVar,
    Type,
    show_atom,
    show_type,
    subject_key,
    type_dict,
    type_value,
    typecheck,
)


CLAUSES = ("dependency", "alias", "type", "environment", "order", "ip")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class ClauseVerdict(Record):
    __slots__ = __match_args__ = ("activity", "witnesses")
    def __init__(self, activity: int = 0, witnesses: tuple = ()):
        self.activity = activity
        self.witnesses = witnesses  # the first five failures; the first always lands

    @property
    def holds(self) -> bool:
        return not self.witnesses

    def check(self, ok: bool, witness: str):
        self.activity += 1
        if not ok:
            self.fail(witness)

    def fail(self, witness: str):
        """Record a failure; the caller has counted it in ``activity``."""

        if len(self.witnesses) < 5:
            self.witnesses += (witness,)

    def to_dict(self) -> dict:
        return {"holds": self.holds, "activity": self.activity, "witnesses": list(self.witnesses)}


class AgreementReport(Record):
    __slots__ = __match_args__ = ("outcome", "clauses", "binding_lemma", "steps", "note")
    def __init__(self, outcome: str = "pass", clauses=None, binding_lemma=None, steps: int = 0, note: str = ""):
        self.outcome = outcome  # pass | fail | inconclusive
        self.clauses = {name: ClauseVerdict() for name in CLAUSES} if clauses is None else clauses
        self.binding_lemma = ClauseVerdict() if binding_lemma is None else binding_lemma
        self.steps = steps
        self.note = note

    @property
    def verdict(self) -> bool:
        return self.outcome == "pass"

    def settle(self):
        if self.outcome == "inconclusive":
            return self
        failed = [name for name in CLAUSES if not self.clauses[name].holds]
        if not self.binding_lemma.holds:
            failed.append("binding_lemma")
        self.outcome = "fail" if failed else "pass"
        return self

    def failed_clauses(self) -> tuple:
        return tuple(name for name in CLAUSES if not self.clauses[name].holds)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "steps": self.steps,
            "note": self.note,
            "binding_lemma": self.binding_lemma.to_dict(),
            "clauses": {name: verdict.to_dict() for name, verdict in sorted(self.clauses.items())},
        }


# ---------------------------------------------------------------------------
# Small helpers over runtime state
# ---------------------------------------------------------------------------


def _place(where) -> str:
    """A witness's opening: ``where`` is the point of the end event that
    checked, or (that point, location, write point) for the content of a
    write."""

    if isinstance(where, int):
        return f"point {where}"
    point, location, current = where
    return f"point {point}: {location}@{current}"


# ---------------------------------------------------------------------------
# The step-by-step judge
# ---------------------------------------------------------------------------


class _Judge:
    """Applies the clauses to events as a run unfolds.

    Besides per-program indices it keeps only what the bind events
    announced: the (name, binding point) pairs no end event has checked
    yet, the pairs bound to each location, which give its holders, the
    names bound so far, and the writes since the store was last checked.

    Each bind of a name counts the frames on the stack as the binding
    lemma's checks, but tests them, with ``occurs_free`` in stack order,
    only when (a) the walk's binding sites name a binder twice, (b) this
    run has bound the name before, or (c) the tamper has returned a
    closure in place of another value.  No other check can fail.  The
    program is closed, so without (a) a frame where the name is free lies
    in the scope of the binder binding it now.  A scope is entered only
    after its binder binds (a let rec's bound, evaluated first, has ended
    by then), or through a closure that an abstraction inside the scope
    made, after that.  So the name was bound before, which is (b), unless
    the closure was forged, which is (c).  Re-entering a running body,
    which the type system rejects (``RecursiveApplication``), binds again
    too.
    """

    def __init__(self, analysis: Analysis, report: AgreementReport):
        self.gamma = analysis.gamma
        self.pi = analysis.pi
        self.type_of = analysis.type_of
        self.atoms = analysis.atoms
        self.report = report
        self.clauses = report.clauses
        # per-program indices, built once: Γ is complete before the run starts
        self.ivars = tuple(sorted((s for s in self.gamma.subjects() if isinstance(s, IVar)), key=subject_key))
        self.blocks = dict(analysis.alias_blocks)  # singletons join on first use
        self._masks: dict = {}  # a block, or IVar -> the bits of its subjects' atoms
        names = [name for name, _ in analysis.binding_sites]
        self.scan_all = len(set(names)) < len(names)  # (a), and (c) once a tamper forges
        self._names: set = set()  # (b): the names bound so far
        self.stack: list = []  # the occurrences being evaluated, outermost first
        self.env: dict = {}  # the environment of the latest end event
        self._locations: dict = {}  # location atoms -> their distinct locations
        self._holding: dict = {}  # location -> (name, binding point) pairs bound to it
        self._unchecked: set = set()  # (name, binding point) pairs no end event checked
        self._checked: set = set()
        self._written: dict = {}  # location -> (point, content) of its latest unchecked write
        self._checked_writes: set = set()
        self._typed: tuple = (None, {})  # a DepState, and in its numbering Γ's points per ivar

    # -- caches -----------------------------------------------------------------

    def holders(self, location: Location) -> tuple:
        """The sorted names holding the location in the current environment."""

        env = self.env
        return tuple(sorted(
            name for name, point in self._holding.get(location, ()) if env.get(name) == (location, point)
        ))

    def block(self, subject) -> frozenset:
        found = self.blocks.get(subject)
        if found is None:
            found = self.blocks[subject] = frozenset((subject,))
        return found

    def mask(self, key, keep) -> int:
        found = self._masks.get(key)
        if found is None:
            found = self._masks[key] = self.atoms.mask(keep)
        return found

    def covering(self, dep: DepState, location: Location, candidates) -> tuple:
        """Internal variables whose typing covers every binding point of the
        location: for each p with (location, p) in dom(w), (vx, p) in dom(Γ).
        One mask per candidate; distinct points have distinct bits, so the
        sum of a variable's Γ point bits is their OR.  A location with no
        binding point, which no ``ref`` allocated, has no cover."""

        if self._typed[0] is not dep:
            self._typed = (dep, {})
        typed, bound = self._typed[1], dep.bound_bits(location)
        if not bound:
            return ()
        for internal in candidates:
            if internal not in typed:
                typed[internal] = sum(map(dep.bit, self.gamma.bound_points(internal)))
        return tuple(internal for internal in candidates if not bound & ~typed[internal])

    def locations(self, locs: frozenset) -> tuple:
        found = self._locations.get(locs)
        if found is None:
            found = self._locations[locs] = tuple({location for location, _ in locs})
        return found

    # -- per-clause primitives -----------------------------------------------

    def dep_agree(self, pair: DepPair, delta: int, where):
        """One check per occurrence in the pair; only the failing ones are
        decoded, sorted and shown.  The variable atoms are one mask against
        delta, a bitset over the same table.  A location atom's verdict
        depends on its location only: held, its holders' block must meet
        delta; unheld, delta must name an internal variable.  Each is one
        mask of delta, with the block's atoms or the internal variables'."""

        clause = self.clauses["dependency"]
        clause.activity += len(pair.vars) + len(pair.locs)
        bits = pair.bits
        if bits is None:  # a pair built outside the run
            bits = sum(set(map(self.atoms.bit, pair.vars)))
        missing = bits & ~delta
        if missing:
            place = _place(where)
            for atom in sorted(self.atoms.points_of(missing)):
                clause.fail(f"{place}: variable occurrence {show_atom(atom)} not in delta")
        if not pair.locs:
            return
        uncovered: dict = {}  # failing location -> its holders
        for location in self.locations(pair.locs):
            names = self.holders(location)
            if names:
                block = self.block(names[0])
                ok = all(name in block for name in names) and delta & self.mask(block, block.__contains__)
            else:
                ok = delta & self.mask(IVar, lambda subject: isinstance(subject, IVar))
            if not ok:
                uncovered[location] = names
        if not uncovered:
            return
        place = _place(where)
        for location, point in sorted(a for a in pair.locs if a[0] in uncovered):
            names = uncovered[location]
            if names:
                clause.fail(
                    f"{place}: holders {list(names)} of {location}@{point} not in a delta-represented block"
                )
            else:
                clause.fail(
                    f"{place}: no internal-variable occurrence in delta covers unreachable {location}@{point}"
                )

    def alias_agree(self, dep: DepState, location: Location, kappa: frozenset, where):
        clause = self.clauses["alias"]
        kappa_internals = sorted((s for s in kappa if isinstance(s, IVar)), key=subject_key)
        covering = self.covering(dep, location, kappa_internals)
        clause.activity += 1
        if not covering:
            clause.fail(f"{_place(where)}: no internal variable in kappa covers all binding points of {location}")
            return
        holders = self.holders(location)
        clause.activity += 1
        if holders:
            block = self.block(holders[0])
            if not (
                all(name in block for name in holders)
                and any(internal in block for internal in covering)
            ):
                clause.fail(
                    f"{_place(where)}: holders {list(holders)} of {location} share no block with its internal variable"
                )

    def type_agree(self, value, dep: DepState, pair: DepPair, ty: Type, where):
        if isinstance(value, Location):
            if not isinstance(ty, Base):
                shown = show_type(type_dict(ty, self.atoms))
                self.clauses["type"].check(False, f"{_place(where)}: location {value} typed as arrow {shown}")
                return
            self.dep_agree(pair, ty.delta, where)
            self.alias_agree(dep, value, ty.kappa, where)
            return
        self.dep_agree(pair, ty.pending if isinstance(ty, Arrow) else ty.delta, where)

    def check_env(self, env: dict, point: int):
        """The unchecked bindings this environment holds, each once, by name."""

        fresh = [name for name, bind_point in self._unchecked if name in env and env[name][1] == bind_point]
        environment, types = self.clauses["environment"], self.clauses["type"]
        for name in sorted(fresh):
            value, bind_point = env[name]
            self._unchecked.discard((name, bind_point))
            self._checked.add((name, bind_point))
            points = sorted(self.gamma.bound_points(name))
            environment.activity += 1
            if not points:
                environment.fail(f"point {point}: no typing entry mentions {name}")
                continue
            types.activity += 1
            if not any(type_value(value, self.gamma.at(name, pt)) for pt in points):
                types.fail(f"point {point}: value of {name} inhabits none of its recorded types")

    def check_store(self, dep: DepState, point: int):
        """Each (location, write point) once: the writes since the last
        check, by location."""

        written, self._written = self._written, {}
        alias, types = self.clauses["alias"], self.clauses["type"]
        for location in sorted(written):
            current, content = written[location]
            if (location, current) in self._checked_writes:
                continue
            self._checked_writes.add((location, current))
            covering = self.covering(dep, location, self.ivars)
            alias.activity += 1
            if not covering:
                alias.fail(f"point {point}: no internal variable covers the binding points of {location}")
                continue
            internal = covering[0]
            stored_ty = self.gamma.at(internal, current)
            alias.activity += 1
            if stored_ty is None:
                alias.fail(f"point {point}: no typing entry {internal}@{current} matches the newest write")
                continue
            # the entry fuses the content's delta with the location's
            # alias set; the content itself is never reference-typed
            content_ty = Base(stored_ty.delta) if isinstance(stored_ty, Base) else stored_ty
            types.activity += 1
            if not type_value(content, content_ty):
                types.fail(f"point {point}: content of {location} does not inhabit {internal}@{current}")
            written_pair = dep.w.get((location, current), DepPair())
            self.type_agree(content, dep, written_pair, stored_ty, (point, location, current))

    def check_order(self, dep: DepState):
        """One mask per bound point: the run numbered its points by Pi's
        index, so the realized sources of a point that Pi does not place
        before it are ``into[p] & ~anc[p]``; only those are decoded."""

        clause = self.clauses["order"]
        index, anc = self.pi.reach
        if dep.numbered_by is not index:
            raise ValueError("the run's points were not numbered by Pi's index")
        missing = []
        for point, sources in dep.into.items():
            clause.activity += sources.bit_count()
            outside = sources & ~anc.get(point, 0)
            if outside:
                missing.extend((before, point) for before in dep.points_of(outside))
        for edge in sorted(missing):
            clause.fail(f"realized edge {edge} missing from the approximated order")

    def check_ip(self, dep: DepState):
        """Each location's semantic interpretation must be matched by an
        internal variable covering it.  A covering variable is typed at
        every binding point of the location, the semantic point among them,
        and the chain-wise interpretation at a bound point is that point's
        own atom; so the clause holds exactly when some variable covers the
        location (one mask per variable), or fails when ``ip_sem``, one
        backward walk over the run's source bitsets, finds no unique top."""

        clause = self.clauses["ip"]
        for location in sorted(s for s in dep.subjects() if isinstance(s, Location)):
            try:
                atom = ip_sem(location, dep)
            except EvalError as err:
                clause.check(False, f"semantic interpretation of {location}: {err}")
                continue
            if atom is None:
                continue
            _, sem_point = atom
            clause.check(
                bool(self.covering(dep, location, self.ivars)),
                f"{location} interpreted at {sem_point}, not among chain-wise interpretations",
            )

    def watch(self, tamper):
        """``tamper``, setting ``scan_all`` once it returns a closure other
        than the value the run gave the occurrence."""

        def watched(occ, value, pair):
            swapped = tamper(occ, value, pair)
            if swapped is not None and swapped[0] is not value and isinstance(swapped[0], Closure):
                self.scan_all = True
            return swapped

        return watched

    # -- event hook ------------------------------------------------------------

    def on_step(self, kind, occ, env, value, pair, dep):
        """One event of the run, as ``semantics`` calls it; for a bind event
        ``occ`` and ``env`` are the bound subject and its binding point."""

        if kind == "begin":
            self.stack.append(occ)
            return
        if kind == "bind":
            subject, point = occ, env
            if isinstance(subject, Location):
                self._written[subject] = (point, value)
                return
            key = (subject, point)
            if key not in self._checked:
                self._unchecked.add(key)
            if isinstance(value, Location):
                self._holding.setdefault(value, set()).add(key)
            lemma = self.report.binding_lemma
            lemma.activity += len(self.stack)
            if self.scan_all or subject in self._names:
                for frame in self.stack:
                    if occurs_free(subject, frame):
                        lemma.fail(f"{subject} bound during evaluation of point {frame.point} where it is free")
            self._names.add(subject)
            return
        # end event
        if self.stack:
            self.stack.pop()
        point = occ.point
        ty = self.type_of.get(point)
        if ty is None:
            self.clauses["type"].check(False, f"point {point} was evaluated but never typed")
            return
        if isinstance(value, Location) and not isinstance(ty, Base):
            shown = show_type(type_dict(ty, self.atoms))
            self.clauses["type"].check(False, f"point {point}: location typed as arrow {shown}")
            return
        self.env = env
        if isinstance(value, Location):
            self.type_agree(value, dep, pair, ty, point)
        elif pair.vars or pair.locs:  # an empty pair has nothing to check
            self.dep_agree(pair, ty.pending if isinstance(ty, Arrow) else ty.delta, point)
        if self._unchecked:
            self.check_env(env, point)
        if self._written:
            self.check_store(dep, point)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def check_soundness(
    program: Occurrence,
    *,
    budget: int = 1_000_000,
    mutation: str | None = None,
    tamper=None,
) -> AgreementReport:
    """Differential run: static pipeline vs collecting evaluation.

    Typing rejections propagate as TypeCheckError; a budget overrun
    makes the report inconclusive; any other runtime error on a program
    the checker accepted is reported as a failure outright.
    """

    analysis = typecheck(program, mutation)
    report = AgreementReport()
    judge = _Judge(analysis, report)
    if tamper is not None:
        tamper = judge.watch(tamper)
    try:
        outcome = evaluate(
            program, budget=budget, on_step=judge.on_step, tamper=tamper,
            index=analysis.pi.index, atoms=analysis.atoms,
        )
    except EvalBudgetExceeded:
        report.outcome = "inconclusive"
        report.note = f"evaluation exceeded {budget} steps"
        report.steps = budget
        return report
    except EvalError as err:
        report.outcome = "fail"
        report.note = f"runtime error on an accepted program: {err}"
        report.steps = err.steps
        return report
    report.steps = outcome.steps
    report.clauses["type"].check(
        type_value(outcome.value, analysis.result_type, outcome.loc_origin),
        "result value does not inhabit the result type",
    )
    judge.check_order(outcome.dep)
    judge.check_ip(outcome.dep)
    return report.settle()


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------


_NAT = "nat"
_BOOL = "bool"
_UNIT = "unit"


def _ref(kind):
    return ("ref", kind)


def _is_ref(kind) -> bool:
    return isinstance(kind, tuple) and kind[0] == "ref"


class _Gen:
    """Budget-driven generator of closed, well-typed, terminating programs."""

    def __init__(self, rng: random.Random, size: int):
        self.rng = rng
        self.budget = max(1, size)
        self.counter = 0

    def fresh(self) -> str:
        letters = "abcdgkmnqrstu"
        name = f"{letters[self.counter % len(letters)]}{self.counter}"
        self.counter += 1
        return name

    def spend(self, amount: int = 1):
        self.budget -= amount

    def vars_of(self, scope: tuple, kind) -> list:
        return [name for name, k in scope if k == kind]

    def refs_in(self, scope: tuple) -> list:
        return [(name, k) for name, k in scope if _is_ref(k)]

    def literal(self, kind) -> str:
        if kind == _NAT:
            return str(self.rng.randrange(10))
        if kind == _BOOL:
            return self.rng.choice(["true", "false"])
        if kind == _UNIT:
            return "()"
        inner = kind[1]
        self.spend()
        return f"(ref {self.leaf(inner, ())})"

    def leaf(self, kind, scope: tuple) -> str:
        names = self.vars_of(scope, kind)
        if names and self.rng.random() < 0.7:
            return self.rng.choice(names)
        return self.literal(kind)

    def gen(self, kind, scope: tuple, depth: int) -> str:
        if self.budget <= 0 or depth >= 6:
            return self.leaf(kind, scope)
        choices = ["leaf", "let", "let"]
        if kind in (_NAT, _BOOL):
            choices += ["prim", "case", "case"]
        if _is_ref(kind):
            choices += ["alloc", "alloc"]
        if kind != _UNIT and not _is_ref(kind):
            refs = [name for name, k in scope if k == _ref(kind)]
            if refs:
                choices += ["deref", "deref"]
        if kind == _UNIT and self.refs_in(scope):
            choices += ["assign", "assign", "assign"]
        if self.refs_in(scope):
            choices.append("refcase")
        if depth <= 3:
            choices += ["apply", "letrec"]
        action = self.rng.choice(choices)
        self.spend()
        if action == "leaf":
            return self.leaf(kind, scope)
        if action == "let":
            return self.gen_let(kind, scope, depth)
        if action == "prim":
            return self.gen_prim(kind, scope, depth)
        if action == "case":
            return self.gen_case(kind, scope, depth)
        if action == "alloc":
            refs = self.vars_of(scope, kind)
            if refs and self.rng.random() < 0.5:
                return self.rng.choice(refs)  # alias an existing reference
            return f"(ref {self.gen(kind[1], scope, depth + 1)})"
        if action == "deref":
            refs = [name for name, k in scope if k == _ref(kind)]
            return f"(! {self.rng.choice(refs)})"
        if action == "assign":
            name, ref_kind = self.rng.choice(self.refs_in(scope))
            return f"({name} := {self.gen(ref_kind[1], scope, depth + 1)})"
        if action == "refcase":
            return self.gen_refcase(kind, scope, depth)
        if action == "apply":
            return self.gen_apply(kind, scope, depth)
        return self.gen_letrec(kind, scope, depth)

    def pick_kind(self):
        roll = self.rng.random()
        if roll < 0.4:
            return _NAT
        if roll < 0.6:
            return _BOOL
        if roll < 0.7:
            return _UNIT
        return _ref(_NAT if self.rng.random() < 0.7 else _BOOL)

    def gen_let(self, kind, scope: tuple, depth: int) -> str:
        bound_kind = self.pick_kind()
        name = self.fresh()
        bound = self.gen(bound_kind, scope, depth + 1)
        body = self.gen(kind, scope + ((name, bound_kind),), depth + 1)
        return f"(let {name} {bound} {body})"

    def gen_prim(self, kind, scope: tuple, depth: int) -> str:
        if kind == _NAT:
            op = self.rng.choice(["+", "*"])
            left = self.gen(_NAT, scope, depth + 1)
            right = self.gen(_NAT, scope, depth + 1)
        else:
            op = self.rng.choice(["<", "=", "&&", "||"])
            operand = _NAT if op in ("<", "=") else _BOOL
            left = self.gen(operand, scope, depth + 1)
            right = self.gen(operand, scope, depth + 1)
        return f"({op} {left} {right})"

    def gen_case(self, kind, scope: tuple, depth: int) -> str:
        scrut_kind = self.rng.choice([_NAT, _BOOL])
        scrutinee = self.gen(scrut_kind, scope, depth + 1)
        arms = []
        if scrut_kind == _BOOL:
            arms.append(f"true -> {self.gen(kind, scope, depth + 1)}")
            arms.append(f"false -> {self.gen(kind, scope, depth + 1)}")
        else:
            arms.append(f"{self.rng.randrange(3)} -> {self.gen(kind, scope, depth + 1)}")
            if self.rng.random() < 0.5:
                name = self.fresh()
                inner_scope = scope + ((name, scrut_kind),)
                arms.append(f"{name} -> {self.gen(kind, inner_scope, depth + 1)}")
            else:
                arms.append(f"_ -> {self.gen(kind, scope, depth + 1)}")
        return f"(case {scrutinee} [{', '.join(arms)}])"

    def gen_refcase(self, kind, scope: tuple, depth: int) -> str:
        ref_name, ref_kind = self.rng.choice(self.refs_in(scope))
        name = self.fresh()
        inner_scope = scope + ((name, ref_kind),)
        body = self.gen(kind, inner_scope, depth + 1)
        return f"(case {ref_name} [{name} -> {body}])"

    def gen_apply(self, kind, scope: tuple, depth: int) -> str:
        arg_kind = self.rng.choice([_NAT, _BOOL])
        param = self.fresh()
        body = self.gen(kind, scope + ((param, arg_kind),), depth + 1)
        arg = self.gen(arg_kind, scope, depth + 1)
        if self.rng.random() < 0.5:
            return f"((λ{param}. {body}) {arg})"
        fn = self.fresh()
        return f"(let {fn} (λ{param}. {body}) ({fn} {arg}))"

    def gen_letrec(self, kind, scope: tuple, depth: int) -> str:
        # the bound abstraction never calls itself, so every run terminates
        arg_kind = self.rng.choice([_NAT, _BOOL])
        param = self.fresh()
        fn = self.fresh()
        body = self.gen(kind, scope + ((param, arg_kind),), depth + 1)
        arg = self.gen(arg_kind, scope, depth + 1)
        return f"(let rec {fn} (λ{param}. {body}) ({fn} {arg}))"


def gen_program(seed: int, size: int) -> Occurrence:
    """A deterministic, closed, well-typed, terminating random program."""

    if size < 1:
        raise ValueError("size must be at least 1")
    rng = random.Random(f"{seed}|{size}")
    gen = _Gen(rng, size)
    kind = gen.pick_kind()
    return parse(gen.gen(kind, (), 0))
