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

What the judge pays per event follows what is new or failing.  Checks
that pass are counted in bulk and format nothing; witnesses are built,
sorted, only for failures.  A dependency pair costs one set difference
for its variable atoms and one decision per distinct location, an
early-exit scan over delta.  The realized order costs one bit test per
edge against Pi's ancestor bitsets, once the run ends.  The
environment and the store are checked only for bindings and writes no
earlier event showed, and an environment seen at the previous event is
skipped outright.  The inverse environment is built at most once per
environment, and only when a location check reads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .semantics import (
    DepPair,
    DepState,
    EvalBudgetExceeded,
    EvalError,
    Location,
    evaluate,
    ip_sem,
)
from .syntax import Occurrence, free_name_table, parse
from .typesys import (
    Analysis,
    Arrow,
    Base,
    IVar,
    Type,
    TypeEnv,
    show_atom,
    subject_key,
    type_value,
    typecheck,
)


CLAUSES = ("dependency", "alias", "type", "environment", "order", "ip")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ClauseVerdict:
    activity: int = 0
    witnesses: tuple = ()  # the first five failures; the first always lands

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


@dataclass(slots=True)
class AgreementReport:
    outcome: str = "pass"  # pass | fail | inconclusive
    clauses: dict = field(default_factory=lambda: {name: ClauseVerdict() for name in CLAUSES})
    binding_lemma: ClauseVerdict = field(default_factory=ClauseVerdict)
    steps: int = 0
    note: str = ""

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
            "binding_lemma": {
                "holds": self.binding_lemma.holds,
                "activity": self.binding_lemma.activity,
                "witnesses": list(self.binding_lemma.witnesses),
            },
            "clauses": {
                name: {
                    "holds": verdict.holds,
                    "activity": verdict.activity,
                    "witnesses": list(verdict.witnesses),
                }
                for name, verdict in sorted(self.clauses.items())
            },
        }


# ---------------------------------------------------------------------------
# Small helpers over runtime state
# ---------------------------------------------------------------------------


def _env_inverse(env: dict) -> dict:
    """Every location the environment holds, with the sorted names holding it."""

    holders: dict = {}
    for name, (value, _) in env.items():
        if isinstance(value, Location):
            holders.setdefault(value, []).append(name)
    return {location: tuple(sorted(names)) for location, names in holders.items()}


def _block_map(alias_base: tuple) -> dict:
    """Each subject of the alias base, with the block it belongs to."""

    return {subject: block for block in alias_base for subject in block}


def _loc_atom_key(atom) -> tuple:
    return (atom[0].index, atom[1])


def _loc_index(location: Location) -> int:
    return location.index


def _covering_ivars(dep: DepState, gamma: TypeEnv, location: Location, candidates) -> tuple:
    """Internal variables whose typing covers every binding point of the
    location: for each p with (location, p) in dom(w), (vx, p) in dom(Γ)."""

    wpoints = dep.bound_points(location)
    return tuple(internal for internal in candidates if wpoints <= gamma.bound_points(internal))


def _gamma_ivars(gamma: TypeEnv) -> tuple:
    return tuple(
        sorted((s for s in gamma.subjects() if isinstance(s, IVar)), key=subject_key)
    )


# ---------------------------------------------------------------------------
# The agreement clauses
# ---------------------------------------------------------------------------


def _dep_agree(clause: ClauseVerdict, pair: DepPair, delta: frozenset, holders, locations,
               blocks: dict, where: str):
    """One check per occurrence in the pair; only the failing ones are
    sorted and shown.  ``holders`` maps a location to the sorted names
    holding it, ``locations`` a set of location atoms to its distinct
    locations.  A location atom's verdict depends on its location only:
    held, its holders' block must meet delta; unheld, delta must mention
    an internal variable.  Each is one scan over delta that stops at the
    first atom deciding it."""

    clause.activity += len(pair.vars) + len(pair.locs)
    for atom in sorted(pair.vars - delta):
        clause.fail(f"{where}: variable occurrence {show_atom(atom)} not in delta")
    if not pair.locs:
        return
    uncovered: dict = {}  # failing location -> its holders
    for location in locations(pair.locs):
        names = holders(location)
        if names:
            block = blocks.get(names[0])
            ok = (
                block is not None
                and all(name in block for name in names)
                and any(subject in block for subject, _ in delta)
            )
        else:
            ok = any(isinstance(subject, IVar) for subject, _ in delta)
        if not ok:
            uncovered[location] = names
    if not uncovered:
        return
    for location, point in sorted((a for a in pair.locs if a[0] in uncovered), key=_loc_atom_key):
        names = uncovered[location]
        if names:
            clause.fail(
                f"{where}: holders {list(names)} of {location}@{point} not in a delta-represented block"
            )
        else:
            clause.fail(
                f"{where}: no internal-variable occurrence in delta covers unreachable {location}@{point}"
            )


# ---------------------------------------------------------------------------
# The step-by-step judge
# ---------------------------------------------------------------------------


class _Judge:
    """Applies the clauses to events as a run unfolds.

    Its caches (the distinct locations of each set of location atoms, the
    inverse of the current environment) live only as long as one run.  It
    searches nothing per event: deltas are scanned, and the realized order
    is tested edge by edge against Pi's ancestor bitsets once the run ends.
    """

    def __init__(self, analysis: Analysis, report: AgreementReport):
        self.analysis = analysis
        self.gamma = analysis.gamma
        self.pi = analysis.pi
        self.report = report
        self.clauses = report.clauses
        # per-program indices, built once: Γ is complete before the run starts
        self.ivars = _gamma_ivars(self.gamma)
        self.blocks = _block_map(analysis.alias_base)
        self.fv_table = free_name_table(analysis.program)
        self.stack: list = []
        self.seen_env: set = set()
        self.seen_store: set = set()
        self._locations: dict = {}  # location atoms -> their distinct locations
        # An environment dict is never changed once evaluation uses it, so
        # one seen again needs neither a new inverse nor a new check.
        self._env: dict | None = None
        self._inverse: dict | None = None  # of self._env, built on first use
        self._checked_env: dict | None = None

    # -- caches -----------------------------------------------------------------

    def holders(self, location: Location) -> tuple:
        """The sorted names holding the location in the current environment."""

        if self._inverse is None:
            self._inverse = _env_inverse(self._env)
        return self._inverse.get(location, ())

    def locations(self, locs: frozenset) -> tuple:
        found = self._locations.get(locs)
        if found is None:
            found = self._locations[locs] = tuple({location for location, _ in locs})
        return found

    # -- per-clause primitives -----------------------------------------------

    def dep_agree(self, pair: DepPair, delta: frozenset, where: str):
        _dep_agree(
            self.clauses["dependency"], pair, delta, self.holders, self.locations,
            self.blocks, where,
        )

    def alias_agree(self, dep: DepState, location: Location, kappa: frozenset, where: str):
        clause = self.clauses["alias"]
        kappa_internals = sorted((s for s in kappa if isinstance(s, IVar)), key=subject_key)
        covering = _covering_ivars(dep, self.gamma, location, kappa_internals)
        clause.activity += 1
        if not covering:
            clause.fail(f"{where}: no internal variable in kappa covers all binding points of {location}")
            return
        holders = self.holders(location)
        clause.activity += 1
        if holders:
            block = self.blocks.get(holders[0])
            ok = (
                block is not None
                and all(name in block for name in holders)
                and any(internal in block for internal in covering)
            )
            if not ok:
                clause.fail(
                    f"{where}: holders {list(holders)} of {location} share no block with its internal variable"
                )
        elif not any(internal in self.blocks for internal in covering):
            clause.fail(f"{where}: covering internal variable of {location} is in no block")

    def type_agree(self, value, dep: DepState, pair: DepPair, ty: Type, where: str):
        if isinstance(value, Location):
            if not isinstance(ty, Base):
                self.clauses["type"].check(False, f"{where}: location {value} typed as arrow {ty}")
                return
            self.dep_agree(pair, ty.delta, where)
            self.alias_agree(dep, value, ty.kappa, where)
            return
        self.dep_agree(pair, ty.pending if isinstance(ty, Arrow) else ty.delta, where)

    def check_env(self, env: dict, where: str):
        """Each binding once: only those no earlier event showed are sorted."""

        if env is self._checked_env:
            return
        self._checked_env = env
        seen = self.seen_env
        fresh = [name for name, (_, bind_point) in env.items() if (name, bind_point) not in seen]
        environment, types = self.clauses["environment"], self.clauses["type"]
        for name in sorted(fresh):
            value, bind_point = env[name]
            seen.add((name, bind_point))
            points = sorted(self.gamma.bound_points(name))
            environment.activity += 1
            if not points:
                environment.fail(f"{where}: no typing entry mentions {name}")
                continue
            types.activity += 1
            if not any(type_value(value, self.gamma.at(name, pt)) for pt in points):
                types.fail(f"{where}: value of {name} inhabits none of its recorded types")

    def check_store(self, sto: dict, dep: DepState, where: str):
        """Each (location, newest write) once: only new ones are sorted."""

        latest, seen = dep.latest, self.seen_store
        fresh = [location for location in sto if (location, latest.get(location)) not in seen]
        alias, types = self.clauses["alias"], self.clauses["type"]
        for location in sorted(fresh, key=_loc_index):
            current = latest.get(location)
            seen.add((location, current))
            covering = _covering_ivars(dep, self.gamma, location, self.ivars)
            alias.activity += 1
            if not covering:
                alias.fail(f"{where}: no internal variable covers the binding points of {location}")
                continue
            if current is None:
                continue
            internal = covering[0]
            stored_ty = self.gamma.at(internal, current)
            alias.activity += 1
            if stored_ty is None:
                alias.fail(f"{where}: no typing entry {internal}@{current} matches the newest write")
                continue
            content = sto[location]
            # the entry fuses the content's delta with the location's
            # alias set; the content itself is never reference-typed
            content_ty = Base(stored_ty.delta) if isinstance(stored_ty, Base) else stored_ty
            types.activity += 1
            if not type_value(content, content_ty):
                types.fail(f"{where}: content of {location} does not inhabit {internal}@{current}")
            written_pair = dep.w.get((location, current), DepPair())
            self.type_agree(content, dep, written_pair, stored_ty, f"{where}: {location}@{current}")

    def check_order(self, dep: DepState):
        """Each realized edge is one bit test against Pi's ancestor bitsets."""

        clause = self.clauses["order"]
        index, anc = self.pi.reach
        missing = []
        for before, afters in dep.successors():
            clause.activity += len(afters)
            bit = 1 << index[before] if before in index else 0
            missing.extend((before, after) for after in afters if not anc.get(after, 0) & bit)
        for edge in sorted(missing):
            clause.fail(f"realized edge {edge} missing from the approximated order")

    def check_ip(self, dep: DepState):
        """Each location's semantic interpretation must be matched by an
        internal variable covering it.  A covering variable is typed at
        every binding point of the location, the semantic point among them,
        and the chain-wise interpretation at a bound point is that point's
        own atom; so the clause holds exactly when some variable covers the
        location, or fails when ``ip_sem`` finds no unique top."""

        clause = self.clauses["ip"]
        for location in sorted(
            (s for s in dep.subjects() if isinstance(s, Location)), key=_loc_index
        ):
            try:
                atom = ip_sem(location, dep)
            except EvalError as err:
                clause.check(False, f"semantic interpretation of {location}: {err}")
                continue
            if atom is None:
                continue
            _, sem_point = atom
            clause.check(
                bool(_covering_ivars(dep, self.gamma, location, self.ivars)),
                f"{location} interpreted at {sem_point}, not among chain-wise interpretations",
            )

    # -- event hook ------------------------------------------------------------

    def on_step(self, event):
        if event.kind == "begin":
            self.stack.append(event.occ.point)
            return
        if event.kind == "bind":
            subject = event.subject
            if isinstance(subject, str):
                lemma = self.report.binding_lemma
                lemma.activity += len(self.stack)
                for frame in self.stack:
                    if subject in self.fv_table.get(frame, ()):
                        lemma.fail(f"{subject} bound during evaluation of point {frame} where it is free")
            return
        # end event
        if self.stack:
            self.stack.pop()
        point = event.occ.point
        ty = self.analysis.type_of.get(point)
        if ty is None:
            self.clauses["type"].check(False, f"point {point} was evaluated but never typed")
            return
        where = f"point {point}"
        if isinstance(event.value, Location) and not isinstance(ty, Base):
            self.clauses["type"].check(False, f"{where}: location typed as arrow {ty}")
            return
        if event.env is not self._env:
            self._env = event.env
            self._inverse = None
        self.type_agree(event.value, event.dep, event.pair, ty, where)
        self.check_env(event.env, where)
        self.check_store(event.store, event.dep, where)


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
    try:
        outcome = evaluate(program, budget=budget, on_step=judge.on_step, tamper=tamper)
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
