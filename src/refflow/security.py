"""Noninterference checking on top of the flow analysis.

Every variable carries a security level, ``high`` or ``low``; names the
labeling does not mention are low.  A program is accepted when nothing a
high variable ever held can reach the binding of a low variable.  The
check runs entirely on analysis output: a low binding is compromised
when the tracked origin set of the expression it binds, expanded
transitively through the internal variables' recorded entries, contains
an occurrence of a high variable.

The verdict is computed twice, from two readings of the same data:

* the origin reading walks the expanded origin set directly;
* the chain reading additionally demands that the order relation place
  the high occurrence at or before the low binding.

Origins only ever point backwards, so the two readings must agree; a
discrepancy would mean the analysis produced an origin the order cannot
explain, and the verdict reports it rather than suppressing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Occurrence
from .typesys import (
    Analysis,
    Arrow,
    Base,
    IVar,
    Pi,
    Type,
    TypeEnv,
    program_subjects,
    typecheck,
)

HIGH = "high"
LOW = "low"
LEVELS = (HIGH, LOW)


# ---------------------------------------------------------------------------
# Labelings
# ---------------------------------------------------------------------------


class LabelingError(ValueError):
    """A labeling file line that is not ``name = high|low``."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_labeling(text: str) -> dict:
    """Read a labeling: one ``name = high|low`` per line, ``#`` comments."""

    labeling: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, level = (part.strip() for part in line.partition("="))
        if eq != "=" or not name or " " in name:
            raise LabelingError(f"expected 'name = level', found {raw.strip()!r}", lineno)
        if level not in LEVELS:
            raise LabelingError(f"level must be one of {LEVELS}, found {level!r}", lineno)
        if name in labeling and labeling[name] != level:
            raise LabelingError(f"{name!r} labeled twice with different levels", lineno)
        labeling[name] = level
    return labeling


def level_of(labeling: dict, name: str) -> str:
    return labeling.get(name, LOW)


def default_labeling(program: Occurrence, stride: int = 3) -> dict:
    """A deterministic labeling for generated programs: sort every name
    the program binds or leaves free, mark every ``stride``-th high.
    Reads the syntax only, so rejected programs get a labeling too."""

    if stride < 1:
        raise ValueError("stride must be positive")
    names = sorted(s for s in program_subjects(program) if isinstance(s, str))
    return {name: HIGH if index % stride == 0 else LOW for index, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Flow:
    """One witnessed leak: a high occurrence reaching a low binding.

    A verdict can hold quadratically many flows, so a flow is two
    references to pairs it shares with its verdict's other flows: the
    occurrence atom (subject, point) and the binding site (binder, point).
    """

    atom: tuple
    site: tuple

    @property
    def subject(self) -> str:
        return self.atom[0]

    @property
    def occurrence(self) -> int:
        return self.atom[1]

    @property
    def binder(self) -> str:
        return self.site[0]

    @property
    def binding(self) -> int:
        return self.site[1]

    def __str__(self) -> str:
        return f"{self.subject}@{self.occurrence} reaches binding of {self.binder} at {self.binding}"

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "occurrence": self.occurrence,
            "binder": self.binder,
            "binding": self.binding,
        }


@dataclass(frozen=True, slots=True)
class NoninterferenceVerdict:
    ok: bool
    flows: tuple
    chain_flows: tuple

    @property
    def formulations_agree(self) -> bool:
        return set(self.flows) == set(self.chain_flows)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "flows": [flow.to_dict() for flow in self.flows],
            "chain_flows": [flow.to_dict() for flow in self.chain_flows],
            "formulations_agree": self.formulations_agree,
        }


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------


def _origins_of(ty: Type) -> frozenset:
    match ty:
        case Base(delta, _):
            return delta
        case Arrow(_, pending):
            return pending
    return frozenset()


def expanded_origins(ty: Type, gamma: TypeEnv, pi: Pi, binding: int) -> frozenset:
    """The origin set of ``ty`` closed transitively through the entries
    of internal variables bound at or before ``binding``."""

    seen = set(_origins_of(ty))
    frontier = list(seen)
    while frontier:
        subject, point = frontier.pop()
        if not isinstance(subject, IVar) or not pi.at_or_before(point, binding):
            continue
        entry = gamma.at(subject, point)
        if entry is None:
            continue
        for atom in _origins_of(entry):
            if atom not in seen:
                seen.add(atom)
                frontier.append(atom)
    return frozenset(seen)


def _flow_key(flow: Flow) -> tuple:
    (subject, occurrence), (binder, binding) = flow.atom, flow.site
    return (binding, occurrence, subject, binder)


def _sorted_flows(flows: set) -> tuple:
    return tuple(sorted(flows, key=_flow_key))


def check_noninterference(program: Occurrence, labeling: dict) -> NoninterferenceVerdict:
    """Accept ``program`` unless a high variable's occurrence can reach
    the binding of a low variable.  Free variables are allowed; they are
    the usual carriers of the high label."""

    analysis: Analysis = typecheck(program, allow_free=True)
    pi = analysis.pi
    flows: set = set()
    chain_flows: set = set()
    for site in analysis.binding_sites:
        binder, binding = site
        if level_of(labeling, binder) != LOW:
            continue
        reach = expanded_origins(analysis.type_of[binding], analysis.gamma, pi, binding)
        for atom in reach:
            subject, point = atom
            if isinstance(subject, IVar) or level_of(labeling, subject) != HIGH:
                continue
            flow = Flow(atom, site)
            flows.add(flow)
            if pi.at_or_before(point, binding):
                chain_flows.add(flow)
    ordered = _sorted_flows(flows)
    return NoninterferenceVerdict(
        ok=not flows,
        flows=ordered,
        chain_flows=ordered if chain_flows == flows else _sorted_flows(chain_flows),
    )


# ---------------------------------------------------------------------------
# Run-time footprints, for validating the static verdict
# ---------------------------------------------------------------------------


def semantic_low_flows(program: Occurrence, labeling: dict, *, budget: int = 1_000_000) -> tuple:
    """Actually run ``program`` and report every high occurrence inside
    the transitive dependency footprint of a low binding.  A passing
    static verdict promises this comes back empty."""

    from .semantics import evaluate

    outcome = evaluate(program, budget=budget)
    w = outcome.dep.w
    flows: set = set()
    for site, pair in sorted(w.items(), key=_w_key):
        binder = site[0]
        if not isinstance(binder, str) or level_of(labeling, binder) != LOW:
            continue
        seen = set(pair.locs) | set(pair.vars)
        frontier = list(seen)
        while frontier:
            atom = frontier.pop()
            recorded = w.get(atom)
            if recorded is None:
                continue
            for reached in set(recorded.locs) | set(recorded.vars):
                if reached not in seen:
                    seen.add(reached)
                    frontier.append(reached)
        for atom in seen:
            if isinstance(atom[0], str) and level_of(labeling, atom[0]) == HIGH:
                flows.add(Flow(atom, site))
    return _sorted_flows(flows)


def _w_key(item):
    (subject, point), _ = item
    return (point, str(subject))
