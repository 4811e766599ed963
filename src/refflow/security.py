"""Noninterference checking on top of the flow analysis.

Every variable carries a security level, ``high`` or ``low``; names the
labeling does not mention are low.  A program is accepted when nothing a
high variable ever held can reach the binding of a low variable.  The
check runs entirely on analysis output: a low binding is compromised
when the tracked origin set of the expression it binds contains an
occurrence of a high variable.  What flowed through the store is in it
already: the checking walk adds a cell's entry to the origin set of
every read of the cell.

The verdict is computed twice, from two readings of the same data:

* the origin reading takes each low binding's origin set, a bitset over
  the analysis's atoms, and masks it with the bits of the high atoms;
* the chain reading additionally demands that the order relation place
  the high occurrence at or before the low binding: one read of the
  binding point's ancestor bitset in Pi per binding point of low
  binders, then one bit test per high occurrence reaching it.

Origins only ever point backwards, so the two readings must agree; a
discrepancy would mean the analysis produced an origin the order cannot
explain, and the verdict reports it rather than suppressing it.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .syntax import Frozen, Occurrence, _set
from .typesys import Analysis, Base, Type, program_subjects, typecheck

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


def default_labeling(program: Occurrence) -> dict:
    """A deterministic labeling for generated programs: sort every name
    the program binds or leaves free, mark every third high.  Reads the
    syntax only, so rejected programs get a labeling too."""

    names = sorted(s for s in program_subjects(program) if isinstance(s, str))
    return {name: HIGH if index % 3 == 0 else LOW for index, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Flow(Frozen):
    """One witnessed leak: a high occurrence reaching a low binding.

    A flow is two references to pairs it shares with its verdict's other
    flows: the occurrence atom (subject, point) and the binding site
    (binder, point).
    """

    __slots__ = __match_args__ = ("atom", "site")
    def __init__(self, atom: tuple, site: tuple):
        _set(self, "atom", atom)
        _set(self, "site", site)

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
        return show_flow(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "occurrence": self.occurrence,
            "binder": self.binder,
            "binding": self.binding,
        }


def show_flow(flow: dict) -> str:
    """A flow's ``to_dict`` document as ``nifc`` prints it."""

    return "{subject}@{occurrence} reaches binding of {binder} at {binding}".format_map(flow)


class NoninterferenceVerdict(Frozen):
    """The flows one check found, and where its two readings part.

    A high occurrence that reaches a binding point reaches every low
    binder bound there, so the flows are kept factored, as references
    they share: ``sinks`` holds the low sites some flow reaches, by
    binding point and then binder, and ``sources`` one tuple per binding
    point among them, its high atoms by (point, subject).  The flows run
    atom by atom, ordered by (binding point, occurrence point, subject,
    binder); ``missed`` lists the positions of those the chain reading
    did not confirm.  ``flows``, ``chain_flows`` and
    ``formulations_agree`` are derived on each access.
    """

    __slots__ = __match_args__ = ("sinks", "sources", "missed")
    def __init__(self, sinks: tuple = (), sources: tuple = (), missed: tuple = ()):
        _set(self, "sinks", sinks)
        _set(self, "sources", sources)
        _set(self, "missed", missed)

    @property
    def ok(self) -> bool:
        return not self.sinks

    @property
    def flows(self) -> tuple:
        groups = (tuple(sites) for _, sites in groupby(self.sinks, itemgetter(1)))
        return tuple(Flow(atom, site) for sites, atoms in zip(groups, self.sources) for atom in atoms for site in sites)

    @property
    def chain_flows(self) -> tuple:
        flows = self.flows
        if not self.missed:
            return flows
        missed = set(self.missed)
        return tuple(flow for position, flow in enumerate(flows) if position not in missed)

    @property
    def formulations_agree(self) -> bool:
        # the chain reading only ever drops flows of the origin reading
        return not self.missed

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "flows": [flow.to_dict() for flow in self.flows],
            "chain_flows": [flow.to_dict() for flow in self.chain_flows],
            "formulations_agree": self.formulations_agree,
        }


_NO_FLOWS = NoninterferenceVerdict()  # immutable, so every passing check shares it


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------


def expanded_origins(ty: Type) -> int:
    """The origin set of ``ty``, a bitset over the analysis's atoms.

    Nothing needs expanding: a read's delta already holds the cell's
    entry at the read, and the internal-variable atom it adds names the
    read's own point, where Γ binds nothing."""

    return ty.delta if isinstance(ty, Base) else ty.pending


def check_noninterference(program: Occurrence, labeling: dict) -> NoninterferenceVerdict:
    """Accept ``program`` unless a high variable's occurrence can reach
    the binding of a low variable.  Free variables are allowed; they are
    the usual carriers of the high label.

    A binder is a sink when its level is ``low``, an atom a source when
    its subject's level is ``high``.  Sinks that share a binding point
    share its origin set, so the work goes per binding point: the origin
    reading costs one mask of the point's origin set with the high
    atoms' bits and decodes only the sources found; the chain reading
    one bit test per source against the point's ancestor bitset in Pi."""

    analysis: Analysis = typecheck(program, allow_free=True)
    table, type_of = analysis.atoms, analysis.type_of
    high = {name for name, level in labeling.items() if level == HIGH}
    # an internal variable equals no name, so it is never high
    high_bits = table.mask(high.__contains__)
    if not high_bits:  # every atom an origin set names is in the table
        return _NO_FLOWS
    low: dict = {}  # binding point -> its low sites
    for site in analysis.binding_sites:
        if level_of(labeling, site[0]) == LOW:
            low.setdefault(site[1], []).append(site)
    sinks, sources, missed, flows = [], [], [], 0
    for binding in sorted(low):
        found = expanded_origins(type_of[binding]) & high_bits
        if not found:
            continue
        index, anc = analysis.pi.reach
        bits = anc.get(binding, 0)
        group = sorted(low[binding])  # by binder
        atoms = tuple(sorted(table.points_of(found), key=itemgetter(1, 0)))  # by (point, subject)
        for position, (_, pt) in enumerate(atoms):
            if pt != binding and not (pt in index and bits >> index[pt] & 1):
                first = flows + position * len(group)
                missed += range(first, first + len(group))
        flows += len(atoms) * len(group)
        sinks += group
        sources.append(atoms)
    return NoninterferenceVerdict(tuple(sinks), tuple(sources), tuple(missed)) if sinks else _NO_FLOWS


# ---------------------------------------------------------------------------
# Run-time footprints, for validating the static verdict
# ---------------------------------------------------------------------------


def semantic_low_flows(program: Occurrence, labeling: dict, *, budget: int = 1_000_000) -> tuple:
    """Actually run ``program`` and report every high occurrence inside
    the transitive dependency footprint of a low binding.  A passing
    static verdict promises this comes back empty."""

    from .semantics import evaluate, w_key

    outcome = evaluate(program, budget=budget)
    w = outcome.dep.w
    flows: set = set()
    for site, pair in sorted(w.items(), key=w_key):
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
    return tuple(sorted(flows, key=lambda flow: (flow.binding, flow.occurrence, flow.subject, flow.binder)))
