"""Noninterference tests.

Tags: [DERIVED] hand-computed oracle, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refflow import security
from refflow.security import (
    HIGH,
    LOW,
    Flow,
    LabelingError,
    check_noninterference,
    default_labeling,
    expanded_origins,
    level_of,
    parse_labeling,
    semantic_low_flows,
)
from refflow.syntax import parse
from refflow.typesys import Base, IVar, Pi, atom_key, show_atom, typecheck

import reference
from conftest import DIRECT_FLOW_SRC, INDIRECT_FLOW_SRC, NO_FLOW_SRC
from families import cases_source

H_HIGH = {"h": HIGH}


# ---------------------------------------------------------------------------
# The documented examples
# ---------------------------------------------------------------------------


def test_direct_flow_is_a_violation():
    """[DERIVED] Binding a high variable's value to a low name is
    witnessed as (h@1, binding of l at 2)."""
    verdict = check_noninterference(parse(DIRECT_FLOW_SRC), H_HIGH)
    assert not verdict.ok
    assert verdict.flows == (Flow(("h", 1), ("l", 2)),)
    assert verdict.formulations_agree


def test_constant_binding_passes():
    """[DERIVED] The same shape with a constant has no flow."""
    verdict = check_noninterference(parse(NO_FLOW_SRC), H_HIGH)
    assert verdict.ok and verdict.flows == ()
    assert verdict.formulations_agree


def test_indirect_flow_through_a_cell():
    """[DERIVED] Writing the secret into a reference and reading it
    back is witnessed at the read's binding."""
    verdict = check_noninterference(parse(INDIRECT_FLOW_SRC), H_HIGH)
    assert not verdict.ok
    assert Flow(("h", 4), ("l", 7)) in verdict.flows
    assert verdict.formulations_agree


def test_flows_share_their_atoms_and_sites():
    """[DERIVED] Two low binders each reached by two reads of h: four
    flows, built from two occurrence atoms and two binding sites, and
    read back field by field."""
    prog = parse("(let a (+ (h@1) (h@2))@3 (let b (+ (h@4) a@5)@6 (b@7)@8)@9)@10")
    verdict = check_noninterference(prog, H_HIGH)
    assert [str(flow) for flow in verdict.flows] == [
        "h@1 reaches binding of a at 3",
        "h@2 reaches binding of a at 3",
        "h@1 reaches binding of b at 6",
        "h@2 reaches binding of b at 6",
        "h@4 reaches binding of b at 6",
    ]
    assert len({id(flow.atom) for flow in verdict.flows}) == 3
    assert len({id(flow.site) for flow in verdict.flows}) == 2
    assert verdict.flows[0] == Flow(("h", 1), ("a", 3))
    first = verdict.flows[0]
    assert (first.subject, first.occurrence, first.binder, first.binding) == ("h", 1, "a", 3)


def test_unlabeled_program_trivially_passes():
    """[TRIVIAL] With every name low there is no high source."""
    assert check_noninterference(parse(DIRECT_FLOW_SRC), {}).ok


def test_high_binder_is_not_a_sink():
    """[DERIVED] Flows into a high binder are not violations."""
    prog = parse("(let k (h@1)@2 (k@3)@4)")
    assert check_noninterference(prog, {"h": HIGH, "k": HIGH}).ok


# ---------------------------------------------------------------------------
# Labelings
# ---------------------------------------------------------------------------


def test_parse_labeling_grammar():
    """[TRIVIAL] Comments, blank lines, and spacing are tolerated;
    repeated consistent lines collapse."""
    text = "# inputs\nh = high\n\nl=low\nh = high  # again\n"
    assert parse_labeling(text) == {"h": HIGH, "l": LOW}


def test_parse_labeling_rejects_bad_lines():
    """[TRIVIAL] Bad syntax, bad levels, and conflicts all name their
    line."""
    with pytest.raises(LabelingError) as exc:
        parse_labeling("h high")
    assert exc.value.line == 1
    with pytest.raises(LabelingError):
        parse_labeling("h = secret")
    with pytest.raises(LabelingError) as exc:
        parse_labeling("h = high\nh = low")
    assert exc.value.line == 2


def test_level_default_is_low():
    """[TRIVIAL] Unlabeled names are low."""
    assert level_of({}, "anything") == LOW
    assert level_of({"h": HIGH}, "h") == HIGH


def test_default_labeling_is_deterministic():
    """[TRIVIAL] The generated labeling is a pure function of the
    program and marks every third sorted name high."""
    prog = parse("(let a 1 (let b 2 (let c 3 (let d 4 d))))")
    labeling = default_labeling(prog)
    assert labeling == {"a": HIGH, "b": LOW, "c": LOW, "d": HIGH}


def test_default_labeling_names_every_binder():
    """[DERIVED] The labeling names every binder in the syntax plus the
    free names, without typing the program: the parameter of an
    abstraction that is never applied is named, and a program the
    checker rejects still gets a labeling."""
    assert default_labeling(parse(r"(let f (\x. (ref x)) 1)")) == {"f": HIGH, "x": LOW}
    rejected = parse(r"(let g (\y. y) (! (g h)))")
    assert default_labeling(rejected) == {"g": HIGH, "h": LOW, "y": LOW}


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def test_expansion_pulls_internal_entries():
    """[DERIVED] The read's own origin set holds the written secret h@4,
    which the read took from the cell's entry, beside the cell's internal
    variable at the read; the expanded origins are that set."""
    prog = parse(INDIRECT_FLOW_SRC)
    analysis = typecheck(prog, allow_free=True)
    read_ty = analysis.type_of[7]
    direct = analysis.atoms.points_of(read_ty.delta)
    assert {show_atom(atom) for atom in direct} == {"r@3", "h@4", "r@6", "v2@7"}
    assert expanded_origins(read_ty) == read_ty.delta


def test_expansion_skips_entries_bound_after_the_binding():
    """[DERIVED] The reference closure over a hand-built type: the cell's
    entry at the write (point 5) holds the secret h@4; an origin set
    naming that entry expands through it for a binding at 7, after the
    write, but not for one at 2, before it."""
    analysis = typecheck(parse(INDIRECT_FLOW_SRC), allow_free=True)
    decode = analysis.atoms.points_of
    at_write = Base(analysis.atoms.bit((IVar(2), 5)))
    assert ("h", 4) in decode(analysis.gamma.at(IVar(2), 5).delta)
    after = reference.expanded_origins(at_write, analysis, 7)
    assert ("h", 4) in decode(after)
    before = reference.expanded_origins(at_write, analysis, 2)
    assert set(decode(before)) == {(IVar(2), 5)}


def test_origin_sets_need_no_closing():
    """[DERIVED] Over the first 100 corpus programs, cases(4/8/20) and the
    hand programs, the reference closure through the internal variables'
    entries adds no atom to any type the checker gave, in ``type_of`` or
    in Γ, for a binding at the type's own point or at the last point."""
    from refflow.agreement import gen_program

    sources = [cases_source(n) for n in (4, 8, 20)] + [source for source, _ in HAND_NIFC]
    programs = [gen_program(seed, 1 + seed % 30) for seed in range(100)] + [parse(src) for src in sources]
    types = 0
    for prog in programs:
        analysis = typecheck(prog, allow_free=True)
        typed = [*analysis.type_of.items(), *((key[1], ty) for key, ty in analysis.gamma.entries.items())]
        for point, ty in typed:
            for binding in (point, analysis.pi.final):
                assert reference.expanded_origins(ty, analysis, binding) == expanded_origins(ty)
            types += 1
    assert types > 4_000


# ---------------------------------------------------------------------------
# The chain reading
# ---------------------------------------------------------------------------


def _unordered(program, **kwargs):
    """``typecheck`` with every edge taken out of Pi."""
    analysis = copy.copy(typecheck(program, **kwargs))
    analysis.pi = Pi(analysis.pi.visit, frozenset())
    return analysis


def test_chain_reading_fails_without_an_order(monkeypatch):
    """[DERIVED] With every edge taken out of Pi, no high occurrence
    is at or before a later low binding: the chain reading drops the
    flows the origin reading still finds, and the verdict says the two
    readings disagree."""
    monkeypatch.setattr(security, "typecheck", _unordered)
    verdict = check_noninterference(parse(INDIRECT_FLOW_SRC), H_HIGH)
    assert not verdict.ok
    assert not verdict.formulations_agree
    assert set(verdict.chain_flows) < set(verdict.flows)
    assert Flow(("h", 4), ("l", 7)) not in verdict.chain_flows
    assert verdict.to_dict()["formulations_agree"] is False


# ---------------------------------------------------------------------------
# Pinned verdicts
# ---------------------------------------------------------------------------

# Hand programs with their labelings, one per labeling shape the corpus
# lacks: a free high input, a high binder, a level that is neither high
# nor low (accepted through the API, not by parse_labeling), a function
# parameter and a case pattern as low sinks.
HAND_NIFC = [
    (DIRECT_FLOW_SRC, H_HIGH),
    (NO_FLOW_SRC, H_HIGH),
    (INDIRECT_FLOW_SRC, H_HIGH),
    ("(let r (ref 0) (let _ (r := h) (let l (! r) (+ l h))))", H_HIGH),
    ("(let k h (let l (+ k 1) (let m (+ l h) m)))", {"h": HIGH, "k": HIGH}),
    ("(let m h (let l m (let n (+ l h) n)))", {"h": HIGH, "m": "secret", "n": "secret"}),
    (r"(let f (\x. (+ x 1)) (f h))", H_HIGH),
    ("(let r (ref h) (case (! r) [0 -> 1, y -> (let l (+ y 1) l)]))", H_HIGH),
]


def test_nifc_verdicts_pinned():
    """[DERIVED] The verdicts' JSON and the expanded origin set at every
    low site, on the 1000 corpus programs and cases(4/8/20) under their
    default labelings and on the hand programs, hash to pinned digests."""
    from refflow.agreement import gen_program

    programs = [gen_program(seed, 1 + seed % 30) for seed in range(1000)]
    programs += [parse(cases_source(n)) for n in (4, 8, 20)]
    labeled = [(prog, default_labeling(prog)) for prog in programs]
    labeled += [(parse(source), labeling) for source, labeling in HAND_NIFC]
    verdicts = []
    origins = []
    for prog, labeling in labeled:
        verdicts.append(json.dumps(check_noninterference(prog, labeling).to_dict()))
        analysis = typecheck(prog, allow_free=True)
        for binder, binding in analysis.binding_sites:
            if level_of(labeling, binder) == LOW:
                reach = analysis.atoms.points_of(expanded_origins(analysis.type_of[binding]))
                origins.append([binder, binding, [show_atom(atom) for atom in sorted(reach, key=atom_key)]])
    assert hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()[:16] == "ef9a0908d9c649e4"
    assert hashlib.sha256(json.dumps(origins).encode()).hexdigest()[:16] == "d6f246f0deb69254"


# Two low sinks that share a binding point: the two variable patterns of
# a case, and the parameters of an application whose function has two
# origins (fork.rf as recorded, with a constant argument, and with a
# high one).
FORK_SRC = (Path(__file__).parent / "data" / "fork.rf").read_text(encoding="utf-8")
TIE_NIFC = [
    ("(let k (+ h h) (case k [x -> (+ x 1), y -> y]))", H_HIGH),
    (FORK_SRC, {"r": HIGH}),
    (FORK_SRC.replace("(f 3)", "(f (+ h h))"), {"h": HIGH, "r": HIGH}),
]

FORK_FLOWS = ["r@7 f@5", "r@7 u@19", "r@10 u@19", "r@14 u@19"]
TIE_FLOWS = [
    ["h@3 k@2", "h@4 k@2", "h@3 x@6", "h@3 y@6", "h@4 x@6", "h@4 y@6"],
    FORK_FLOWS,
    FORK_FLOWS + ["h@22 x@21", "h@22 y@21", "h@23 x@21", "h@23 y@21"],
]


def _flow_dict(text: str) -> dict:
    """'h@3 x@6' as ``Flow.to_dict`` gives it."""
    (subject, occurrence), (binder, binding) = (part.split("@") for part in text.split())
    return {"subject": subject, "occurrence": int(occurrence), "binder": binder, "binding": int(binding)}


@pytest.mark.parametrize("case", range(len(TIE_NIFC)))
def test_tie_order_pinned(case):
    """[DERIVED] Flows into sinks that share a binding point are ordered
    by occurrence point, then subject, then binder, so the flows of one
    high occurrence to x and y stay together and two occurrences
    interleave (h@3 to x, h@3 to y, h@4 to x, h@4 to y): the whole
    ``to_dict()``, recorded from the sort over every flow's key."""
    source, labeling = TIE_NIFC[case]
    flows = [_flow_dict(text) for text in TIE_FLOWS[case]]
    expected = {"ok": False, "flows": flows, "chain_flows": flows, "formulations_agree": True}
    assert json.dumps(check_noninterference(parse(source), labeling).to_dict()) == json.dumps(expected)


def _parts(verdict) -> tuple:
    """The flows' atoms and sites and the missed positions, as
    ``reference.check_noninterference`` returns them."""
    flows = verdict.flows
    return tuple(flow.atom for flow in flows), tuple(flow.site for flow in flows), verdict.missed


def test_flow_assembly_matches_the_sort_over_every_key(monkeypatch):
    """[DERIVED] The flows assembled per binding point are the flows one
    sort over every flow's key gives (``atoms``, ``sites`` and ``missed``
    equal) on the 1000 corpus programs and cases(4/8/20/80) under their
    default labelings, the hand programs and the tie programs; and again
    with every edge taken out of Pi, where the chain reading misses
    flows, so the positions in ``missed`` are compared too."""
    from refflow.agreement import gen_program

    programs = [gen_program(seed, 1 + seed % 30) for seed in range(1000)]
    programs += [parse(cases_source(n)) for n in (4, 8, 20, 80)]
    labeled = [(prog, default_labeling(prog)) for prog in programs]
    labeled += [(parse(source), labeling) for source, labeling in HAND_NIFC + TIE_NIFC]
    flows = 0
    for prog, labeling in labeled:
        verdict = check_noninterference(prog, labeling)
        assert _parts(verdict) == reference.check_noninterference(prog, labeling)
        flows += len(verdict.flows)
    assert flows > 8_000

    monkeypatch.setattr(security, "typecheck", _unordered)
    missed = 0
    for prog, labeling in labeled[1000:]:
        verdict = check_noninterference(prog, labeling)
        assert _parts(verdict) == reference.check_noninterference(prog, labeling)
        missed += len(verdict.missed)
    assert missed > 1_000


# ---------------------------------------------------------------------------
# Properties against the run and against wider labelings
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=25))
def test_formulations_agree_on_generated_programs(seed, size):
    """[DERIVED] The origin reading and the chain reading return the
    same flows on generated labeled programs."""
    from refflow.agreement import gen_program

    prog = gen_program(seed, size)
    verdict = check_noninterference(prog, default_labeling(prog))
    assert verdict.formulations_agree


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=25))
def test_static_pass_implies_no_runtime_flow(seed, size):
    """[DERIVED] Whenever the static verdict passes, the run's actual
    dependency footprints carry nothing high into a low binding; when
    it fails, the runtime flows are a subset of the witnessed ones."""
    from refflow.agreement import gen_program

    prog = gen_program(seed, size)
    labeling = default_labeling(prog)
    verdict = check_noninterference(prog, labeling)
    semantic = semantic_low_flows(prog, labeling)
    if verdict.ok:
        assert semantic == ()
    static_pairs = {(f.subject, f.binding) for f in verdict.flows}
    assert {(f.subject, f.binding) for f in semantic} <= static_pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=25))
def test_raising_a_label_preserves_other_flows(seed, size):
    """[DERIVED] Raising one name to high never erases a flow into a
    different binder."""
    from refflow.agreement import gen_program

    prog = gen_program(seed, size)
    labeling = default_labeling(prog)
    verdict = check_noninterference(prog, labeling)
    low_names = sorted(name for name, level in labeling.items() if level == LOW)
    if not low_names:
        return
    raised = low_names[seed % len(low_names)]
    wider = check_noninterference(prog, {**labeling, raised: HIGH})
    kept = {flow for flow in verdict.flows if flow.binder != raised}
    assert kept <= set(wider.flows)
