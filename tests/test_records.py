"""The records' behaviour, pinned: equality, hashing, printing, copying,
pickling, pattern matching and immutability of every record class.

The expected values were recorded from the dataclasses these classes
were first written as.

Tags: [DERIVED] hand-computed oracle, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from refflow.agreement import AgreementReport, ClauseVerdict
from refflow.security import Flow, NoninterferenceVerdict
from refflow.semantics import Closure, DepPair, EvalOutcome, Location, RecClosure
from refflow.syntax import (
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
    PBool,
    PNat,
    PTuple,
    PVar,
    PWildcard,
    Ref,
    Variable,
)
from refflow.typesys import Analysis, Arrow, Base, IVar

X = Occurrence(Variable("x"), 1)
ONE = Occurrence(Constant(1), 2)

# (make, fields, repr): ``make`` builds a fresh instance each call, so
# equality is never identity; ``fields`` is the class's __match_args__.
FROZEN = [
    (lambda: Occurrence(Variable("x"), 1), ("expr", "point"),
     "Occurrence(expr=Variable(name='x'), point=1)"),
    (lambda: Variable("x"), ("name",), "Variable(name='x')"),
    (lambda: Constant(True), ("value",), "Constant(value=True)"),
    (lambda: Constant(()), ("value",), "Constant(value=())"),
    (lambda: Abstraction("y", X), ("param", "body"),
     "Abstraction(param='y', body=Occurrence(expr=Variable(name='x'), point=1))"),
    (lambda: Application(X, ONE), ("fn", "arg"),
     "Application(fn=Occurrence(expr=Variable(name='x'), point=1),"
     " arg=Occurrence(expr=Constant(value=1), point=2))"),
    (lambda: FunctionalApplication("+", X, ONE), ("op", "left", "right"),
     "FunctionalApplication(op='+', left=Occurrence(expr=Variable(name='x'), point=1),"
     " right=Occurrence(expr=Constant(value=1), point=2))"),
    (lambda: Let("z", ONE, X), ("name", "bound", "body"),
     "Let(name='z', bound=Occurrence(expr=Constant(value=1), point=2),"
     " body=Occurrence(expr=Variable(name='x'), point=1))"),
    (lambda: LetRec("z", ONE, X), ("name", "bound", "body"),
     "LetRec(name='z', bound=Occurrence(expr=Constant(value=1), point=2),"
     " body=Occurrence(expr=Variable(name='x'), point=1))"),
    (lambda: Case(X, (PNat(0), PWildcard()), (ONE, X)), ("scrutinee", "patterns", "clauses"),
     "Case(scrutinee=Occurrence(expr=Variable(name='x'), point=1),"
     " patterns=(PNat(value=0), PWildcard()),"
     " clauses=(Occurrence(expr=Constant(value=1), point=2),"
     " Occurrence(expr=Variable(name='x'), point=1)))"),
    (lambda: Ref(ONE), ("init",), "Ref(init=Occurrence(expr=Constant(value=1), point=2))"),
    (lambda: Assign(X, ONE), ("target", "value"),
     "Assign(target=Occurrence(expr=Variable(name='x'), point=1),"
     " value=Occurrence(expr=Constant(value=1), point=2))"),
    (lambda: Deref(X), ("ref",), "Deref(ref=Occurrence(expr=Variable(name='x'), point=1))"),
    (lambda: Group(X), ("inner",), "Group(inner=Occurrence(expr=Variable(name='x'), point=1))"),
    (lambda: PNat(3), ("value",), "PNat(value=3)"),
    (lambda: PBool(False), ("value",), "PBool(value=False)"),
    (lambda: PVar("v"), ("name",), "PVar(name='v')"),
    (lambda: PWildcard(), (), "PWildcard()"),
    (lambda: PTuple((PVar("a"), PNat(1))), ("items",), "PTuple(items=(PVar(name='a'), PNat(value=1)))"),
    (lambda: Base(), ("delta", "kappa"), "Base(delta=0, kappa=frozenset())"),
    (lambda: Base(5, frozenset({IVar(2)})), ("delta", "kappa"), "Base(delta=5, kappa=frozenset({IVar(point=2)}))"),
    (lambda: Arrow(frozenset({4})), ("origins", "pending"), "Arrow(origins=frozenset({4}), pending=0)"),
    (lambda: DepPair(frozenset({(Location(0), 2)}), frozenset({("x", 1)}), 6, 1),
     ("locs", "vars", "pts", "bits"),
     "DepPair(locs=frozenset({(Location(index=0), 2)}), vars=frozenset({('x', 1)}))"),
    (lambda: DepPair(), ("locs", "vars", "pts", "bits"), "DepPair(locs=frozenset(), vars=frozenset())"),
    (lambda: Flow(("h", 1), ("l", 2)), ("atom", "site"), "Flow(atom=('h', 1), site=('l', 2))"),
    (lambda: NoninterferenceVerdict(), ("sinks", "sources", "missed"),
     "NoninterferenceVerdict(sinks=(), sources=(), missed=())"),
    (lambda: NoninterferenceVerdict(((2, "l"),), ((("h", 1),),), (0,)), ("sinks", "sources", "missed"),
     "NoninterferenceVerdict(sinks=((2, 'l'),), sources=((('h', 1),),), missed=(0,))"),
]

# Mutable containers that compare by their fields and are unhashable.
MUTABLE = [
    (lambda: Analysis(program=X, gamma="gamma", type_of={1: Base()}, result_type=Base(), pi="pi",
                      binding_sites=(("x", 1),), merges=(), atoms="atoms"),
     ("program", "gamma", "type_of", "result_type", "pi", "binding_sites", "merges", "atoms"),
     "Analysis(program=Occurrence(expr=Variable(name='x'), point=1), gamma='gamma',"
     " type_of={1: Base(delta=0, kappa=frozenset())}, result_type=Base(delta=0, kappa=frozenset()),"
     " pi='pi', binding_sites=(('x', 1),), merges=(), atoms='atoms')"),
    (lambda: EvalOutcome(7, DepPair(), "dep", {}, 3), ("value", "pair", "dep", "store", "steps", "loc_origin"),
     "EvalOutcome(value=7, pair=DepPair(locs=frozenset(), vars=frozenset()), dep='dep', store={},"
     " steps=3, loc_origin={})"),
    (lambda: ClauseVerdict(), ("activity", "witnesses"), "ClauseVerdict(activity=0, witnesses=())"),
    (lambda: ClauseVerdict(2, ("w",)), ("activity", "witnesses"), "ClauseVerdict(activity=2, witnesses=('w',))"),
    (lambda: AgreementReport(note="n"), ("outcome", "clauses", "binding_lemma", "steps", "note"),
     "AgreementReport(outcome='pass', clauses={'dependency': ClauseVerdict(activity=0, witnesses=()),"
     " 'alias': ClauseVerdict(activity=0, witnesses=()), 'type': ClauseVerdict(activity=0, witnesses=()),"
     " 'environment': ClauseVerdict(activity=0, witnesses=()), 'order': ClauseVerdict(activity=0, witnesses=()),"
     " 'ip': ClauseVerdict(activity=0, witnesses=())},"
     " binding_lemma=ClauseVerdict(activity=0, witnesses=()), steps=0, note='n')"),
]

# Closures compare by identity.
CLOSURES = [
    (lambda: Closure("y", X, {"k": (5, 2)}, lam_point=3), ("param", "body", "env", "lam_point"),
     "Closure(param='y', body=Occurrence(expr=Variable(name='x'), point=1), env={'k': (5, 2)}, lam_point=3)"),
    (lambda: RecClosure("y", X, {}, 3, "f", 4), ("param", "body", "env", "lam_point", "name", "bind_point"),
     "RecClosure(param='y', body=Occurrence(expr=Variable(name='x'), point=1), env={}, lam_point=3,"
     " name='f', bind_point=4)"),
    (lambda: RecClosure("y", X, {}, lam_point=3), ("param", "body", "env", "lam_point", "name", "bind_point"),
     "RecClosure(param='y', body=Occurrence(expr=Variable(name='x'), point=1), env={}, lam_point=3,"
     " name='', bind_point=0)"),
]

RECORDS = FROZEN + MUTABLE + CLOSURES


def _ids(table):
    return [rep.split("(", 1)[0] for _, _, rep in table]


def test_every_record_class_is_pinned():
    """[TRIVIAL] The tables name all 29 record classes."""
    assert len({type(make()) for make, _, _ in RECORDS}) == 29


@pytest.mark.parametrize("make, fields, rep", RECORDS, ids=_ids(RECORDS))
def test_repr_and_match_args(make, fields, rep):
    """[DERIVED] ``Class(field=value, ...)`` over the compared fields,
    and ``__match_args__`` naming every field in order."""
    record = make()
    assert repr(record) == rep
    assert type(record).__match_args__ == fields


@pytest.mark.parametrize("make, fields, rep", FROZEN + MUTABLE, ids=_ids(FROZEN + MUTABLE))
def test_equal_fields_make_equal_records(make, fields, rep):
    """[DERIVED] Two records of one class with equal fields are equal,
    and frozen ones hash alike; mutable ones are unhashable."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if (make, fields, rep) in FROZEN:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("make, fields, rep", RECORDS, ids=_ids(RECORDS))
def test_copies_and_pickles_keep_every_field(make, fields, rep):
    """[DERIVED] copy, deepcopy and a pickle round trip give a record of
    the same class with the same fields, excluded ones included."""
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin is not record
        assert [getattr(twin, f) for f in fields] == [getattr(record, f) for f in fields]
        assert repr(twin) == rep
        if not isinstance(record, Closure):
            assert twin == record


@pytest.mark.parametrize("make, fields, rep", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_refuse_assignment(make, fields, rep):
    """[DERIVED] Assigning or deleting a field of a frozen record raises
    AttributeError and leaves the field as it was."""
    record = make()
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


def test_one_differing_field_or_class_makes_records_differ():
    """[DERIVED] A record differs from one of its class that differs in
    one field, and from one of a sibling class with the same fields;
    equality compares field values, so ``Constant(True) == Constant(1)``."""
    pairs = [
        (Let("z", ONE, X), Let("z", ONE, ONE)),
        (Let("z", ONE, X), LetRec("z", ONE, X)),
        (Constant(1), PNat(1)),
        (Variable("x"), PVar("x")),
        (Occurrence(Variable("x"), 1), Occurrence(Variable("x"), 2)),
        (Base(1), Base(2)),
        (Arrow(frozenset({1})), Arrow(frozenset({1}), 1)),
        (Flow(("h", 1), ("l", 2)), Flow(("h", 1), ("l", 3))),
        (NoninterferenceVerdict(), NoninterferenceVerdict(missed=(1,))),
        (DepPair(frozenset(), frozenset({("x", 1)})), DepPair()),
        (ClauseVerdict(), ClauseVerdict(1)),
        (AgreementReport(), AgreementReport(steps=1)),
        (EvalOutcome(7, DepPair(), "dep", {}, 3), EvalOutcome(7, DepPair(), "dep", {}, 4)),
    ]
    for a, b in pairs:
        assert a != b and not a == b
    assert Constant(True) == Constant(1) and hash(Constant(True)) == hash(Constant(1))
    assert Base() == Base(0, frozenset()) and hash(Base()) == hash((0, frozenset()))
    assert hash(PWildcard()) == hash(())
    assert hash(Occurrence(Variable("x"), 1)) == hash((Variable("x"), 1))


def test_dep_pair_excludes_its_bitsets():
    """[DERIVED] ``pts`` and ``bits`` take no part in a DepPair's
    equality, hash or repr, but copies keep them."""
    locs, names = frozenset({(Location(0), 2)}), frozenset({("x", 1)})
    a, b, c = DepPair(locs, names, 6, 1), DepPair(locs, names), DepPair(locs, names, pts=9)
    assert a == b == c and hash(a) == hash(b) == hash(c) == hash((locs, names))
    assert repr(a) == repr(b)
    assert (b.pts, b.bits) == (None, None) and (c.pts, c.bits) == (9, None)
    assert (DepPair(pts=0, bits=0).pts, DepPair(pts=0, bits=0).bits) == (0, 0)
    twin = copy.copy(a)
    assert (twin.pts, twin.bits) == (6, 1)


def test_closures_compare_by_identity():
    """[DERIVED] A closure equals only itself and hashes by identity,
    whatever its fields."""
    a, b = Closure("y", X, {}, lam_point=3), Closure("y", X, {}, lam_point=3)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a)
    assert RecClosure("y", X, {}, 3) != RecClosure("y", X, {}, 3)
    assert len({a, b, copy.copy(a)}) == 3


def test_mutable_containers_take_assignment():
    """[DERIVED] The mutable containers take assignment of a field,
    and a shallow copy shares the field values."""
    report = AgreementReport()
    report.outcome = "fail"
    twin = copy.copy(report)
    assert twin.outcome == "fail" and twin.clauses is report.clauses
    outcome = EvalOutcome(7, DepPair(), "dep", {}, 3)
    outcome.steps = 4
    assert outcome.steps == 4


def test_match_by_class_pattern():
    """[DERIVED] Class patterns bind the fields positionally."""
    match Let("z", ONE, X):
        case LetRec():
            matched = None
        case Let(name, bound, body):
            matched = (name, bound, body)
    assert matched == ("z", ONE, X)
    match DepPair(frozenset(), frozenset({("x", 1)}), 2, 3):
        case DepPair(locs, names, pts, bits):
            assert (locs, names, pts, bits) == (frozenset(), frozenset({("x", 1)}), 2, 3)
