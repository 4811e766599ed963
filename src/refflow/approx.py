"""Static approximations of the run: the happens-before order, the binding
sites and the alias base.

All three come out of the program's one checking walk
(:mod:`refflow.typesys`), which records them while it types the program
in evaluation order, descending into an abstraction's body at its
application site (unique per abstraction under linearity).  The entry
points below are thin views of ``typecheck(program, allow_free=True)``.

The alias base partitions every variable and internal variable of the
program into alias blocks: a binder shares a block with every internal
variable its bound value may denote, and names alias each other only by
meeting in such a block.
"""

from __future__ import annotations

from .syntax import (
    Abstraction,
    Application,
    Assign,
    Case,
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
from .typesys import IVar, Pi, subject_key, typecheck


def binding_sites(program: Occurrence) -> tuple:
    """Every binding the run would perform, as (name, binding point)
    pairs in evaluation order: let and let rec binders at their bound
    expression's point, parameters at their argument's point, pattern
    binders at their scrutinee's point.  Raises TypeCheckError when the
    checker rejects the program."""

    return typecheck(program, allow_free=True).binding_sites


def approximate_pi(program: Occurrence) -> Pi:
    """The static happens-before order over the program's points.
    Raises TypeCheckError when the checker rejects the program."""

    return typecheck(program, allow_free=True).pi


def build_alias_base(program: Occurrence) -> tuple:
    """Partition the program's variables and internal variables into
    alias blocks, sorted for stable output.  Raises TypeCheckError when
    the checker rejects the program."""

    return typecheck(program, allow_free=True).alias_base


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


def _alias_blocks(program: Occurrence, merges: tuple) -> tuple:
    """Partition the program's variables and internal variables into
    alias blocks, given the (binder, internal variable) merges of its
    checking walk.

    A binder joins the block of every internal variable its bound value
    may denote; every other subject stays a singleton.  Two names can
    only share a block by sharing an internal variable, so any block
    with several members names at least one reference.  Blocks come
    back sorted for stable output.
    """

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
    for name, internal in merges:
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
