"""Static approximations of the run: the happens-before order, the binding
sites and the alias base, one entry point each.

All three come out of the program's one checking walk
(:mod:`refflow.typesys`), which records them while it types the program
in evaluation order; the alias base is unified from the walk's merges
there too.  The entry points are views of
``typecheck(program, allow_free=True)``.
"""

from __future__ import annotations

from .syntax import Occurrence
from .typesys import Pi, typecheck


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

