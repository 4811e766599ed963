"""Reference implementations that the tests hold the library against.

Each function here is an earlier, simpler form of a library function,
kept verbatim so that a differential test can compare the two on inputs
the library's own pinned tests never build.

``linear_use_check`` carries the names bound to an abstraction and the
names whose uses count down each path as fresh sets and maps, one pair
per node; the library keeps one set and one map and restores them with
markers on its stack.
"""

from __future__ import annotations

from refflow.syntax import Abstraction, Let, LetRec, Occurrence, Ref, Variable, _children
from refflow.typesys import AbstractionInRef, LinearityViolation, _ungrouped


def linear_use_check(program: Occurrence) -> tuple:
    """Violations of the linear-abstraction discipline, without raising.

    Flags names bound to a syntactic abstraction and used twice, and
    abstractions placed under ref, directly or through such a name; uses
    of abstractions that flow through parameters are caught during the
    checking walk instead.  Returns the violations in program order.

    One pre-order walk carries the names bound to an abstraction and the
    names whose uses count, each with the use list of its binding; a let
    rec's own bound counts its uses, a let's does not.  Binders are
    globally unique after parsing, so no binding shadows another.
    """

    found: list = []  # violations in pre-order; a use list stands for its binding's
    stack = [(program, frozenset(), {})]
    while stack:
        occ, fun_names, counted = stack.pop()
        expr = occ.expr
        if isinstance(expr, Variable):
            uses = counted.get(expr.name)
            if uses is not None:
                uses.append(occ.point)
            continue
        if isinstance(expr, (Let, LetRec)) and isinstance(_ungrouped(expr.bound).expr, Abstraction):
            uses = []
            found.append(uses)
            fun_names = fun_names | {expr.name}
            in_scope = {**counted, expr.name: uses}
            stack.append((expr.body, fun_names, in_scope))
            stack.append((expr.bound, fun_names, in_scope if isinstance(expr, LetRec) else counted))
            continue
        if isinstance(expr, Ref):
            init = _ungrouped(expr.init).expr
            if isinstance(init, Abstraction) or isinstance(init, Variable) and init.name in fun_names:
                found.append(AbstractionInRef(occ.point))
        stack.extend((child, fun_names, counted) for child in reversed(_children(expr)))
    return tuple(
        LinearityViolation(item) if isinstance(item, list) else item
        for item in found
        if not isinstance(item, list) or len(item) > 1
    )
