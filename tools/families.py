"""Program families that grow with n, shared by the tests and tools/scale.py.

Standard library only, so the scale record runs without the test
dependencies; ``tests/conftest.py`` imports ``cases_source`` from here.
"""

from __future__ import annotations

import random


def chain_source(n: int) -> str:
    """One cell written and read n times, then read once more."""
    lets = "".join(f"(let a{i} (r := (+ (! r) {i})) " for i in range(1, n + 1))
    return "(let r (ref 0) " + lets + "(! r)" + ")" * (n + 1)


def cases_source(n: int) -> str:
    """n sequential two-arm cases over one cell, each arm writing it."""
    rng = random.Random(n)
    arms = "".join(
        f"(let c{i} (case (! r) [0 -> (r := {rng.randint(0, 9)}),"
        f" _ -> (r := (+ (! r) {rng.randint(1, 9)}))]) "
        for i in range(1, n + 1)
    )
    return f"(let h {rng.randint(1, 9)} (let r (ref h) " + arms + "(! r)" + ")" * (n + 2)
