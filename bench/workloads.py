"""The benchmark's workloads: how each builds its programs from a seed.

* ``corpus``: the fuzz and acceptance-gate traffic, the 1000 programs
  ``gen_program(i, 1 + i % 30)`` for ``i < 1000``, which is what
  ``refflow fuzz --seed 0 --count 1000 --size 30`` and the acceptance
  gate check.  Fixed per-program costs dominate (parse, typecheck, two
  flow walks per pipeline), so parse and walk-sharing changes show here
  and Pi or judge rewrites should not.  The seed only orders the
  programs: which 1000 programs make the corpus moves its total work and
  its p99 by several percent, which would add to the run-to-run spread.
* ``cases``: ``cases(n)`` for n in {20, 40, 80}.  Sequential two-arm
  cases make Pi branch and join, so nifc's reachability queries and
  ``Pi.closure`` (which drives peak memory) show here, and the cell
  read and written at every case keeps the oracle's per-event judge at
  about a third of the traced time: Pi and judge rewrites both show.

There is no ``chain`` workload (one cell read and written n times, where
the judge alone dominates): on a few shared cores the machine's speed
drifts over tens of seconds, and only two workloads leave each run long
enough, within the time all runs may take, to average that drift out.

For ``cases`` the seed picks only literal constants, never the shape.
The cell starts at 1 or more and only grows, so the ``0`` arm never
runs and every seed takes the same path; the recorded answers of a size
therefore hold for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("corpus", "cases")

CORPUS_COUNT = 1000
CORPUS_SIZE_CAP = 30

FAMILY_SIZES = {"cases": (20, 40, 80)}

# Self-test scale: same shapes, a few programs.
TINY_CORPUS_COUNT = 60
TINY_FAMILY_SIZES = {"cases": (4, 8)}

# Program points per family size, recorded from the parser; a mismatch
# means the generator no longer builds the templated program.
FAMILY_POINTS = {
    "cases": {4: 59, 8: 111, 20: 267, 40: 527, 80: 1047},
}


@dataclass
class Program:
    name: str
    key: int  # the generator seed of a corpus program, the size n of a family one
    source: str
    labeling: dict = field(default_factory=dict)
    points: int = 0
    expected: dict = field(default_factory=dict)


def cases_source(n: int, rng: random.Random) -> str:
    """``(let h c (let r (ref h) (let c1 (case (! r) [0 -> (r := k1),
    _ -> (r := (+ (! r) j1))]) ... (! r))))`` with ``c >= 1``."""

    head = f"(let h {rng.randint(1, 9)} (let r (ref h) "
    body = "".join(
        f"(let c{i} (case (! r) [0 -> (r := {rng.randint(0, 9)}),"
        f" _ -> (r := (+ (! r) {rng.randint(1, 9)}))]) "
        for i in range(1, n + 1)
    )
    return head + body + "(! r)" + ")" * (n + 2)


FAMILIES = {"cases": cases_source}


def build_programs(lib, workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's programs as sources plus their default labelings.

    ``lib`` holds the imported refflow modules.  Only the sources and the
    labelings reach the timed pipelines.
    """

    syntax, security = lib.syntax, lib.security
    programs = []
    if workload == "corpus":
        count = TINY_CORPUS_COUNT if tiny else CORPUS_COUNT
        for i in range(count):
            occ = lib.agreement.gen_program(i, 1 + i % CORPUS_SIZE_CAP)
            programs.append(Program(f"corpus[{i}]", i, syntax.pretty(occ)))
        random.Random(f"corpus|{seed}").shuffle(programs)
    elif workload in FAMILIES:
        sizes = (TINY_FAMILY_SIZES if tiny else FAMILY_SIZES)[workload]
        for n in sizes:
            rng = random.Random(f"{workload}|{seed}|{n}")
            programs.append(Program(f"{workload}({n})", n, FAMILIES[workload](n, rng)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for program in programs:
        occ = syntax.parse(program.source)
        program.points = len(syntax.all_points(occ))
        program.labeling = security.default_labeling(occ)
    return programs
