"""Scale record: each layer's seconds and peak traced memory at doubling sizes.

    PYTHONPATH=src python3 tools/scale.py [--out BENCH_scale.json]

Two program families, each at doubling sizes:

* ``chain(n)``, n = 100 … 1600: one cell written and read n times,
  ``(let r (ref 0) (let a1 (r := (+ (! r) 1)) … (! r)))``; nifc runs with
  no labels;
* ``cases(n)``, n = 20 … 320: n sequential two-arm cases over one cell,
  each arm writing it; nifc runs with ``h = high``.

Both sources come from ``tools/families.py``, which the tests share.

The layers are parse, typecheck, evaluate, check_soundness (typecheck,
the run and the judge) and nifc (typecheck and the check), each from the
parsed program.  A layer's seconds are the best of ``REPEAT`` runs; its
peak is the largest block of memory tracemalloc saw in use during one
more run, traced on its own.  The exponent is the least-squares slope of
log seconds on log n.  Each family, size and layer runs in a fresh
process (``multiprocessing``'s spawn context, one process at a time),
so no layer's seconds depend on the heap another layer left behind;
there it runs in a worker thread with a large stack, since the walkers
recurse once per nested let.  Nothing is gated: the record is for
reading, before and after a change.

The ``startup`` row is the seconds of a fresh import of the seven
modules ``bench/run.py`` loads, done as it does one: drop ``refflow``
from ``sys.modules``, then import them.  It is the median of
``STARTUP_RUNS`` spawned processes, one import each.  Without
``__pycache__`` beside the sources, and with ``PYTHONDONTWRITEBYTECODE=1``
as in CI, it includes compiling them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import multiprocessing
import platform
import statistics
import sys
import threading
import time
import tracemalloc

from refflow.agreement import check_soundness
from refflow.security import check_noninterference
from refflow.semantics import evaluate
from refflow.syntax import all_points, parse
from refflow.typesys import typecheck

from families import cases_source, chain_source

SIZES = {"chain": (100, 200, 400, 800, 1600), "cases": (20, 40, 80, 160, 320)}
LABELS = {"chain": {}, "cases": {"h": "high"}}
REPEAT = 2
STARTUP_RUNS = 7
MODULES = ("syntax", "semantics", "typesys", "approx", "agreement", "security", "cli")
SOURCES = {"chain": chain_source, "cases": cases_source}
# each layer from (source, its parsed program, labels)
LAYERS = {
    "parse": lambda source, program, labels: parse(source),
    "typecheck": lambda source, program, labels: typecheck(program),
    "evaluate": lambda source, program, labels: evaluate(program),
    "check_soundness": lambda source, program, labels: check_soundness(program),
    "nifc": lambda source, program, labels: check_noninterference(program, labels),
}


def seconds(run) -> float:
    best = math.inf
    for _ in range(REPEAT):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def slope(sizes, values) -> float | None:
    pairs = [(math.log(n), math.log(v)) for n, v in zip(sizes, values) if v > 0]
    if len(pairs) < 2:
        return None
    mx = sum(x for x, _ in pairs) / len(pairs)
    my = sum(y for _, y in pairs) / len(pairs)
    var = sum((x - mx) ** 2 for x, _ in pairs)
    return round(sum((x - mx) * (y - my) for x, y in pairs) / var, 3)


def measure(family: str, n: int, layer: str):
    """(points, seconds, peak MB) of one layer on ``family``'s program of
    size n, measured in a worker thread; None when the thread failed."""

    result: dict = {}

    def work():
        sys.setrecursionlimit(200_000)
        source = SOURCES[family](n)
        program = parse(source)

        def run():
            return LAYERS[layer](source, program, LABELS[family])

        result["row"] = len(all_points(program)), seconds(run), peak_mb(run)

    threading.stack_size(512 * 2**20)
    worker = threading.Thread(target=work)
    worker.start()
    worker.join()
    return result.get("row")


def import_seconds() -> float:
    """Seconds of a fresh import of ``MODULES``, after dropping every
    refflow module this process has imported."""

    for name in [n for n in sys.modules if n == "refflow" or n.startswith("refflow.")]:
        del sys.modules[name]
    start = time.perf_counter()
    for module in MODULES:
        importlib.import_module(f"refflow.{module}")
    return time.perf_counter() - start


def record() -> dict | None:
    out: dict = {"python": platform.python_version(), "repeat": REPEAT}
    # one fresh process per task, one at a time
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        runs = [pool.apply(import_seconds) for _ in range(STARTUP_RUNS)]
        out["startup"] = {"import_s": round(statistics.median(runs), 4), "runs": STARTUP_RUNS}
        print(f"startup: {out['startup']['import_s']} s", file=sys.stderr, flush=True)
        for family, sizes in SIZES.items():
            table: dict = {"points": {}}
            for n in sizes:
                for layer in LAYERS:
                    measured = pool.apply(measure, (family, n, layer))
                    if measured is None:
                        return None
                    points, secs, peak = measured
                    table["points"][str(n)] = points
                    row = table.setdefault(layer, {"s": {}, "peak_mb": {}})
                    row["s"][str(n)] = round(secs, 4)
                    row["peak_mb"][str(n)] = round(peak, 2)
                    print(f"{family}({n}) {layer}: {row['s'][str(n)]} s, {row['peak_mb'][str(n)]} MB",
                          file=sys.stderr, flush=True)
            for layer, row in table.items():
                if layer != "points":
                    row["exponent"] = slope(sizes, [row["s"][str(n)] for n in sizes])
            out[family] = table
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args(argv)
    result = record()
    if result is None:
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
