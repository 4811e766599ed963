"""The refflow benchmark: end-to-end and per-layer timings of the analyser.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus|cases --seed N --seconds S --trace 0|1

Each workload runs as a closed loop in this one process and thread: one
program at a time goes through ``parse`` then ``check_soundness`` (what
``refflow check`` and ``fuzz`` wait for), then ``parse`` then
``check_noninterference`` under ``default_labeling`` (what ``refflow
nifc`` waits for).  Passes over the workload repeat while another fits
in ``--seconds``.  ``workloads.py`` says what each workload is and why
it was chosen; the seed orders the corpus and picks the literal
constants of ``cases``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over set-ups of a fresh import of refflow plus
  building the workload's sources and labelings; one set-up precedes
  every pass, so the set-ups sample the whole run as the passes do;
* ``check_s`` and ``nifc_s``: median over passes of the wall seconds of
  each pipeline, summed over the workload's programs;
* ``verdict_p50_ms`` and ``verdict_p99_ms``: nearest-rank percentiles,
  over the programs, of each program's median time to both verdicts
  (1000 samples on corpus, so ten lie beyond p99; 3 on cases);
* ``peak_rss_mb``: the process's peak resident memory after timing;
* ``passed_share``: programs that passed every check / programs.

``--trace 1`` reports the per-layer metrics: untraced and traced passes
alternate, the traced ones through the wrappers of ``tracing.py``, and
``trace_overhead_s`` is the difference of their median walls.  Then
``refflow check --json`` and ``nifc --json`` run traced on every program
for the ``cli`` layer.  Growth exponents are least-squares slopes of
log(layer self time) on log(program points) over the programs.

Either way the process runs on one CPU, the last it may use, so that it
is not moved between CPUs; every program is verified after timing (see
``verify``); and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Expected
answers come from ``expected.json``, which ``record.py`` writes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

MODULES = ("syntax", "semantics", "typesys", "approx", "agreement", "security", "cli")
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "check_s": "s",
    "nifc_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "passed_share": "1",
}

PER_LAYER = {
    "syntax.parse_s": "s",
    "syntax.points": "count",
    "syntax.points_per_s": "points/s",
    "typesys.typecheck_s": "s",
    "typesys.linear_s": "s",
    "typesys.gamma_entries": "count",
    "typesys.precedes_calls": "count",
    "typesys.precedes_s": "s",
    "typesys.pi_closure_s": "s",
    "typesys.pi_closure_pairs": "count",
    "typesys.ip_type_calls": "count",
    "typesys.ip_type_s": "s",
    "approx.pi_s": "s",
    "approx.alias_s": "s",
    "approx.sites_s": "s",
    "approx.walks_per_program": "count",
    "approx.pi_points": "count",
    "approx.pi_edges": "count",
    "semantics.eval_s": "s",
    "semantics.steps": "count",
    "semantics.events": "count",
    "semantics.w_entries": "count",
    "agreement.judge_s": "s",
    "agreement.judge_us_per_event": "us",
    "agreement.clause_checks": "count",
    "agreement.check_self_s": "s",
    "agreement.gen_s": "s",
    "security.nifc_self_s": "s",
    "security.origins_s": "s",
    "security.flows": "count",
    "cli.self_s": "s",
    **{f"{layer}.exponent": "1" for layer in tracing.LAYERS},
    "trace_total_s": "s",
    "trace_accounted_share": "1",
    "trace_overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def load_library() -> SimpleNamespace:
    """Import refflow afresh from the checkout's ``src``."""

    if not (SRC / "refflow" / "__init__.py").is_file():
        raise SystemExit(f"refflow sources not found under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "refflow" or n.startswith("refflow.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"refflow.{m}") for m in MODULES})


def set_up(workload: str, seed: int, tiny: bool):
    """Import the library and build the workload's sources and labelings."""

    gc.collect()
    start = perf_counter()
    lib = load_library()
    programs = workloads.build_programs(lib, workload, seed, tiny)
    return lib, programs, perf_counter() - start


def timed_set_up(workload: str, seed: int, tiny: bool) -> float:
    """Seconds of one more set-up; the modules already imported stay the
    ones ``sys.modules`` holds, so the passes keep one library whose
    functions' own imports still find their siblings."""

    kept = {name: module for name, module in sys.modules.items()
            if name == "refflow" or name.startswith("refflow.")}
    try:
        return set_up(workload, seed, tiny)[2]
    finally:
        sys.modules.update(kept)


def pin_to_one_cpu() -> None:
    """Run on the last CPU this process may use, so it is not moved."""

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def attach_expected(programs: list, workload: str, expected: dict):
    """Give each program its recorded answers."""

    if workload == "corpus":
        answers = expected["corpus"]["answers"].split()
        for program in programs:
            program.expected = {"answer": answers[program.key]}
    else:
        for program in programs:
            program.expected = expected[workload][str(program.key)]


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


def run_pass(lib, programs: list, tracer=None) -> SimpleNamespace:
    """One closed-loop pass over the workload, timing each pipeline."""

    parse = lib.syntax.parse
    check = lib.agreement.check_soundness
    nifc = lib.security.check_noninterference
    check_t, nifc_t, results, layers = [], [], [], []
    gc.collect()
    start = perf_counter()
    for index, program in enumerate(programs):
        if tracer is not None:
            tracer.program = index
            before = tracer.snapshot()
        t0 = perf_counter()
        try:
            report = check(parse(program.source))
            t1 = perf_counter()
            verdict = nifc(parse(program.source), program.labeling)
            t2 = perf_counter()
        except Exception as err:  # a program that raises is a failure, not the end of the run
            t1 = t2 = t0
            results.append(f"{type(err).__name__}: {err}")
        else:
            results.append((report, verdict))
        check_t.append(t1 - t0)
        nifc_t.append(t2 - t1)
        if tracer is not None:
            layers.append(tracer.layer_times(before))
    wall = perf_counter() - start
    record = SimpleNamespace(wall=wall, check=check_t, nifc=nifc_t, results=results, layers=layers)
    if tracer is not None:
        record.time_s = dict(tracer.time_s)
        record.calls = dict(tracer.calls)
        record.counts = dict(tracer.counts)
    return record


def repeat_for(seconds: float, min_rounds: int, one_round) -> list:
    """Call ``one_round`` while another round fits in ``seconds``."""

    rounds = []
    start = perf_counter()
    while True:
        rounds.append(one_round())
        elapsed = perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def traced_pass(lib, programs: list, tracer) -> SimpleNamespace:
    with tracer.installed():
        return run_pass(lib, programs, tracer)


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def answer_digest(report, verdict) -> str:
    """Outcome, steps, verdict and flows of one program, hashed."""

    def flows(items):
        return [[f.subject, f.occurrence, f.binder, f.binding] for f in items]

    answer = [
        report.outcome, report.steps, list(report.failed_clauses()),
        verdict.ok, flows(verdict.flows), flows(verdict.chain_flows),
    ]
    return hashlib.sha256(json.dumps(answer).encode()).hexdigest()[:8]


def run_cli(lib, argv: list) -> str:
    """``refflow`` with ``argv``: its exit code and captured stdout."""

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n{out.getvalue()}"


def cli_digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()[:16]


def cli_outputs(lib, program) -> tuple:
    """``check --json`` and ``nifc --json`` (under the program's labeling) outputs."""

    check = run_cli(lib, ["check", "--json", "--expr", program.source])
    OUT.mkdir(exist_ok=True)
    labels = OUT / f"labels-{os.getpid()}.txt"
    labels.write_text("".join(f"{name} = {level}\n" for name, level in sorted(program.labeling.items())))
    try:
        nifc = run_cli(lib, ["nifc", "--json", "--expr", program.source, "--labels", str(labels)])
    finally:
        labels.unlink()
    return check, nifc


def fuzz_output(lib, count: int) -> str:
    """``fuzz --json`` over the first ``count`` corpus programs."""

    return run_cli(lib, ["fuzz", "--json", "--seed", "0", "--count", str(count),
                         "--size", str(workloads.CORPUS_SIZE_CAP)])


def verify(lib, workload: str, programs: list, results: list, expected: dict) -> dict:
    """Check every program's results; return {program index: reason}."""

    failures: dict = {}
    for index, (program, result) in enumerate(zip(programs, results)):
        if isinstance(result, str):
            failures[index] = result
            continue
        report, verdict = result
        if report.outcome != "pass":
            failures[index] = f"oracle outcome {report.outcome}: {report.note}"
        elif not verdict.formulations_agree:
            failures[index] = "the two nifc formulations disagree"
        elif workload != "corpus" and program.points != workloads.FAMILY_POINTS[workload][program.key]:
            failures[index] = f"{program.points} points, recorded {workloads.FAMILY_POINTS[workload][program.key]}"
        elif answer_digest(report, verdict) != program.expected["answer"]:
            failures[index] = "outcome, verdict or flows differ from the recorded answer"
        elif verdict.ok and lib.security.semantic_low_flows(lib.syntax.parse(program.source), program.labeling):
            failures[index] = "static verdict passed but the run has a low flow"
    if workload == "corpus":
        first, second = (fuzz_output(lib, len(programs)) for _ in range(2))
        if first != second or cli_digest(first) != expected["corpus"]["fuzz"][str(len(programs))]:
            reason = "fuzz --json output differs across calls or from the recorded digest"
            failures.update({i: reason for i in range(len(programs)) if i not in failures})
        return failures
    for index, program in enumerate(programs):
        first, second = cli_outputs(lib, program), cli_outputs(lib, program)
        recorded = (program.expected["check_cli"], program.expected["nifc_cli"])
        if first != second or tuple(cli_digest(o) for o in first) != recorded:
            failures.setdefault(index, "check/nifc --json output differs across calls or from the recorded digest")
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(passes: list, setups: list, peak_rss_kb: int, passed_share: float) -> dict:
    verdict_ms = [
        statistics.median((p.check[i] + p.nifc[i]) * 1000 for p in passes)
        for i in range(len(passes[0].check))
    ]
    return {
        "setup_s": statistics.median(setups),
        "check_s": statistics.median(sum(p.check) for p in passes),
        "nifc_s": statistics.median(sum(p.nifc) for p in passes),
        "verdict_p50_ms": nearest_rank(verdict_ms, 0.50),
        "verdict_p99_ms": nearest_rank(verdict_ms, 0.99),
        "peak_rss_mb": peak_rss_kb / 1024,
        "passed_share": passed_share,
    }


def growth_exponent(points: list, seconds: list) -> float:
    """Least-squares slope of log(time) on log(points)."""

    pairs = [(math.log(p), math.log(t)) for p, t in zip(points, seconds) if p > 0 and t > 0]
    if len({x for x, _ in pairs}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pairs)
    my = statistics.fmean(y for _, y in pairs)
    sxx = sum((x - mx) ** 2 for x, _ in pairs)
    return sum((x - mx) * (y - my) for x, y in pairs) / sxx


def per_layer_metrics(programs, plain, traced, gen_s, cli_per_program) -> dict:
    def seconds(name):
        return statistics.median(p.time_s.get(name, 0.0) for p in traced)

    last = traced[-1]
    calls, counts = last.calls, last.counts
    pipelines = 2 * len(programs)
    points = 2 * sum(p.points for p in programs)  # each pipeline parses once
    walks = sum(calls.get(n, 0) for n in ("approx.pi", "approx.alias", "approx.sites"))
    events = calls.get("agreement.judge", 0)
    metrics = {
        "syntax.parse_s": seconds("syntax.parse"),
        "syntax.points": points,
        "syntax.points_per_s": points / seconds("syntax.parse"),
        "typesys.typecheck_s": seconds("typesys.typecheck"),
        "typesys.linear_s": seconds("typesys.linear"),
        "typesys.gamma_entries": counts.get("typesys.gamma_entries", 0),
        "typesys.precedes_calls": calls.get("typesys.precedes", 0),
        "typesys.precedes_s": seconds("typesys.precedes"),
        "typesys.pi_closure_s": seconds("typesys.pi_closure"),
        "typesys.pi_closure_pairs": counts.get("typesys.pi_closure_pairs", 0),
        "typesys.ip_type_calls": calls.get("typesys.ip_type", 0),
        "typesys.ip_type_s": seconds("typesys.ip_type"),
        "approx.pi_s": seconds("approx.pi"),
        "approx.alias_s": seconds("approx.alias"),
        "approx.sites_s": seconds("approx.sites"),
        "approx.walks_per_program": walks / pipelines,
        "approx.pi_points": counts.get("approx.pi_points", 0),
        "approx.pi_edges": counts.get("approx.pi_edges", 0),
        "semantics.eval_s": seconds("semantics.eval"),
        "semantics.steps": counts.get("semantics.steps", 0),
        "semantics.events": events,
        "semantics.w_entries": counts.get("semantics.w_entries", 0),
        "agreement.judge_s": seconds("agreement.judge"),
        "agreement.judge_us_per_event": seconds("agreement.judge") / max(events, 1) * 1e6,
        "agreement.clause_checks": counts.get("agreement.clause_checks", 0),
        "agreement.check_self_s": seconds("agreement.check"),
        "agreement.gen_s": gen_s,
        "security.nifc_self_s": seconds("security.nifc"),
        "security.origins_s": seconds("security.origins"),
        "security.flows": counts.get("security.flows", 0),
        "cli.self_s": sum(cli_per_program),
    }
    sizes = [p.points for p in programs]
    for layer in tracing.LAYERS:
        if layer == "cli":
            times = cli_per_program
        else:
            times = [statistics.median(p.layers[i][layer] for p in traced) for i in range(len(programs))]
        metrics[f"{layer}.exponent"] = growth_exponent(sizes, times)
    accounted = [sum(p.layers[i][layer] for i in range(len(programs)) for layer in tracing.LAYERS) / p.wall
                 for p in traced]
    metrics["trace_total_s"] = statistics.median(p.wall for p in traced)
    metrics["trace_accounted_share"] = statistics.median(accounted)
    metrics["trace_overhead_s"] = metrics["trace_total_s"] - statistics.median(p.wall for p in plain)
    return metrics


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def plain_run(workload, seed, seconds, tiny, expected):
    """A set-up precedes every pass, so that ``setup_s`` and the pass
    metrics sample the same stretch of the machine's drifting speed."""

    lib, programs, _ = set_up(workload, seed, tiny)
    attach_expected(programs, workload, expected)
    setups = []

    def one_round():
        setups.append(timed_set_up(workload, seed, tiny))
        return run_pass(lib, programs)

    passes = repeat_for(seconds, MIN_PASSES, one_round)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = verify(lib, workload, programs, passes[-1].results, expected)
    share = 1 - len(failures) / len(programs)
    metrics = end_to_end_metrics(passes, setups, peak_rss_kb, share)
    note = (f"{len(setups)} set-ups, {len(passes)} passes,"
            f" verdict percentiles over {len(programs)} per-program medians")
    return programs, failures, metrics, END_TO_END, note


def traced_run(workload, seed, seconds, tiny, expected):
    """Untraced and traced passes alternate, so that drift in the machine's
    speed reaches both sides of ``trace_overhead_s`` alike."""

    lib, programs, _ = set_up(workload, seed, tiny)
    attach_expected(programs, workload, expected)
    tracer = tracing.Tracer(lib)
    with tracer.installed():
        workloads.build_programs(lib, workload, seed, tiny)
        gen_s = tracer.time_s["agreement.gen"]
    pairs = repeat_for(seconds, MIN_PASSES,
                       lambda: (run_pass(lib, programs), traced_pass(lib, programs, tracer)))
    plain, traced = zip(*pairs)
    spans = list(tracer.spans)
    cli_per_program = []
    with tracer.installed():
        for program in programs:
            before = tracer.time_s["cli.main"]
            cli_outputs(lib, program)
            cli_per_program.append(tracer.time_s["cli.main"] - before)
    write_spans(workload, seed, programs, spans)
    failures = verify(lib, workload, programs, traced[-1].results, expected)
    metrics = per_layer_metrics(programs, plain, traced, gen_s, cli_per_program)
    note = f"{len(traced)} untraced and {len(traced)} traced passes, alternating"
    return programs, failures, metrics, PER_LAYER, note


def write_spans(workload, seed, programs, spans):
    """The last traced pass's coarse spans, one JSON object per line."""

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as handle:
        for name, start, end, parent, program in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "program": programs[program].name}) + "\n")


def main(argv=None, *, tiny: bool = False, expected: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark refflow's check and nifc pipelines.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    if expected is None:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    run = traced_run if args.trace else plain_run
    programs, failures, metrics, units, note = run(args.workload, args.seed, args.seconds, tiny, expected)
    print(f"{args.workload} seed {args.seed}: {len(programs)} programs, {note}", file=sys.stderr)
    for index, reason in sorted(failures.items())[:10]:
        print(f"FAILED {programs[index].name}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(programs),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
