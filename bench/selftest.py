"""Self-test of the benchmark at a tiny scale.

    python3 bench/selftest.py

Checks that

* every workload, untraced and traced, verifies all its programs and
  emits exactly the metrics ``BENCHMARK.json`` names, with their units;
* the family answers, recorded at seed 0, hold at another seed;
* the traced run's layer self times account for the traced total;
* a planted wrong expected answer raises the failed share;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.

Prints each problem found and exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys

import run
import workloads

SEED = 5  # not the seed the answers were recorded at


def tiny_run(workload: str, trace: int, expected: dict | None = None) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run.main(argv, tiny=True, expected=expected)
    return json.loads(out.getvalue().splitlines()[-1])


def plant_wrong_answer(expected: dict, workload: str) -> dict:
    planted = copy.deepcopy(expected)
    if workload == "corpus":
        answers = planted["corpus"]["answers"].split()
        answers[0] = "00000000"
        planted["corpus"]["answers"] = " ".join(answers)
    else:
        planted[workload][str(workloads.TINY_FAMILY_SIZES[workload][0])]["answer"] = "00000000"
    return planted


def bare_directory_run() -> subprocess.CompletedProcess:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        argv = ["--workload", "cases", "--seed", "1", "--seconds", "1", "--trace", "0"]
        return subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", *argv],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, want in wanted.items():
            result = tiny_run(workload, trace)
            where = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} programs failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics or units differ: {sorted(set(got.items()) ^ set(want.items()))}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric is not a finite number")
            if trace and result["metrics"]["trace_accounted_share"]["value"] < 0.9:
                problems.append(f"{where}: layer self times account for less than 90% of the traced total")
        result = tiny_run(workload, 0, plant_wrong_answer(expected, workload))
        if result["correct"] or result["failed"] < 1 or result["metrics"]["passed_share"]["value"] >= 1:
            problems.append(f"{workload}: a planted wrong answer did not raise the failed share")
    bare = bare_directory_run()
    if bare.returncode == 0 or bare.stdout.strip():
        problems.append("without the sources the benchmark exited 0 or printed a result")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
