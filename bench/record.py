"""Record the answers the benchmark checks against, into expected.json.

    python3 bench/record.py

For every corpus program it stores an answer digest (oracle outcome and
steps, nifc verdict and flows), plus the digest of ``refflow fuzz
--json`` over the corpus at full and self-test size; for every family
size, the answer digest and the digests of ``refflow check --json`` and
``refflow nifc --json``.  Family answers are recorded at seed 0; the
seed changes only literal constants, so they hold for every seed.
Re-record only when a change is meant to alter what the analyser
answers.
"""

from __future__ import annotations

import json

import run
import workloads


def answers(lib, programs: list) -> list:
    return [run.answer_digest(*result) for result in run.run_pass(lib, programs).results]


def main():
    lib = run.load_library()
    corpus = sorted(workloads.build_programs(lib, "corpus", 0), key=lambda p: p.key)
    expected = {"corpus": {
        "answers": " ".join(answers(lib, corpus)),
        "fuzz": {str(count): run.cli_digest(run.fuzz_output(lib, count))
                 for count in (workloads.CORPUS_COUNT, workloads.TINY_CORPUS_COUNT)},
    }}
    for workload in workloads.FAMILIES:
        expected[workload] = {}
        for tiny in (True, False):
            programs = workloads.build_programs(lib, workload, 0, tiny)
            for program, answer in zip(programs, answers(lib, programs)):
                check, nifc = run.cli_outputs(lib, program)
                expected[workload][str(program.key)] = {
                    "answer": answer,
                    "check_cli": run.cli_digest(check),
                    "nifc_cli": run.cli_digest(nifc),
                }
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
