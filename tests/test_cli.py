"""Command-line front end tests.

Tags: [DERIVED] hand-computed oracle, [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from refflow.agreement import check_soundness, gen_program
from refflow.cli import main
from refflow.syntax import pretty

from conftest import ALIAS_CHAIN_SRC, DIRECT_FLOW_SRC, fresh_python


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------


def test_parse_prints_labeled_tree():
    """[TRIVIAL] parse echoes the labeled surface form."""
    code, out = run_cli(["parse", "--expr", "(let a 1@2 a)"])
    assert code == 0
    assert out.strip() == "(let a 1@2 a@3)@1"


def test_parse_json_tree():
    """[TRIVIAL] The machine tree names kinds and points."""
    code, out = run_cli(["parse", "--json", "--expr", "(ref 1@1)@2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["tree"]["kind"] == "Ref" and doc["tree"]["point"] == 2
    assert doc["tree"]["init"]["kind"] == "Constant"


def test_eval_reports_value_pair_and_bindings():
    """[DERIVED] eval prints the computed value, the final pair, and
    every recorded binding of the reference program."""
    code, out = run_cli(["eval", "--expr", ALIAS_CHAIN_SRC])
    assert code == 0
    assert "value: 5" in out
    assert "pair: ({loc0@8}, {x@6, z@7})" in out
    for line in (
        "x@2 -> ({}, {})",
        "z@4 -> ({}, {})",
        "y@9 -> ({}, {x@5})",
        "loc0@2 -> ({}, {})",
        "loc0@8 -> ({}, {z@7})",
    ):
        assert line in out


def test_trace_line_format():
    """[DERIVED] Each trace line is '<rule> <point> <pair>'."""
    code, out = run_cli(["eval", "--trace", "--expr", "(let a (1@1)@2 (a@3)@4)@5"])
    assert code == 0
    lines = out.splitlines()
    trace = [line for line in lines if re.match(r"^[A-Z-]+ \d+ \(\{.*\}, \{.*\}\)$", line)]
    assert trace[0] == "CONST 1 ({}, {})"
    assert "VAR 3 ({}, {a@3})" in trace
    assert trace[-1] == "LET 5 ({}, {a@3})"


def test_typecheck_reports_all_sections():
    """[DERIVED] typecheck prints result, per-point types, environment,
    order, and alias blocks."""
    code, out = run_cli(["typecheck", "--expr", ALIAS_CHAIN_SRC])
    assert code == 0
    assert "result: ({x@5, x@6, z@7, v2@10}, {})" in out
    for section in ("types:", "gamma:", "pi:", "alias:"):
        assert section in out
    assert "v2@8: ({x@5, z@7}, {x, v2})" in out
    assert "{x, v2}" in out


def test_check_passes_on_reference_program():
    """[DERIVED] check exits 0 with every clause holding."""
    code, out = run_cli(["check", "--expr", ALIAS_CHAIN_SRC])
    assert code == 0
    assert "outcome: pass" in out
    assert out.count("holds") == 7  # six clauses and the binding lemma


def test_check_runtime_error_reports_steps():
    """[DERIVED] A run that fails at run time still reports the steps it
    took: the case, the subtraction and its two operands."""
    code, out = run_cli(["check", "--json", "--expr", "(case (- 1 5) [0 -> 1])"])
    doc = json.loads(out)
    assert code == 1
    assert doc["outcome"] == "fail" and "no pattern matches -4" in doc["note"]
    assert doc["steps"] == 4


def test_fuzz_summary_and_exit():
    """[TRIVIAL] fuzz prints one record per seed plus a summary."""
    code, out = run_cli(["fuzz", "--seed", "3", "--count", "5", "--size", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("seed 3 size 4 ")
    assert lines[-1].startswith("summary: pass 5 fail 0")


def test_nifc_violation_exits_one(tmp_path):
    """[DERIVED] The direct-flow program under h=high exits 1 and
    names the witness."""
    labels = tmp_path / "labels.txt"
    labels.write_text("h = high\nl = low\n")
    code, out = run_cli(["nifc", "--labels", str(labels), "--expr", DIRECT_FLOW_SRC])
    assert code == 1
    assert "verdict: violation" in out
    assert "h@1 reaches binding of l at 2" in out


def test_nifc_pass_exits_zero(tmp_path):
    """[DERIVED] The constant binding passes."""
    labels = tmp_path / "labels.txt"
    labels.write_text("h = high\n")
    code, out = run_cli(["nifc", "--labels", str(labels), "--expr", "(let l (1@1)@2 (l@3)@4)"])
    assert code == 0
    assert "verdict: pass" in out


def test_file_input(tmp_path):
    """[TRIVIAL] Programs load from files too."""
    source = tmp_path / "prog.rf"
    source.write_text(ALIAS_CHAIN_SRC)
    code, out = run_cli(["eval", str(source)])
    assert code == 0 and "value: 5" in out


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_rejection_exits_one():
    """[TRIVIAL] A linearity rejection is exit 1."""
    code, _ = run_cli(
        ["typecheck", "--expr", r"(let x (\y. (y@1))@2 ((x@3) ((x@4) (1@5))@6)@7)@8"]
    )
    assert code == 1


def test_parse_error_exits_two():
    """[TRIVIAL] Unparseable input is a usage error."""
    code, _ = run_cli(["parse", "--expr", "(let x"])
    assert code == 2


def test_missing_file_exits_two():
    """[TRIVIAL] An unreadable path is a usage error."""
    code, _ = run_cli(["eval", "/nonexistent/prog.rf"])
    assert code == 2


def test_budget_exhaustion_exits_three():
    """[TRIVIAL] Hitting the step budget is inconclusive."""
    code, _ = run_cli(["eval", "--steps", "2", "--expr", "(let a (1@1)@2 (a@3)@4)@5"])
    assert code == 3


DEEP_PARSE = "(! " * 400 + "r" + ")" * 400
ENDLESS_RECURSION = r"(let rec f (\x. (f x)) (f 1))"


def test_deep_programs_exit_three(capsys):
    """[DERIVED] A parse 400 derefs deep and an untyped recursion that
    never ends, well inside the step budget, both exhaust Python's
    recursion limit: each is inconclusive, exit 3, with one line naming
    the limit and no traceback."""
    message = (
        "inconclusive: RecursionError: the program nests too deeply"
        f" for the recursion limit of {sys.getrecursionlimit()}\n"
    )
    for argv in (["parse", "--expr", DEEP_PARSE], ["eval", "--expr", ENDLESS_RECURSION]):
        assert main(argv) == 3
        assert capsys.readouterr().err == message


def test_deep_parse_exits_three_in_a_fresh_process():
    """[DERIVED] The same parse in a fresh interpreter: exit 3 and no
    traceback on stderr, also at shutdown."""
    proc = fresh_python(
        "-m", "refflow.cli", "parse", "--expr", DEEP_PARSE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 3 and out == ""
    assert err.startswith("inconclusive: RecursionError:") and "Traceback" not in err


def test_input_is_required_and_exclusive():
    """[TRIVIAL] Exactly one of file and --expr."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval", "somefile", "--expr", "(1)"])
    assert exc.value.code == 2


def test_fuzz_flags_rejected_elsewhere():
    """[TRIVIAL] seed, count, and size belong to fuzz only."""
    for flag in (["--seed", "1"], ["--count", "2"], ["--size", "3"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["eval", "--expr", "(1)"] + flag)
        assert exc.value.code == 2


def test_bad_labeling_exits_two(tmp_path):
    """[TRIVIAL] A malformed labeling file is a usage error."""
    labels = tmp_path / "labels.txt"
    labels.write_text("h secret\n")
    code, _ = run_cli(["nifc", "--labels", str(labels), "--expr", "(1)"])
    assert code == 2


def test_closed_pipe_exits_two_quietly():
    """[DERIVED] A reader that stops after the first fuzz record ends the
    run with exit 2 and nothing on stderr: no error line, no message
    about a failed flush at shutdown."""
    proc = fresh_python(
        "-m", "refflow.cli", "fuzz", "--count", "300",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == "seed 0 size 1 pass\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    assert proc.stderr.read() == ""
    proc.stderr.close()



@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")
def test_overlong_integer_literal_exits_two(capsys):
    """[DERIVED] A 5000-digit literal is a parse error with exit 2 and a
    one-line message, not a traceback."""
    assert main(["parse", "--expr", "1" * 5000]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: integer literal of 5000 digits is too long (line 1, column 1)\n"


def test_big_computed_natural_prints(capsys):
    """[DERIVED] A product of two 3000-digit factors has 6000 digits, past
    int's default string-conversion limit; eval prints it exactly and
    exits 0."""
    factor = "9" * 3000
    expected = "9" * 2999 + "8" + "0" * 2999 + "1"
    code, out = run_cli(["eval", "--json", "--expr", f"(* {factor} {factor})"])
    assert code == 0 and json.loads(out)["value"] == expected
    code, out = run_cli(["eval", "--expr", f"(* {factor} {factor})"])
    assert code == 0 and f"value: {expected}\n" in out
    assert capsys.readouterr().err == ""


def test_non_utf8_source_exits_two(tmp_path, capsys):
    """[DERIVED] A source file that is not UTF-8 is a usage error naming
    the file and the first bad byte, for every command that reads one."""
    source = tmp_path / "prog.rf"
    source.write_bytes(b"(+ 1 \xff\xfe 2)")
    for command in ("parse", "eval", "typecheck", "check", "nifc"):
        assert main([command, str(source)]) == 2
        assert capsys.readouterr().err == f"input error: {source}: not UTF-8 at byte 5\n"


def test_non_utf8_labeling_exits_two(tmp_path, capsys):
    """[DERIVED] So is a labeling file that is not UTF-8."""
    labels = tmp_path / "labels.txt"
    labels.write_bytes(b"\xff\xfeh = high\n")
    assert main(["nifc", "--labels", str(labels), "--expr", "(1)"]) == 2
    assert capsys.readouterr().err == f"input error: {labels}: not UTF-8 at byte 0\n"


def test_file_newlines_read_as_text(tmp_path, capsys):
    """[DERIVED] CRLF and CR line ends read as LF, so positions in parse
    errors do not depend on them."""
    messages = []
    for newline in (b"\n", b"\r\n", b"\r"):
        source = tmp_path / "prog.rf"
        source.write_bytes(b"(let x 1" + newline + b"  (+ x ))")
        assert main(["parse", str(source)]) == 2
        messages.append(capsys.readouterr().err)
    assert len(set(messages)) == 1 and "line 2" in messages[0]


def test_fuzz_inconclusive_records_carry_debug_fields():
    """[DERIVED] Under a 5-step budget, inconclusive records carry the
    program, the budget note as the witness, and the steps; passing
    records keep exactly their four fields."""
    code, out = run_cli(["fuzz", "--json", "--seed", "0", "--count", "6", "--steps", "5"])
    assert code == 3
    records = json.loads(out)["records"]
    assert {r["outcome"] for r in records} == {"pass", "inconclusive"}
    for record in records:
        if record["outcome"] == "pass":
            assert set(record) == {"seed", "size", "outcome", "failed_clauses"}
            continue
        assert record["program"] == pretty(gen_program(record["seed"], record["size"]))
        assert record["witness"] == "evaluation exceeded 5 steps"
        assert record["steps"] == 5


def test_fuzz_failure_records_carry_first_witness(monkeypatch):
    """[DERIVED] A failing record's witness is the first witness of its
    first failing clause; text mode prints the fields under its line."""
    import refflow.cli as cli

    def mutated(program, budget):
        return check_soundness(program, budget=budget, mutation="tvar-drop-atom")

    monkeypatch.setattr(cli, "check_soundness", mutated)
    code, out = run_cli(["fuzz", "--json", "--seed", "0", "--count", "20"])
    assert code == 1
    failing = [r for r in json.loads(out)["records"] if r["outcome"] == "fail"]
    assert failing
    for record in failing:
        program = gen_program(record["seed"], record["size"])
        report = check_soundness(program, mutation="tvar-drop-atom")
        first = report.clauses[record["failed_clauses"][0]].witnesses[0]
        assert record["witness"] == first
        assert record["steps"] == report.steps and record["program"] == pretty(program)
    code, text = run_cli(["fuzz", "--seed", "0", "--count", "20"])
    lines = text.splitlines()
    record = failing[0]
    at = lines.index(
        f"seed {record['seed']} size {record['size']} fail " + ",".join(record["failed_clauses"])
    )
    assert lines[at + 1 : at + 4] == [
        f"  steps: {record['steps']}",
        f"  witness: {record['witness']}",
        f"  program: {record['program']}",
    ]


# ---------------------------------------------------------------------------
# Machine output
# ---------------------------------------------------------------------------


def test_json_modes_are_pure_json():
    """[TRIVIAL] --json emits exactly one JSON document."""
    for argv in (
        ["parse", "--json", "--expr", ALIAS_CHAIN_SRC],
        ["eval", "--json", "--trace", "--expr", ALIAS_CHAIN_SRC],
        ["typecheck", "--json", "--expr", ALIAS_CHAIN_SRC],
        ["check", "--json", "--expr", ALIAS_CHAIN_SRC],
        ["fuzz", "--json", "--seed", "2", "--count", "3", "--size", "5"],
    ):
        _, out = run_cli(argv)
        json.loads(out)


def test_json_output_is_stable():
    """[DERIVED] Repeated runs emit identical bytes."""
    argv = ["eval", "--json", "--expr", ALIAS_CHAIN_SRC]
    outputs = {run_cli(argv)[1] for _ in range(3)}
    assert len(outputs) == 1


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "command, source, recorded",
    [
        ("eval", "countdown.rf", "countdown.eval.json"),
        ("eval --trace", "countdown.rf", "countdown.trace.json"),
        ("eval", "cases8.rf", "cases8.eval.json"),
        ("check", "cases8.rf", "cases8.check.json"),
        ("typecheck", "cases8.rf", "cases8.typecheck.json"),
        ("nifc", "cases8.rf", "cases8.nifc.json"),
        ("parse", "rebind.rf", "rebind.parse.json"),
        ("typecheck", "fork.rf", "fork.typecheck.json"),
        ("check", "fork.rf", "fork.check.json"),
        ("typecheck", "twocell.rf", "twocell.typecheck.json"),
        ("check", "twocell.rf", "twocell.check.json"),
        ("nifc", "twocell.rf", "twocell.nifc.json"),
    ],
)
def test_recorded_json_outputs(command, source, recorded):
    """[DERIVED] eval --json on an untyped recursive countdown, which
    revisits binding points, the same with --trace (one record per rule,
    read off the evaluator's end events), eval --json on cases(8), whose
    two-arm cases branch and join the realized order, check --json on
    cases(8), typecheck --json on cases(8) (Pi's edges, Γ and every point's type),
    nifc --json on cases(8) under its default labeling
    (tests/data/cases8.labels; the high cell reaches low binders, so nifc
    exits 1), and parse --json on a program that repeats every binder
    form, shadows names and reads a free x_1, and typecheck --json and
    check --json on an application of a function with two origins
    (fork.rf: Pi forks into both bodies and joins after them, and Γ
    merges the cell's per-body entries), and typecheck, check and nifc
    --json on a write and reads through a case that yields one of two
    cells (twocell.rf: the five-member block {p, r1, r2, v4, v7}, a read
    v4@18, v7@18 of both cells, a write binding both, an arrow with a
    pending atom, three flows of a high b), print the bytes recorded in
    tests/data; CI compares a fresh process against the same files."""
    argv = [*command.split(), "--json", str(DATA / source)]
    if command == "nifc":
        argv += ["--labels", str(DATA / source.replace(".rf", ".labels"))]
    code, out = run_cli(argv)
    assert code == (1 if command == "nifc" else 0)
    assert out == (DATA / recorded).read_text(encoding="utf-8")


def test_recorded_nifc_text_output():
    """[DERIVED] nifc without --json on cases(8) under its default
    labeling prints the bytes recorded in tests/data/cases8.nifc.txt,
    the flows in the order of the --json output; CI compares a fresh
    process against the same file."""
    argv = ["nifc", str(DATA / "cases8.rf"), "--labels", str(DATA / "cases8.labels")]
    code, out = run_cli(argv)
    assert code == 1
    assert out == (DATA / "cases8.nifc.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("source", ["cases8.rf", "fork.rf", "twocell.rf"])
@pytest.mark.parametrize(
    "command, suffix",
    [("eval", "eval"), ("eval --trace", "trace"), ("typecheck", "typecheck"), ("check", "check")],
)
def test_recorded_text_outputs(command, suffix, source):
    """[DERIVED] eval, eval --trace, typecheck and check without --json
    print the bytes recorded in tests/data/<name>.<suffix>.txt.  In
    cases8.eval.txt a pair lists its atoms by (subject, point), so
    {h@5, r@9, r@14}, where --json lists them by their string; CI
    compares a fresh process against the same files."""
    code, out = run_cli([*command.split(), str(DATA / source)])
    assert code == 0
    assert out == (DATA / source.replace(".rf", f".{suffix}.txt")).read_text(encoding="utf-8")


def test_eval_json_content():
    """[DERIVED] The machine document carries the same oracle facts as
    the human report."""
    _, out = run_cli(["eval", "--json", "--expr", ALIAS_CHAIN_SRC])
    doc = json.loads(out)
    assert doc["value"] == "5"
    assert doc["pair"] == {"locs": ["loc0@8"], "vars": ["x@6", "z@7"]}
    assert doc["steps"] == 12
    assert ["2", "4"] not in doc["order"]
    assert [2, 4] in doc["order"]
