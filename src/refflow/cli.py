"""Command-line front end tying the pipeline together.

Six commands, one per stage:

* ``parse`` prints the labeled tree,
* ``eval`` runs the collecting evaluator and prints the value, the
  final dependency pair, and the recorded bindings,
* ``typecheck`` prints the analysis report: a type per point, the
  environment, the order, and the alias blocks,
* ``check`` runs the soundness oracle and prints its report,
* ``fuzz`` runs the oracle over a range of generated programs,
* ``nifc`` checks noninterference under a labeling.

Exit codes: 0 when everything holds, 1 when the analysis rejects the
program or a verdict fails, 2 on usage or parse errors and on input
files that are not UTF-8, 3 when a run is inconclusive because the step
budget ran out or the program nests too deeply for Python's recursion
limit (a ``RecursionError`` or ``MemoryError`` in any command).

Each command builds one document.  ``--json`` dumps it to stdout as a
single machine-readable document, and the text form prints the same
document; the two modes never mix on one stream.  The one difference
is a dependency pair's order: text lists its atoms by (subject, point),
as ``{h@5, r@9, r@14}``, where ``--json`` sorts their strings, as
``["h@5","r@14","r@9"]``.  ``fuzz`` streams its text records as it
checks each program.  Machine output is byte-stable for identical
inputs and flags: keys are sorted, collections are emitted in a
deterministic order, and nothing depends on the clock.  The ``--trace``
line format is ``<rule> <point> <pair>``, one line per rule
application, in application order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .agreement import check_soundness, gen_program
from .security import LabelingError, check_noninterference, parse_labeling, show_flow
from .semantics import (
    DepPair,
    EvalBudgetExceeded,
    EvalError,
    evaluate,
    show_value,
    w_key,
)
from .syntax import (
    Abstraction,
    Application,
    Assign,
    Case,
    Constant,
    Deref,
    FunctionalApplication,
    Group,
    Let,
    LetRec,
    Occurrence,
    Pattern,
    Ref,
    SyntaxModuleError,
    Variable,
    parse,
    pretty,
)
from .typesys import TypeCheckError, atom_key, show_atom, show_type, subject_key, type_dict, typecheck

EXIT_PASS = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_REPORT_EXITS = {"pass": EXIT_PASS, "fail": EXIT_REJECT, "inconclusive": EXIT_INCONCLUSIVE}

DEFAULT_BUDGET = 1_000_000


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

_RULE_NAMES = {
    Constant: "CONST",
    Variable: "VAR",
    Abstraction: "ABS",
    Application: "APP",
    FunctionalApplication: "PRIM",
    Let: "LET",
    LetRec: "LET-REC",
    Case: "CASE",
    Ref: "REF",
    Assign: "REF-WRITE",
    Deref: "REF-READ",
    Group: "GROUP",
}


def _show_pair(pair: DepPair) -> str:
    # text lists atoms by (subject, point) and --json by their strings, which
    # tests/data/*.eval.json and bench/expected.json pin; so text reads the pair
    locs, vars_ = (", ".join(map(show_atom, sorted(atoms))) for atoms in (pair.locs, pair.vars))
    return f"({{{locs}}}, {{{vars_}}})"


def _pair_dict(pair: DepPair) -> dict:
    return {"locs": sorted(map(show_atom, pair.locs)), "vars": sorted(map(show_atom, pair.vars))}


def _pattern_dict(pattern: Pattern) -> dict:
    """A pattern's class name less its leading P as ``pat``, then its fields."""

    doc: dict = {"pat": type(pattern).__name__[1:].lower()}
    for field in pattern.__match_args__:
        value = getattr(pattern, field)
        doc[field] = [_pattern_dict(item) for item in value] if field == "items" else value
    return doc


def _tree_dict(program: Occurrence) -> dict:
    """Each node's point, kind and fields, read off ``__match_args__``; a
    ``Deref``'s ref prints as ``target`` and a case's patterns and clauses
    as ``branches``, a list of ``{pattern, body}``."""

    root: dict = {}
    stack = [(program, root)]

    def child(occ: Occurrence) -> dict:
        stack.append((occ, {}))
        return stack[-1][1]

    while stack:
        occ, node = stack.pop()
        expr = occ.expr
        node.update(point=occ.point, kind=type(expr).__name__)
        for field in expr.__match_args__:
            value = getattr(expr, field)
            if isinstance(value, Occurrence):
                node["target" if field == "ref" else field] = child(value)
            elif field == "clauses":
                node["branches"] = [
                    {"pattern": _pattern_dict(pat), "body": child(clause)}
                    for pat, clause in zip(expr.patterns, value)
                ]
            elif field != "patterns":
                node[field] = show_value(value) if isinstance(expr, Constant) else value
    return root


def _emit(args, doc: dict, print_text) -> None:
    """Dump the command's document with ``--json``, else print it as text."""

    if args.json:
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_pair_dict) + "\n")
    else:
        print_text(doc)


def _print_edges(title: str, edges: list) -> None:
    print(f"{title}:")
    for before, after in edges:
        print(f"  {before} -> {after}")


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


class InputError(Exception):
    """An input file that is not UTF-8 text."""


def _read_text(path: str) -> str:
    """The file decoded as UTF-8, with newlines translated as text mode does."""

    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 at byte {err.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_program(args) -> Occurrence:
    if args.expr is not None:
        return parse(args.expr)
    return parse(_read_text(args.source))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    program = _load_program(args)
    doc = {"pretty": pretty(program), "tree": _tree_dict(program)}
    _emit(args, doc, lambda doc: print(doc["pretty"]))
    return EXIT_PASS


def _print_eval(doc: dict) -> None:
    for step in doc["trace"]:
        print(f"{step['rule']} {step['point']} {_show_pair(step['pair'])}")
    print(f"value: {doc['value']}")
    print(f"pair: {_show_pair(doc['pair'])}")
    print("w:")
    for entry in doc["w"]:
        print(f"  {entry['subject']}@{entry['point']} -> {_show_pair(entry['pair'])}")
    _print_edges("order", doc["order"])


def _cmd_eval(args) -> int:
    program = _load_program(args)
    trace: list = []

    def on_step(kind, occ, env, value, pair, dep):
        if kind == "end":
            trace.append({"rule": _RULE_NAMES[type(occ.expr)], "point": occ.point, "pair": pair})

    outcome = evaluate(program, budget=args.steps, on_step=on_step if args.trace else None)
    # the document holds DepPairs: --json dumps them with _pair_dict, text with _show_pair
    doc = {
        "value": show_value(outcome.value),
        "pair": outcome.pair,
        "steps": outcome.steps,
        "w": [
            {"subject": str(subject), "point": point, "pair": pair}
            for (subject, point), pair in sorted(outcome.dep.w.items(), key=w_key)
        ],
        "order": [list(edge) for edge in sorted(outcome.dep.edges)],
        "trace": trace,
    }
    _emit(args, doc, _print_eval)
    return EXIT_PASS


def _print_typecheck(doc: dict) -> None:
    print(f"result: {show_type(doc['result'])}")
    print("types:")
    for point, ty in doc["types"].items():
        print(f"  {point}: {show_type(ty)}")
    print("gamma:")
    for entry in doc["gamma"]:
        print(f"  {entry['subject']}@{entry['point']}: {show_type(entry['type'])}")
    _print_edges("pi", doc["pi"])
    print("alias:")
    for block in doc["alias"]:
        print("  {" + ", ".join(block) + "}")


def _cmd_typecheck(args) -> int:
    program = _load_program(args)
    analysis = typecheck(program)
    atoms = analysis.atoms
    doc = {
        "result": type_dict(analysis.result_type, atoms),
        # in point order for text; --json sorts the keys as strings
        "types": {str(point): type_dict(ty, atoms) for point, ty in sorted(analysis.type_of.items())},
        "gamma": [
            {"subject": str(subject), "point": point, "type": type_dict(ty, atoms)}
            for (subject, point), ty in sorted(analysis.gamma.entries.items(), key=lambda item: atom_key(item[0]))
        ],
        "pi": [list(edge) for edge in sorted(analysis.pi.edges)],
        "alias": [[str(s) for s in sorted(block, key=subject_key)] for block in analysis.alias_base],
    }
    _emit(args, doc, _print_typecheck)
    return EXIT_PASS


def _print_verdict(indent: str, name: str, verdict: dict) -> None:
    print(f"{indent}{name}: {'holds' if verdict['holds'] else 'fails'} ({verdict['activity']} checks)")
    for witness in verdict["witnesses"]:
        print(f"{indent}  witness: {witness}")


def _print_check(doc: dict) -> None:
    print(f"outcome: {doc['outcome']}")
    print(f"steps: {doc['steps']}")
    if doc["note"]:
        print(f"note: {doc['note']}")
    print("clauses:")
    for name, verdict in doc["clauses"].items():
        _print_verdict("  ", name, verdict)
    _print_verdict("", "binding_lemma", doc["binding_lemma"])


def _cmd_check(args) -> int:
    program = _load_program(args)
    report = check_soundness(program, budget=args.steps)
    _emit(args, report.to_dict(), _print_check)
    return _REPORT_EXITS[report.outcome]


def _first_witness(report) -> str:
    """The first failing clause's first witness, else the binding lemma's,
    else the report's note (a runtime error or the exhausted budget)."""

    failed = report.failed_clauses()
    if failed:
        return report.clauses[failed[0]].witnesses[0]
    if report.binding_lemma.witnesses:
        return report.binding_lemma.witnesses[0]
    return report.note


def _print_fuzz_record(record) -> None:
    line = f"seed {record['seed']} size {record['size']} {record['outcome']}"
    if record["failed_clauses"]:
        line += " " + ",".join(record["failed_clauses"])
    print(line)
    if "program" in record:
        print(f"  steps: {record['steps']}")
        print(f"  witness: {record['witness']}")
        print(f"  program: {record['program']}")


def _cmd_fuzz(args) -> int:
    if args.count < 1 or args.size < 1:
        return _fail("count and size must be positive", EXIT_USAGE)
    records = []
    tally = {"pass": 0, "fail": 0, "inconclusive": 0, "rejected": 0}
    for seed in range(args.seed, args.seed + args.count):
        size = 1 + (seed % args.size)
        program = gen_program(seed, size)
        record = {"seed": seed, "size": size}
        try:
            report = check_soundness(program, budget=args.steps)
        except TypeCheckError as err:
            record.update(outcome="rejected", failed_clauses=[str(err)])
        else:
            record.update(outcome=report.outcome, failed_clauses=list(report.failed_clauses()))
            if report.outcome != "pass":
                record.update(program=pretty(program), witness=_first_witness(report), steps=report.steps)
        tally[record["outcome"]] += 1
        if args.json:
            records.append(record)
        else:
            # stream the text records, so a reader that stops early stops the run
            _print_fuzz_record(record)
            sys.stdout.flush()
    summary = "summary: pass {pass} fail {fail} inconclusive {inconclusive} rejected {rejected}"
    # text streamed the records as they came; the summary is what is left to print
    _emit(args, {"records": records, "summary": tally}, lambda doc: print(summary.format_map(doc["summary"])))
    if tally["fail"] or tally["rejected"]:
        return EXIT_REJECT
    if tally["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _print_nifc(doc: dict) -> None:
    print(f"verdict: {'pass' if doc['ok'] else 'violation'}")
    if not doc["ok"]:  # a verdict fails exactly when it has flows
        print("flows:")
        for flow in doc["flows"]:
            print(f"  {show_flow(flow)}")
    print(f"formulations agree: {'true' if doc['formulations_agree'] else 'false'}")


def _cmd_nifc(args) -> int:
    program = _load_program(args)
    labeling: dict = {}
    if args.labels is not None:
        labeling = parse_labeling(_read_text(args.labels))
    verdict = check_noninterference(program, labeling)
    _emit(args, verdict.to_dict(), _print_nifc)
    return EXIT_PASS if verdict.ok else EXIT_REJECT


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("source", nargs="?", help="path to a program file")
    sub.add_argument("--expr", help="inline program source instead of a file")


def _add_json(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refflow",
        description="Data-flow and alias analysis for a small reference language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="print the labeled tree")
    _add_input(p_parse)
    _add_json(p_parse)
    p_parse.set_defaults(handler=_cmd_parse)

    p_eval = sub.add_parser("eval", help="run the collecting evaluator")
    _add_input(p_eval)
    _add_json(p_eval)
    p_eval.add_argument("--trace", action="store_true", help="print one line per rule")
    p_eval.add_argument("--steps", type=int, default=DEFAULT_BUDGET, help="step budget")
    p_eval.set_defaults(handler=_cmd_eval)

    p_type = sub.add_parser("typecheck", help="run the static analysis")
    _add_input(p_type)
    _add_json(p_type)
    p_type.set_defaults(handler=_cmd_typecheck)

    p_check = sub.add_parser("check", help="compare the analysis against a run")
    _add_input(p_check)
    _add_json(p_check)
    p_check.add_argument("--steps", type=int, default=DEFAULT_BUDGET, help="step budget")
    p_check.set_defaults(handler=_cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="check generated programs")
    _add_json(p_fuzz)
    p_fuzz.add_argument("--seed", type=int, default=0, help="first seed")
    p_fuzz.add_argument("--count", type=int, default=100, help="number of programs")
    p_fuzz.add_argument("--size", type=int, default=30, help="size cap; seed s gets size 1 + (s mod cap)")
    p_fuzz.add_argument("--steps", type=int, default=DEFAULT_BUDGET, help="step budget")
    p_fuzz.set_defaults(handler=_cmd_fuzz)

    p_nifc = sub.add_parser("nifc", help="check noninterference under a labeling")
    _add_input(p_nifc)
    _add_json(p_nifc)
    p_nifc.add_argument("--labels", help="labeling file: one 'name = high|low' per line")
    p_nifc.set_defaults(handler=_cmd_nifc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "source"):
        given_file = args.source is not None
        given_expr = args.expr is not None
        if given_file == given_expr:
            parser.error(f"{args.command} needs a source file or --expr, not both")
    if getattr(args, "steps", 1) < 1:
        parser.error("--steps must be positive")
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so the flush
        # at exit finds nowhere to fail (the recipe in Python's signal
        # module documentation), and end quietly as an I/O error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except SyntaxModuleError as err:
        return _fail(f"parse error: {err}", EXIT_USAGE)
    except TypeCheckError as err:
        return _fail(f"rejected: {err}", EXIT_REJECT)
    except EvalBudgetExceeded as err:
        return _fail(f"inconclusive: {err}", EXIT_INCONCLUSIVE)
    except EvalError as err:
        return _fail(f"evaluation error: {err}", EXIT_REJECT)
    except LabelingError as err:
        return _fail(f"labeling error: {err}", EXIT_USAGE)
    except InputError as err:
        return _fail(f"input error: {err}", EXIT_USAGE)
    except OSError as err:
        return _fail(str(err), EXIT_USAGE)
    except (RecursionError, MemoryError) as err:
        # the parser, the checking walk and the evaluator recurse once per
        # nesting level, so a deep program decides nothing
        return _fail(
            f"inconclusive: {type(err).__name__}: the program nests too deeply"
            f" for the recursion limit of {sys.getrecursionlimit()}",
            EXIT_INCONCLUSIVE,
        )


if __name__ == "__main__":
    sys.exit(main())
