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

``--json`` switches stdout to a single machine-readable document; the
two modes never mix on one stream.  Machine output is byte-stable for
identical inputs and flags: keys are sorted, collections are emitted
in a deterministic order, and nothing depends on the clock.  The
``--trace`` line format is ``<rule> <point> <pair>``, one line per rule
application, in application order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .agreement import check_soundness, gen_program
from .security import LabelingError, check_noninterference, parse_labeling
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
    PBool,
    PNat,
    PTuple,
    PVar,
    PWildcard,
    Pattern,
    Ref,
    SyntaxModuleError,
    Variable,
    parse,
    pretty,
)
from .typesys import TypeCheckError, show_type, subject_key, type_dict, typecheck

EXIT_PASS = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

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
    locs = ", ".join(f"{loc}@{pt}" for loc, pt in sorted(pair.locs))
    vars_ = ", ".join(f"{name}@{pt}" for name, pt in sorted(pair.vars))
    return f"({{{locs}}}, {{{vars_}}})"


def _pair_dict(pair: DepPair) -> dict:
    return {
        "locs": sorted(f"{loc}@{pt}" for loc, pt in pair.locs),
        "vars": sorted(f"{name}@{pt}" for name, pt in pair.vars),
    }


def _pattern_dict(pattern: Pattern) -> dict:
    match pattern:
        case PNat(value):
            return {"pat": "nat", "value": value}
        case PBool(value):
            return {"pat": "bool", "value": value}
        case PVar(name):
            return {"pat": "var", "name": name}
        case PWildcard():
            return {"pat": "wildcard"}
        case PTuple(items):
            return {"pat": "tuple", "items": [_pattern_dict(item) for item in items]}
    raise TypeError(f"unknown pattern {pattern!r}")


def _tree_dict(occ: Occurrence) -> dict:
    node: dict = {"point": occ.point, "kind": type(occ.expr).__name__}
    match occ.expr:
        case Constant(value):
            node["value"] = show_value(value)
        case Variable(name):
            node["name"] = name
        case Abstraction(param, body):
            node["param"] = param
            node["body"] = _tree_dict(body)
        case Application(fn, arg):
            node["fn"] = _tree_dict(fn)
            node["arg"] = _tree_dict(arg)
        case FunctionalApplication(op, left, right):
            node["op"] = op
            node["left"] = _tree_dict(left)
            node["right"] = _tree_dict(right)
        case Let(name, bound, body) | LetRec(name, bound, body):
            node["name"] = name
            node["bound"] = _tree_dict(bound)
            node["body"] = _tree_dict(body)
        case Case(scrutinee, patterns, clauses):
            node["scrutinee"] = _tree_dict(scrutinee)
            node["branches"] = [
                {"pattern": _pattern_dict(pat), "body": _tree_dict(clause)}
                for pat, clause in zip(patterns, clauses)
            ]
        case Ref(init):
            node["init"] = _tree_dict(init)
        case Assign(target, value):
            node["target"] = _tree_dict(target)
            node["value"] = _tree_dict(value)
        case Deref(target):
            node["target"] = _tree_dict(target)
        case Group(inner):
            node["inner"] = _tree_dict(inner)
    return node


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


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
    if args.json:
        _emit_json({"pretty": pretty(program), "tree": _tree_dict(program)})
    else:
        print(pretty(program))
    return EXIT_PASS


def _cmd_eval(args) -> int:
    program = _load_program(args)
    trace: list = []

    def on_step(kind, occ, env, value, pair, dep):
        if kind == "end":
            trace.append((_RULE_NAMES[type(occ.expr)], occ.point, pair))

    try:
        outcome = evaluate(
            program,
            budget=args.steps,
            on_step=on_step if args.trace else None,
        )
    except EvalBudgetExceeded as err:
        return _fail(f"inconclusive: {err}", EXIT_INCONCLUSIVE)
    except EvalError as err:
        return _fail(f"evaluation error: {err}", EXIT_REJECT)

    w_items = sorted(outcome.dep.w.items(), key=w_key)
    order = sorted(outcome.dep.edges)
    if args.json:
        _emit_json(
            {
                "value": show_value(outcome.value),
                "pair": _pair_dict(outcome.pair),
                "steps": outcome.steps,
                "w": [
                    {"subject": str(subject), "point": point, "pair": _pair_dict(pair)}
                    for (subject, point), pair in w_items
                ],
                "order": [list(edge) for edge in order],
                "trace": [
                    {"rule": rule, "point": point, "pair": _pair_dict(pair)}
                    for rule, point, pair in trace
                ],
            }
        )
        return EXIT_PASS
    for rule, point, pair in trace:
        print(f"{rule} {point} {_show_pair(pair)}")
    print(f"value: {show_value(outcome.value)}")
    print(f"pair: {_show_pair(outcome.pair)}")
    print("w:")
    for (subject, point), pair in w_items:
        print(f"  {subject}@{point} -> {_show_pair(pair)}")
    print("order:")
    for before, after in order:
        print(f"  {before} -> {after}")
    return EXIT_PASS


def _cmd_typecheck(args) -> int:
    program = _load_program(args)
    try:
        analysis = typecheck(program)
    except TypeCheckError as err:
        return _fail(f"rejected: {err}", EXIT_REJECT)

    gamma_items = sorted(
        analysis.gamma.entries.items(),
        key=lambda item: (subject_key(item[0][0]), item[0][1]),
    )
    atoms, pi = analysis.atoms, analysis.pi
    edges = sorted(pi.edges)
    blocks = [
        [str(s) for s in sorted(block, key=subject_key)] for block in analysis.alias_base
    ]
    if args.json:
        _emit_json(
            {
                "result": type_dict(analysis.result_type, atoms),
                "types": {
                    str(point): type_dict(ty, atoms)
                    for point, ty in sorted(analysis.type_of.items())
                },
                "gamma": [
                    {"subject": str(subject), "point": point, "type": type_dict(ty, atoms)}
                    for (subject, point), ty in gamma_items
                ],
                "pi": [list(edge) for edge in edges],
                "alias": blocks,
            }
        )
        return EXIT_PASS
    print(f"result: {show_type(analysis.result_type, atoms)}")
    print("types:")
    for point, ty in sorted(analysis.type_of.items()):
        print(f"  {point}: {show_type(ty, atoms)}")
    print("gamma:")
    for (subject, point), ty in gamma_items:
        print(f"  {subject}@{point}: {show_type(ty, atoms)}")
    print("pi:")
    for before, after in edges:
        print(f"  {before} -> {after}")
    print("alias:")
    for block in blocks:
        print("  {" + ", ".join(block) + "}")
    return EXIT_PASS


def _report_exit(outcome: str) -> int:
    if outcome == "pass":
        return EXIT_PASS
    if outcome == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_REJECT


def _print_report(report) -> None:
    print(f"outcome: {report.outcome}")
    print(f"steps: {report.steps}")
    if report.note:
        print(f"note: {report.note}")
    print("clauses:")
    for name, verdict in sorted(report.clauses.items()):
        state = "holds" if verdict.holds else "fails"
        print(f"  {name}: {state} ({verdict.activity} checks)")
        for witness in verdict.witnesses:
            print(f"    witness: {witness}")
    state = "holds" if report.binding_lemma.holds else "fails"
    print(f"binding_lemma: {state} ({report.binding_lemma.activity} checks)")
    for witness in report.binding_lemma.witnesses:
        print(f"  witness: {witness}")


def _cmd_check(args) -> int:
    program = _load_program(args)
    try:
        report = check_soundness(program, budget=args.steps)
    except TypeCheckError as err:
        return _fail(f"rejected: {err}", EXIT_REJECT)
    if args.json:
        _emit_json(report.to_dict())
    else:
        _print_report(report)
    return _report_exit(report.outcome)


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
        try:
            report = check_soundness(program, budget=args.steps)
        except TypeCheckError as err:
            record = {"seed": seed, "size": size, "outcome": "rejected", "failed_clauses": [str(err)]}
        else:
            record = {
                "seed": seed,
                "size": size,
                "outcome": report.outcome,
                "failed_clauses": list(report.failed_clauses()),
            }
            if report.outcome != "pass":
                record["program"] = pretty(program)
                record["witness"] = _first_witness(report)
                record["steps"] = report.steps
        tally[record["outcome"]] += 1
        if args.json:
            records.append(record)
        else:
            # stream the text records, so a reader that stops early stops the run
            _print_fuzz_record(record)
            sys.stdout.flush()
    if args.json:
        _emit_json({"records": records, "summary": tally})
    else:
        print(
            "summary: pass {pass} fail {fail} inconclusive {inconclusive} rejected {rejected}".format(
                **tally
            )
        )
    if tally["fail"] or tally["rejected"]:
        return EXIT_REJECT
    if tally["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _cmd_nifc(args) -> int:
    program = _load_program(args)
    labeling: dict = {}
    if args.labels is not None:
        labeling = parse_labeling(_read_text(args.labels))
    try:
        verdict = check_noninterference(program, labeling)
    except TypeCheckError as err:
        return _fail(f"rejected: {err}", EXIT_REJECT)
    if args.json:
        _emit_json(verdict.to_dict())
    else:
        print(f"verdict: {'pass' if verdict.ok else 'violation'}")
        if not verdict.ok:  # a verdict fails exactly when it has flows
            print("flows:")
            for flow in verdict.flows:
                print(f"  {flow}")
        print(f"formulations agree: {'true' if verdict.formulations_agree else 'false'}")
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
