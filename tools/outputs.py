"""Digests of every command's output, to show that a change leaves them
byte-identical.

    PYTHONPATH=src python3 tools/outputs.py > after.txt

The tree under test is the ``refflow`` that ``PYTHONPATH`` names, so
running this script once against each of two trees and ``diff``-ing the
two outputs compares them:

    PYTHONPATH=/path/to/parent/src python3 tools/outputs.py > before.txt
    diff before.txt after.txt

Each program gets one sha256 line over ``parse``, ``eval``, ``eval
--trace``, ``typecheck``, ``check`` and ``nifc`` (under the program's
``default_labeling``, written to a labels file in a temporary
directory), each as text and with ``--json``: per run the argument
list, the exit code, stdout and stderr.  The programs are the 1000
corpus programs ``gen_program(i, 1 + i % 30)``, ``cases(4/8/20/80)``,
``chain(5/30)``, ``tests/data/*.rf`` and a few edge programs: a parse
error, a runtime error, unbounded recursion, nesting past the recursion
limit, a stuck subtraction, and a labeled group with tuple patterns.
Then come one line each for ``fuzz --count 200`` as text and as
``--json``, and a total over every line before it.  The commands run in
this process through ``refflow.cli.main``.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from refflow.agreement import gen_program
from refflow.cli import main as refflow_main
from refflow.security import default_labeling
from refflow.syntax import SyntaxModuleError, parse, pretty

from families import cases_source, chain_source

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

COMMANDS = (["parse"], ["eval"], ["eval", "--trace"], ["typecheck"], ["check"], ["nifc"])

EDGE_PROGRAMS = {
    "edge-parse-error": "(let x 1",
    "edge-runtime-error": "(case 3 [0 -> 1])",
    "edge-unbounded-recursion": r"(let rec f (\x. (f x)) (f 1))",
    "edge-too-deep": "(! " * 400 + "r" + ")" * 400,
    "edge-stuck": "(- 1 5)",
    "edge-group-and-tuple": "(let x (5@3)@4 (case x [(a, (1, true)) -> a, _ -> x]))",
}


def run(argv: list) -> bytes:
    """One command's argument list, exit code, stdout and stderr."""

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = refflow_main(argv)
    return repr((argv, code, out.getvalue(), err.getvalue())).encode()


def labels_file(source: str, name: str) -> str:
    """A labels file in the working directory, named relative to it so
    that the argument lists hashed do not name the temporary directory."""

    try:
        labeling = default_labeling(parse(source))
    except (SyntaxModuleError, RecursionError):
        labeling = {}
    path = f"{name}.labels"
    Path(path).write_text("".join(f"{n} = {level}\n" for n, level in sorted(labeling.items())))
    return path


def program_digest(source: str, labels: str) -> str:
    digest = hashlib.sha256()
    for command in COMMANDS:
        extra = ["--labels", labels] if command == ["nifc"] else []
        for mode in ([], ["--json"]):
            digest.update(run([*command, *mode, "--expr", source, *extra]))
    return digest.hexdigest()


def programs():
    for i in range(1000):
        yield f"corpus-{i}", pretty(gen_program(i, 1 + i % 30))
    for n in (4, 8, 20, 80):
        yield f"cases-{n}", cases_source(n)
    for n in (5, 30):
        yield f"chain-{n}", chain_source(n)
    for path in sorted(DATA.glob("*.rf")):
        yield path.name, path.read_text(encoding="utf-8")
    yield from EDGE_PROGRAMS.items()


def main() -> None:
    lines = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, source in programs():
                lines.append(f"{program_digest(source, labels_file(source, name))} {name}")
                print(lines[-1], flush=True)
        finally:
            os.chdir(home)
    for mode in ([], ["--json"]):
        argv = ["fuzz", "--count", "200", *mode]
        lines.append(f"{hashlib.sha256(run(argv)).hexdigest()} {' '.join(argv)}")
        print(lines[-1])
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total} total")


if __name__ == "__main__":
    main()
