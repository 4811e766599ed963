"""Source hygiene: every imported name is used, every name the
benchmark's tracer wraps exists where it looks, and importing the CLI
loads no module that generates code.

Tags: [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
from pathlib import Path

import refflow
from refflow.typesys import Pi

from conftest import fresh_python

ROOTS = (Path(refflow.__file__).parent, Path(__file__).parent)


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of each import binding that no name in the module
    reads; ``__future__`` imports count as used."""

    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    """[TRIVIAL] No module under src/refflow or tests imports a name it
    never uses."""
    unused = [
        f"{path.name}:{line}: {name}"
        for root in ROOTS
        for path in sorted(root.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def _bench_table(tree: ast.Module, name: str) -> tuple:
    """The literal a module-level assignment binds to ``name``."""

    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_tracer_names_resolve():
    """[TRIVIAL] Every (module, attribute) in bench/tracing.py's FUNCTIONS
    resolves on refflow, and every PI_METHODS name is defined on Pi
    itself, where the tracer patches it.  The tables are read from the
    source as literals, so nothing under bench/ is imported or compiled."""
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions, pi_methods = _bench_table(tree, "FUNCTIONS"), _bench_table(tree, "PI_METHODS")
    assert functions and pi_methods
    for _, module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(f"refflow.{module}"), attr)), (module, attr)
    for _, attr, _ in pi_methods:
        assert attr in Pi.__dict__, attr


def test_cli_import_generates_no_code():
    """[TRIVIAL] A fresh ``import refflow.cli`` adds neither
    ``dataclasses`` nor ``inspect`` to ``sys.modules``: the records are
    plain classes, so the import compiles no generated methods."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import refflow.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules).difference(before)))\n"
    )
    proc = fresh_python("-c", code, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out == "[]\n"
