"""Source hygiene: every imported name is used.

Tags: [TRIVIAL] structural sanity.
"""

from __future__ import annotations

import ast
from pathlib import Path

import refflow

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
