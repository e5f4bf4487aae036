"""Every module-level function and class of the package is named somewhere
in src/ or perfbench/ outside its own definition.  A name that only tests
reach is code no entry point runs: it belongs in tests/ or nowhere."""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latebind"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node: ast.AST) -> set[str]:
    """Identifiers a subtree names: loads, attributes, imports, and strings
    (perfbench wraps attributes by their names)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def unreached() -> list[str]:
    defined: list[tuple[Path, str]] = []
    # name -> (file, top-level definition it appears in, or None)
    named: dict[str, set[tuple[Path, str | None]]] = defaultdict(set)
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None and path.parent == PACKAGE:
                defined.append((path, owner))
            for name in names_in(stmt):
                named[name].add((path, owner))
    return [f"{path.relative_to(ROOT)}::{name}" for path, name in defined
            if not named[name] - {(path, name)}]


def test_every_package_definition_is_named_outside_tests():
    assert unreached() == []
