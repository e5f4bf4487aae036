"""Every module-level function and class of the package, and every method
and property of its classes but the dunders, is named somewhere in src/ or
perfbench/ outside its own definition.  A name that only tests reach is
code no entry point runs: it belongs in tests/ or nowhere."""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latebind"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached() -> list[str]:
    # (file, top-level definition, member definition), None where there is none
    defined: list[tuple[Path, str, str | None]] = []
    # name -> the (file, top-level definition, member) places it appears in
    named: dict[str, set[tuple[Path, str | None, str | None]]] = defaultdict(set)
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_package = path.parent == PACKAGE
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None and in_package:
                defined.append((path, owner, None))
            parts = [(stmt, None)]
            if isinstance(stmt, ast.ClassDef):
                parts = [(part, part.name if isinstance(part, FUNCTIONS) else None)
                         for part in stmt.body]
                parts += [(part, None) for part in (*stmt.bases, *stmt.decorator_list)]
                for part, member in parts:
                    if member is not None and in_package and not is_dunder(member):
                        defined.append((path, owner, member))
            for part, member in parts:
                for name in names_in(part):
                    named[name].add((path, owner, member))

    def outside(path: Path, owner: str, member: str | None) -> bool:
        if member is None:
            return any((where, top) != (path, owner) for where, top, _ in named[owner])
        return bool(named[member] - {(path, owner, member)})

    return [f"{path.relative_to(ROOT)}::{owner}" + (f".{member}" if member else "")
            for path, owner, member in defined if not outside(path, owner, member)]


def test_every_package_definition_is_named_outside_tests():
    assert unreached() == []
