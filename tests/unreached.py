"""Run Tier-1 under a line tracer and print the lines of ``src/latebind`` that
no test executes.

Lines of the package's functions count; module-level and class-body lines,
which run at import, do not, and neither does a function's ``def`` line.
Code that a test runs in a child process (tests/test_memory_guard.py) is
not traced, so a line reached only there is printed too.  A function in
ALLOWED, with the reason it may stay unreached, has its lines printed but
marked as allowed; Tier-1's ``tests/test_unreached.py`` checks that each
of them still exists.  pytest does not collect this file: it is no
``test_*.py``.  Tracing makes Tier-1 several times slower.

    python tests/unreached.py            # pytest arguments may follow

Exit status: pytest's, when it fails; otherwise 1 when a line outside
ALLOWED is unreached, and 0 when none is.
"""

from __future__ import annotations

import inspect
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latebind"

# "module.qualified_name" of a function whose lines may stay unreached: why
ALLOWED = {
    "planner.predicted_cost": "nothing calls it; engine imports it only so that perfbench "
                              "can wrap it, and it goes with that metric (ROADMAP item 4)",
}


def function_lines(path: Path) -> dict[int, str]:
    """The lines of `path` that hold code of a function body, each with the
    qualified name of its function."""
    found: dict[int, str] = {}

    def walk(code: types.CodeType) -> None:
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            found.update((line, code.co_qualname) for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    return found


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}

    def local(frame: types.FrameType, event: str, arg: object):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame: types.FrameType, event: str, arg: object):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"Tier-1 did not pass (pytest exit {status}); no lines printed")
        return int(status)
    missed = allowed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        functions = function_lines(path)
        for number in sorted(functions.keys() - executed.get(str(path), set())):
            excused = f"{path.stem}.{functions[number]}" in ALLOWED
            print(f"{path.relative_to(ROOT)}:{number}: {lines[number - 1].strip()}"
                  + ("  [allowed]" if excused else ""))
            allowed += excused
            missed += not excused
    print(f"{missed + allowed} function lines of src/latebind that no test executes, "
          f"{allowed} of them in ALLOWED")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
