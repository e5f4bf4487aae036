"""Print one sha256 per output of the program, so that two checkouts can be
compared with one diff.

The outputs are every file and the stdout of ``latebind run`` for the three
scenarios at seeds 1, 100001 and 200001; the ``repr`` of ``run_scenario``'s
rows and failures per mode for the three scenarios at seed 1 under memory
budgets of 768, 256 and 64 KiB; and every file and the stdout of
``latebind calibrate`` at its defaults and at two other cost models.  The
output directory is masked as ``<out>`` wherever it is written.  ROOT
(default: this file's checkout) is the checkout whose ``src`` is imported,
so a checkout without this file can be hashed too, if its ``bench`` has
``SCENARIOS``.  pytest does not collect this file: it is no ``test_*.py``;
Tier-1's ``tests/test_identity.py`` compares these lines with
``tests/identity.txt``, sharing the ``run`` outputs with conftest's
``default_run``.

    python tests/identity.py > change.txt
    python tests/identity.py /path/to/parent > parent.txt
    diff parent.txt change.txt
    python tests/identity.py > tests/identity.txt   # after a change that sets out
                                                    # to change an output
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 100001, 200001)
BUDGETS_KIB = (768, 256, 64)
# the third never amortizes, so break_evens.csv holds only empty cells
CALIBRATIONS = ((), ("--cpu-per-item", "0.7", "--accel-setup", "5000",
                     "--accel-per-item", "0.3"), ("--accel-per-item", "2"))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dir_outputs(label: str, code: int, stdout: str, out: str) -> list[str]:
    """The hashed stdout, with its exit code, and files of one cli.main call
    that wrote under the directory `out`, masked as ``<out>``."""
    printed = f"exit {code}\n" + stdout.replace(out, "<out>")
    lines = [f"{sha(printed)}  {label} stdout"]
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8").replace(out, "<out>")
        lines.append(f"{sha(text)}  {label} {path.relative_to(out)}")
    return lines


def cli_outputs(cli, argv: list[str], label: str) -> list[str]:
    """The hashed stdout and files of one cli.main call."""
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, "--out", tmp])
        return dir_outputs(label, code, stdout.getvalue(), tmp)


def run_label(name: str, seed: int) -> str:
    """The label of `latebind run --scenario <name> --seed <seed>`'s lines."""
    return f"run {name} seed {seed}"


def budget_outputs() -> list[str]:
    """One line per scenario and budget: the hash of the seed-1 run's rows
    and failures per mode."""
    from latebind import bench
    from latebind.clock import SimulatedClock
    from latebind.engine import EngineConfig

    lines = []
    for name, build in bench.SCENARIOS.items():
        for kib in BUDGETS_KIB:
            reports = bench.run_scenario(
                build(seed=1), SimulatedClock(sigma=0.05),
                engine_config=EngineConfig(memory_budget_bytes=kib * 1024))
            rows = {mode: (report.rows, report.failures) for mode, report in reports.items()}
            failures = "/".join(str(report.failures) for report in reports.values())
            lines.append(f"{sha(repr(rows))}  budget {name} {kib} KiB "
                         f"(failures per mode {failures})")
    return lines


def calibrate_outputs(cli) -> list[str]:
    return [line for flags in CALIBRATIONS
            for line in cli_outputs(cli, ["calibrate", *flags],
                                    "calibrate " + (" ".join(flags) or "defaults"))]


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from latebind import bench, cli

    lines = [line for name in bench.SCENARIOS for seed in SEEDS
             for line in cli_outputs(cli, ["run", "--scenario", name, "--seed", str(seed)],
                                     run_label(name, seed))]
    print("\n".join(lines + budget_outputs() + calibrate_outputs(cli)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
