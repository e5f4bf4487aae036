"""Every output byte against hashes pinned on one platform: the lines of
tests/identity.py (every file and the stdout of `latebind run` at three seeds
and of `latebind calibrate`, and the budget runs' rows), checked in as
tests/identity.txt.  Latencies pass through libm, so elsewhere the bytes may
differ and these tests skip, as tests/test_pinned.py's do.  A change that sets
out to change an output rewrites the file with
`python tests/identity.py > tests/identity.txt` and names each changed line.
"""

from __future__ import annotations

from pathlib import Path

import identity
from latebind import bench, cli
from test_pinned import pinned_platform

PINNED_LINES = (Path(__file__).resolve().parent / "identity.txt").read_text(
    encoding="utf-8").splitlines()


def pinned(kind: str) -> list[str]:
    """The pinned lines whose label starts with `kind`, in file order."""
    return [line for line in PINNED_LINES if line.split("  ", 1)[1].startswith(kind + " ")]


def test_pinned_file_is_runs_budgets_and_calibrations():
    assert len(PINNED_LINES) == 126
    assert pinned("run") + pinned("budget") + pinned("calibrate") == PINNED_LINES


@pinned_platform
def test_run_outputs_match_pinned_hashes(default_run):
    got = [line for name in bench.SCENARIOS for seed in identity.SEEDS
           for line in default_run(name, seed).outputs]
    assert got == pinned("run")


@pinned_platform
def test_budget_rows_match_pinned_hashes():
    assert identity.budget_outputs() == pinned("budget")


@pinned_platform
def test_calibrate_outputs_match_pinned_hashes():
    assert identity.calibrate_outputs(cli) == pinned("calibrate")
