"""Run Tier-1 against one-line mutations of the package and print the
survivors: the mutations that no test notices.

Each mutation replaces one line of ``src/latebind`` that must occur exactly
once.  It is applied to a temporary copy of what the tests read (COPIED;
pytest's ``pythonpath`` setting puts the copy's ``src`` first), and the
copy's tests run until their first failure.  The unmutated copy runs first
and must pass, so that a test the copy breaks cannot catch every mutation.
pytest does not collect this file: it is no ``test_*.py``.  Tier-1's
``tests/test_mutants.py`` checks that every mutation's line occurs once;
the copy leaves it out, since every mutated copy fails it.

    python tests/mutants.py                    # every mutation
    python tests/mutants.py spill_at_budget    # the named ones
    python tests/mutants.py --list

Exit status: 0 when every mutation is caught, 1 when some survive, 2 when
the unmutated copy fails, a mutation no longer matches the source or a run
could not start.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")

# name: (module under src/latebind, line as it stands, line as mutated)
MUTATIONS = {
    "no_hash_build_bytes": (
        "engine.py", "build_bytes = right_bytes if variant == HASH_JOIN else 0",
        "build_bytes = 0"),
    "spill_at_budget": ("engine.py", "spilled = working > budget",
                        "spilled = working >= budget"),
    "fail_at_hard_cap": ("engine.py", "if working > hard_cap:", "if working >= hard_cap:"),
    "scan_output_kept": (
        "engine.py", "left_bytes = VALUE_BYTES * left[q.left_key].size * len(left_cols)",
        "left_bytes = VALUE_BYTES * (left[q.left_key].size + fact.row_count) * len(left_cols)"),
    "right_branch_without_left": (
        "engine.py", "dim, [q.right_key], left_bytes)", "dim, [q.right_key], 0)"),
    "filter_without_scan_bytes": (
        "engine.py", "earlier + (n + kept[pred.column].size) * per_row",
        "earlier + kept[pred.column].size * per_row"),
    "join_output_free": ("engine.py", "build_bytes + out[0] * row_bytes,", "build_bytes,"),
    "aggregate_holds_nothing": ("engine.py", "working_set=lambda _: n_join * row_bytes",
                                "working_set=lambda _: 0"),
    "empty_latency_sum_int": (
        "engine.py", "sum((record.charged_cost for record in trace.records), 0.0)",
        "sum(record.charged_cost for record in trace.records)"),
    "nested_loop_cap_exclusive": ("engine.py", "and pairs <= pair_cap:",
                                  "and pairs < pair_cap:"),
    "estimate_floor_half": ("engine.py", "n_obs / max(1.0, node.est_input)",
                            "n_obs / max(0.5, node.est_input)"),
    "join_blowup_above_rho": ("policy.py", "urs.estimate_ratio >= thresholds.rho_join",
                              "urs.estimate_ratio > thresholds.rho_join"),
    "offload_above_margin": ("policy.py", "urs.observed_input_cardinality >= offload_at",
                             "urs.observed_input_cardinality > offload_at"),
    "return_cpu_at_one": ("policy.py", "urs.r_acc > 1.0", "urs.r_acc >= 1.0"),
    "zero_n_star_allowed": ("policy.py", "if not n_star > 0:", "if not n_star >= 0:"),
    "no_cross_mode_check": ("bench.py", "if len(set(values.values())) > 1:", "if False:"),
    "schedule_positions_swapped": ("bench.py", "test_at, pick_at = 2 * i, 2 * i + 1",
                                   "test_at, pick_at = 2 * i + 1, 2 * i"),
    "column_drawn_from_position_1": (
        "datagen.py", "stream_integers(seed, 0, rows, col.low, col.high, dtype)",
        "stream_integers(seed, 1, rows, col.low, col.high, dtype)"),
    "zipf_cdf_end_not_forced": ("datagen.py", "cdf[-1] = 1.0", "pass"),
    "dense_histogram_edge_floor": ("stats.py", "at = np.clip(np.ceil(edges)",
                                   "at = np.clip(np.floor(edges)"),
    "all_failed_nan_not_shared": ("bench.py", "p50 = p95 = p99 = mean = math.nan",
                                  "p50, p95, p99, mean = (float('nan') for _ in range(4))"),
    "measured_crossover_assumed": ("accel.py", "if cross is None:", "if False:"),
    "offload_margin_one_rejected": ("policy.py", "if not (self.offload_margin >= 1):",
                                    "if not (self.offload_margin > 1):"),
    "infinite_coefficient_allowed": ("planner.py", "all(0 <= c < math.inf for c",
                                     "all(0 <= c <= math.inf for c"),
    "zero_break_even_kept": ("planner.py", "return n_star if n_star > 0 else None",
                             "return n_star if n_star >= 0 else None"),
    "grid_hint_one_rejected": ("accel.py", "if not 1 <= n_star_hint <=",
                               "if not 1 < n_star_hint <="),
    "grid_hint_max_rejected": ("accel.py", "n_star_hint <= MAX_SIZE / GRID_SPAN:",
                               "n_star_hint < MAX_SIZE / GRID_SPAN:"),
    "size_zero_allowed": ("accel.py", "if not (0 < sizes[0] and", "if not (0 <= sizes[0] and"),
    "fit_crossing_at_zero_kept": ("accel.py", "if n_est <= 0:", "if n_est < 0:"),
    "run_scenario_without_memo": (
        "bench.py", "memo = KernelMemo(table_set=group.store, group={})", "memo = None"),
    "right_filter_accepted": ("planner.py", "if self.right_filter is not None:", "if False:"),
    "dim_column_summed": ("engine.py", "if q.aggregate.column not in fact.columns:",
                          "if False:"),
    "drift_at_fraction": ("bench.py", "stream_unit(sched, test_at, 1)[0] < drift_fraction",
                          "stream_unit(sched, test_at, 1)[0] <= drift_fraction"),
    "crossover_from_equal_means": ("accel.py", "diffs[i - 1] < 0 <= diffs[i]",
                                   "diffs[i - 1] <= 0 <= diffs[i]"),
    "crossover_past_equal_means": ("accel.py", "diffs[i - 1] < 0 <= diffs[i]",
                                   "diffs[i - 1] < 0 < diffs[i]"),
}


def mutated(root: Path, name: str) -> tuple[Path, str]:
    """The module under root that a mutation changes, and its mutated text;
    LookupError when the mutation's line does not occur exactly once."""
    module, line, mutated_line = MUTATIONS[name]
    path = root / "src" / "latebind" / module
    text = path.read_text(encoding="utf-8")
    if text.count(line) != 1:
        raise LookupError(f"{name}: {line!r} occurs {text.count(line)} times in {module}")
    return path, text.replace(line, mutated_line)


def mutate(copy: Path, name: str) -> None:
    path, text = mutated(copy, name)
    path.write_text(text, encoding="utf-8")


def run(name: str | None) -> tuple[str, float]:
    """'caught', 'survived' or 'error: ...', and the run's seconds; None
    runs the unmutated copy."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp)
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(source, copy / item, ignore=shutil.ignore_patterns(
                    "__pycache__", "mutants.py", "test_mutants.py"))
            else:
                shutil.copy2(source, copy / item)
        try:
            if name is not None:
                mutate(copy, name)
        except LookupError as exc:
            return f"error: {exc}", 0.0
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", seconds
    if done.returncode == 1:
        return "caught", seconds
    return f"error: pytest exited {done.returncode}", seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutations to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutations and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, (module, line, mutated) in MUTATIONS.items():
            print(f"{name}: {module}: {line!r} -> {mutated!r}")
        return 0
    unknown = sorted(set(args.names) - set(MUTATIONS))
    if unknown:
        parser.error(f"unknown mutations: {', '.join(unknown)}")
    control, seconds = run(None)
    if control != "survived":
        print(f"the unmutated copy does not pass ({control}); no mutation was run")
        return 2
    print(f"{'(unmutated)':28s} passes  ({seconds:.1f} s)", flush=True)
    outcomes = {}
    for name in args.names or MUTATIONS:
        outcomes[name], seconds = run(name)
        print(f"{name:28s} {outcomes[name]}  ({seconds:.1f} s)", flush=True)
    survivors = [name for name, outcome in outcomes.items() if outcome == "survived"]
    print(f"survivors: {', '.join(survivors) or 'none'}")
    if any(outcome.startswith("error") for outcome in outcomes.values()):
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
