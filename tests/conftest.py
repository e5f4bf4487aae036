from __future__ import annotations

import contextlib
import copy
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import identity
from latebind import bench
from latebind.cli import main
from latebind.datagen import ColumnSpec, Table, TableSpec, generate_table
from latebind.planner import (OFFLOADABLE_KINDS, AggSpec, AnnotatedPlan, CostModel, PlanNode,
                              Query, plan)
from latebind.policy import MODES, Thresholds
from latebind.stats import ColumnStats, Predicate, capture_statistics, estimate_selectivity


@dataclass(frozen=True)
class DefaultRun:
    """`latebind run --scenario <name> --seed <seed>`, every other setting at
    its default: the exit code, the reports run_scenario returned, each
    mode's samples.csv bytes, the dtypes of the columns its executions
    read, each execution's query seed, mode and (node id, executed variant,
    charged cost, kind, observed input) per node, in the order they ran, and
    tests/identity.py's lines of its stdout and files."""

    exit_code: int
    reports: dict[str, bench.LatencyReport]
    samples: dict[str, bytes]
    dtypes: frozenset[str]
    executions: tuple[tuple[int, str, tuple[tuple[str, str, float, str, int], ...]], ...]
    outputs: list[str]


@pytest.fixture(scope="session")
def default_run(tmp_path_factory) -> Callable[..., DefaultRun]:
    """The default run of a scenario at a seed (1 unless named), made once
    per session through the CLI; every call hands out a deep copy, so no
    test sees another's changes, except of the executions: tuples all
    through, which no test can change, they are shared, since a copy per
    call would add about 10 ms.  Tests whose subject is a run of their own
    (reruns, memo comparisons, monkeypatched or counted engine calls, runs
    at another column width) make that run themselves."""
    runs: dict[tuple[str, int], DefaultRun] = {}

    def get(name: str, seed: int = 1) -> DefaultRun:
        if (name, seed) not in runs:
            out = tmp_path_factory.mktemp(name)
            returned = []
            dtypes: set[str] = set()
            executions = []
            real_run, real_execute = bench.run_scenario, bench.execute

            def keeping(*args, **kwargs):
                returned.append(real_run(*args, **kwargs))
                return returned[-1]

            def reading(plan, tables, mode, thresholds, clock, seed, *args, **kwargs):
                dtypes.update(str(col.dtype) for t in tables.values()
                              for col in t.columns.values())
                result, trace = real_execute(plan, tables, mode, thresholds, clock, seed,
                                             *args, **kwargs)
                executions.append((seed, mode, tuple(
                    (r.node_id, r.executed_variant, r.charged_cost, r.kind, r.n_obs)
                    for r in trace.records)))
                return result, trace

            stdout = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
                mp.setattr(bench, "run_scenario", keeping)
                mp.setattr(bench, "execute", reading)
                code = main(["run", "--scenario", name, "--seed", str(seed),
                             "--out", str(out)])
            samples = {mode: (out / name / mode / "samples.csv").read_bytes()
                       for mode in MODES if (out / name / mode / "samples.csv").exists()}
            outputs = identity.dir_outputs(identity.run_label(name, seed), code,
                                           stdout.getvalue(), str(out))
            runs[name, seed] = DefaultRun(code, returned[0] if returned else {}, samples,
                                          frozenset(dtypes), tuple(executions), outputs)
        run = runs[name, seed]
        return copy.deepcopy(run, {id(run.executions): run.executions})

    return get


@pytest.fixture(scope="session")
def default_queries() -> Callable[[str], list[bench.PreparedQuery]]:
    """bench.scenario_queries of a scenario's default at seed 1, made once per
    session.  Every table column is read-only, so no test can change the
    tables another test reads; each call hands out a new list."""
    made: dict[str, list[bench.PreparedQuery]] = {}

    def get(name: str) -> list[bench.PreparedQuery]:
        if name not in made:
            made[name] = bench.scenario_queries(bench.SCENARIOS[name](seed=1))
            for query in made[name]:
                for table in query.tables.values():
                    for col in table.columns.values():
                        col.flags.writeable = False
        return list(made[name])

    return get


@pytest.fixture
def default_model() -> CostModel:
    return CostModel.default()


@pytest.fixture
def small_tables() -> dict[str, Table]:
    left = generate_table(TableSpec("l", 50, (
        ColumnSpec("k", 0, 9), ColumnSpec("v", 0, 9))), seed=11)
    right = generate_table(TableSpec("r", 50, (ColumnSpec("k", 0, 9),)), seed=12)
    return {"l": left, "r": right}


@pytest.fixture
def small_plan(small_tables, default_model):
    stats = {name: capture_statistics(t) for name, t in small_tables.items()}
    query = Query("l", "r", "k", "k", AggSpec("sum", "v"))
    return plan(query, stats, default_model)


def table_from_arrays(name: str, **cols: np.ndarray) -> Table:
    """Hand-built table for unit oracles; spec ranges derived from the data."""
    specs = tuple(
        ColumnSpec(col, int(arr.min()) if arr.size else 0, int(arr.max()) if arr.size else 0)
        for col, arr in cols.items())
    spec = TableSpec(name, len(next(iter(cols.values()))), specs)
    return Table(spec=spec, columns={k: np.asarray(v, dtype=np.int64) for k, v in cols.items()})


# every other comparison as a >= predicate: a < c is the complement of
# a >= c, a <= c that of a >= c + 1, and a > c is a >= c + 1.  Each entry is
# (comparison, numpy scan of it, shift of the constant, complemented)
AS_AT_LEAST = (("<", np.less, 0, True), ("<=", np.less_equal, 1, True),
               (">=", np.greater_equal, 0, False), (">", np.greater, 1, False))


def estimate_as_at_least(cs: ColumnStats, shift: int, complemented: bool, c: int) -> float:
    """The estimate of a comparison with c written as a >= predicate."""
    est = estimate_selectivity(cs, Predicate(cs.column, c + shift))
    return 1.0 - est if complemented else est


def brute_force_join_count(left_key: np.ndarray, right_key: np.ndarray) -> int:
    """All-pairs oracle of an equi-join's row count, for small inputs."""
    return int(sum(int((right_key == k).sum()) for k in left_key))


def disabled_thresholds() -> Thresholds:
    """All triggers unreachable: the hook never fires a change."""
    return Thresholds(rho_join=math.inf, n_star={k: math.inf for k in OFFLOADABLE_KINDS},
                      source="manual")


def plan_nodes(p: AnnotatedPlan) -> list[PlanNode]:
    """A plan's nodes in execution order (left branch, right scan, join,
    aggregate), which is the order of an execution's trace records."""
    return [node for node in (p.left_scan, p.left_filter, p.right_scan, p.join, p.aggregate)
            if node is not None]
