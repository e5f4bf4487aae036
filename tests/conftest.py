from __future__ import annotations

import math

import numpy as np
import pytest

from latebind.datagen import ColumnSpec, Table, TableSpec, generate_table
from latebind.planner import OFFLOADABLE_KINDS, AggSpec, CostModel, Query, plan
from latebind.policy import Thresholds
from latebind.stats import capture_statistics


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
    return Table(spec=spec, generation=0, columns={k: np.asarray(v, dtype=np.int64)
                                                   for k, v in cols.items()})


def brute_force_join_count(left_key: np.ndarray, right_key: np.ndarray) -> int:
    """All-pairs oracle of an equi-join's row count, for small inputs."""
    return int(sum(int((right_key == k).sum()) for k in left_key))


def disabled_thresholds() -> Thresholds:
    """All triggers unreachable: the hook never fires a change."""
    return Thresholds(rho_join=math.inf, n_star={k: math.inf for k in OFFLOADABLE_KINDS},
                      source="manual")
