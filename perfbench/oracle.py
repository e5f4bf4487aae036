"""Independent expected value for one scenario query.

The engine filters, joins fact to dim on the key and aggregates.  The
oracle reaches the same number another way: every fact row that passes the
predicate contributes its aggregate value once per dim row carrying its key.
"""

from __future__ import annotations

import operator

import numpy as np

_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            ">=": operator.ge, ">": operator.gt}


def _passing(columns: dict[str, np.ndarray], predicate, rows: int) -> np.ndarray:
    if predicate is None:
        return np.ones(rows, dtype=bool)
    return _COMPARE[predicate.comparison](columns[predicate.column], predicate.constant)


def expected_value(query, tables) -> int:
    """count(*) or sum(column) of the fact-dim equi-join of ``query``."""
    fact_table, dim_table = tables[query.left_table], tables[query.right_table]
    fact, dim = fact_table.columns, dim_table.columns
    fact_ok = _passing(fact, query.left_filter, fact_table.row_count)
    dim_ok = _passing(dim, query.right_filter, dim_table.row_count)
    keys, counts = np.unique(dim[query.right_key][dim_ok], return_counts=True)
    fk = fact[query.left_key][fact_ok]
    if keys.size == 0 or fk.size == 0:
        return 0
    pos = np.minimum(np.searchsorted(keys, fk), keys.size - 1)
    weight = np.where(keys[pos] == fk, counts[pos], 0).astype(np.int64)
    if query.aggregate.op == "count":
        return int(weight.sum())
    if query.aggregate.column not in fact:
        raise ValueError(f"oracle sums fact columns only, not {query.aggregate.column!r}")
    values = fact[query.aggregate.column][fact_ok].astype(np.int64)
    return int((values * weight).sum(dtype=np.int64))


def mismatches(executions) -> list[str]:
    """One line per execution whose result differs from the oracle; a
    simulated failure (no result) is counted from samples.csv instead."""
    expected: dict[int, int] = {}
    problems = []
    for run in executions:
        if run.result is None:
            continue
        if run.seed not in expected:
            expected[run.seed] = expected_value(run.query, run.tables)
        if run.result.value != expected[run.seed]:
            problems.append(f"oracle: {run.mode} query seed {run.seed} returned "
                            f"{run.result.value}, expected {expected[run.seed]}")
    return problems
