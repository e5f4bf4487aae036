from __future__ import annotations

import io
import math

import numpy as np
import pytest

from latebind.clock import SimulatedClock
from latebind.datagen import (ColumnSpec, DistributionChange, DriftSpec, Table, TableSpec,
                              apply_drift, generate_table)
from latebind.engine import execute
from latebind.errors import ValidationError, dump_json, load_json
from latebind.planner import AggSpec, CostModel, Query, plan
from latebind.policy import BASELINE, Thresholds
from latebind.rng import Stream, fnv1a64
from latebind.stats import (ColumnStats, Predicate, TableStats, capture_statistics,
                            estimate_selectivity)
from conftest import table_from_arrays


def brute_selectivity(values: np.ndarray, pred: Predicate) -> float:
    if values.size == 0:
        return 0.0
    return float(pred.mask(values).mean())


def test_empty_table_capture():
    t = generate_table(TableSpec("e", 0, (ColumnSpec("a", 0, 9),)), seed=1)
    stats = capture_statistics(t)
    cs = stats.column("a")
    assert cs.row_count == 0
    assert cs.ndv == 0
    assert cs.bucket_counts == ()
    assert sum(cs.bucket_counts) == 0


def test_bucket_conservation_and_balance():
    t = generate_table(TableSpec("t", 1000, (ColumnSpec("a", 0, 99),)), seed=21)
    stats = capture_statistics(t, buckets=10)
    cs = stats.column("a")
    assert sum(cs.bucket_counts) == 1000
    # binomial bound: each bucket expects 100 with sigma = sqrt(1000*0.1*0.9)
    sigma = math.sqrt(1000 * 0.1 * 0.9)
    for count in cs.bucket_counts:
        assert abs(count - 100) <= 5 * sigma


def test_bucket_conservation_many_shapes():
    for rows, domain, seed in [(10, 3, 1), (500, 1000, 2), (3000, 7, 3)]:
        t = generate_table(TableSpec("t", rows, (ColumnSpec("a", 0, domain - 1),)), seed=seed)
        cs = capture_statistics(t).column("a")
        assert sum(cs.bucket_counts) == rows


def reference_column_stats(values: np.ndarray, buckets: int) -> tuple:
    """Range, distinct count and histogram computed the plain way."""
    lo, hi = int(values.min()), int(values.max())
    edges = np.linspace(lo, hi + 1, buckets + 1)
    counts, _ = np.histogram(values, bins=edges)
    return (lo, hi, int(np.unique(values).size), tuple(float(e) for e in edges),
            tuple(int(c) for c in counts))


@pytest.mark.parametrize("buckets", [1, 7, 32])
def test_capture_matches_unique_and_histogram(buckets):
    base = generate_table(TableSpec("t", 3000, (
        ColumnSpec("u", -50, 949), ColumnSpec("z", 0, 99, "zipf", 1.3))), seed=12)
    shifted = apply_drift(base, DriftSpec(scale_factor=1.0, domain_shift=300,
                                          skew_change=DistributionChange("zipf", 1.1)),
                          seed=13)
    tables = [base, shifted,
              table_from_arrays("one_value", a=np.full(500, 7)),
              table_from_arrays("one_row", a=np.array([42]))]
    for table in tables:
        stats = capture_statistics(table, buckets=buckets)
        for name, values in table.columns.items():
            cs = stats.column(name)
            got = (cs.min_value, cs.max_value, cs.ndv, cs.bucket_edges, cs.bucket_counts)
            assert got == reference_column_stats(values, buckets), (table.spec.name, name)


def sorted_column_stats(name: str, values: np.ndarray, buckets: int) -> ColumnStats:
    """ColumnStats from one sort: distinct count from adjacent differences,
    bucket counts by exact int-to-float comparison of each value with each
    inner edge (Python compares them exactly, numpy as float64); the outer
    edges stand for lo and hi + 1, so the counts sum to the row count."""
    ordered = np.sort(values)
    lo, hi = int(ordered[0]), int(ordered[-1])
    edges = np.linspace(lo, hi + 1, buckets + 1)
    ints = ordered.tolist()
    below = [0, *(sum(v < e for v in ints) for e in edges[1:-1].tolist()), len(ints)]
    counts = np.diff(below)
    return ColumnStats(column=name, row_count=values.size,
                       ndv=1 + int(np.count_nonzero(ordered[1:] != ordered[:-1])),
                       min_value=lo, max_value=hi,
                       bucket_edges=tuple(float(e) for e in edges),
                       bucket_counts=tuple(int(c) for c in counts), captured_generation=0)


DENSITY_COLUMNS = {
    # value span <= rows: counted per value
    "negative_low": lambda s: s.integers(-70, -20, 400),
    "straddles_zero": lambda s: s.integers(-13, 29, 43),
    "single_value": lambda s: np.full(9, -4, dtype=np.int64),
    "single_row": lambda s: np.array([123456789], dtype=np.int64),
    "span_equals_rows": lambda s: np.concatenate([[-8, 91], s.integers(-8, 91, 98)]),
    "large_magnitude": lambda s: s.integers(2**52, 2**52 + 40, 60),
    # dense, but past the integers float64 edges hold exactly: sorted
    "beyond_float_exact": lambda s: s.integers(2**53 - 20, 2**53 + 20, 82),
    "far_beyond_float_exact": lambda s: np.concatenate(
        [[2**60 - 24, 2**60 + 25], s.integers(2**60 - 24, 2**60 + 25, 48)]),
    # value span above rows: sorted
    "span_one_above_rows": lambda s: np.concatenate([[-8, 92], s.integers(-8, 92, 98)]),
    "sparse": lambda s: s.integers(-10**9, 10**9, 50),
    # float64 rounds lo down to 2**60 and the upper inner edges past hi
    "rounded_past_hi": lambda s: np.concatenate(
        [[2**60 + 100, 2**60 + 200], s.integers(2**60 + 100, 2**60 + 200, 30)]),
    "int64_extremes": lambda s: np.concatenate(
        [[-2**63, 2**63 - 1], s.integers(-2**63, -2**63 + 9, 20),
         s.integers(2**63 - 10, 2**63 - 1, 20)]),
}


@pytest.mark.parametrize("buckets", [1, 7, 32])
@pytest.mark.parametrize("case", sorted(DENSITY_COLUMNS))
def test_capture_matches_sorted_reference(case, buckets):
    values = DENSITY_COLUMNS[case](Stream(fnv1a64(case)))
    span = int(values.max()) - int(values.min()) + 1
    assert (span <= values.size) == (
        case not in ("span_one_above_rows", "sparse", "rounded_past_hi", "int64_extremes"))
    got = capture_statistics(table_from_arrays("t", a=values), buckets=buckets).column("a")
    assert got == sorted_column_stats("a", values, buckets)
    assert sum(got.bucket_counts) == values.size


@pytest.mark.parametrize("rows", [70_000, 5_000], ids=["dense", "sorted"])
@pytest.mark.parametrize("buckets", [1, 32])
def test_int16_capture_equals_its_int64_copy(rows, buckets):
    # values - lo reaches 60,000, past int16: the dense path counts per value
    # at int64 width, and the sorted path searches at the column's own width
    values = Stream(16).integers(-30000, 30000, rows, np.int16)
    values[:2] = (-30000, 30000)
    spec = TableSpec("t", rows, (ColumnSpec("a", -30000, 30000),))
    stats = [capture_statistics(Table(spec=spec, generation=0, columns={"a": col}),
                                buckets=buckets)
             for col in (values, values.astype(np.int64))]
    assert stats[0] == stats[1]
    assert (60_001 <= rows) == (rows == 70_000)
    assert stats[0].column("a") == sorted_column_stats("a", values.astype(np.int64), buckets)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_predicate_masks_take_constants_beyond_the_column_type(dtype):
    info = np.iinfo(dtype)
    values = np.array([info.min, -1, 0, 1, info.max], dtype=dtype)
    wide = values.astype(np.int64)
    for constant in (info.min - 1, info.min, 0, info.max, info.max + 1, 2**40, -2**63,
                     2**63 - 1):
        for comparison in ("<", "<=", "=", ">=", ">"):
            pred = Predicate("a", comparison, constant)
            np.testing.assert_array_equal(pred.mask(values), pred.mask(wide),
                                          err_msg=str(pred))


def test_captured_generation_tracks_drift():
    t = generate_table(TableSpec("t", 100, (ColumnSpec("a", 0, 9),)), seed=1)
    stats = capture_statistics(t)
    drifted = apply_drift(t, DriftSpec(scale_factor=1.0), seed=2)
    assert drifted.generation - stats.column("a").captured_generation == 1


def test_histogram_edges_partition_domain():
    t = generate_table(TableSpec("t", 2000, (ColumnSpec("a", -20, 59),)), seed=4)
    cs = capture_statistics(t, buckets=16).column("a")
    assert cs.bucket_edges[0] == cs.min_value
    assert cs.bucket_edges[-1] == cs.max_value + 1
    assert all(b > a for a, b in zip(cs.bucket_edges, cs.bucket_edges[1:]))


def test_selectivity_full_coverage_is_one():
    t = generate_table(TableSpec("t", 1000, (ColumnSpec("a", 0, 99),)), seed=5)
    cs = capture_statistics(t).column("a")
    est = estimate_selectivity(cs, Predicate("a", ">=", int(cs.min_value)))
    assert est == 1.0


def test_selectivity_half_range():
    t = generate_table(TableSpec("t", 1000, (ColumnSpec("a", 0, 99),)), seed=6)
    cs = capture_statistics(t, buckets=10).column("a")
    pred = Predicate("a", "<", 50)
    est = estimate_selectivity(cs, pred)
    truth = brute_selectivity(t.column("a"), pred)
    assert abs(truth - 0.5) < 0.05  # sanity on the generator
    assert abs(est - truth) <= 1.0 / 10 + 0.01


def test_equality_uses_ndv():
    values = np.arange(1000) % 100  # exactly 100 distinct values
    t = table_from_arrays("t", a=values)
    cs = capture_statistics(t).column("a")
    assert cs.ndv == 100
    est = estimate_selectivity(cs, Predicate("a", "=", 42))
    assert est == pytest.approx(0.01)


def test_equality_outside_domain_is_zero():
    t = table_from_arrays("t", a=np.arange(100))
    cs = capture_statistics(t).column("a")
    assert estimate_selectivity(cs, Predicate("a", "=", 1000)) == 0.0


def test_selectivity_wrong_column_rejected():
    t = table_from_arrays("t", a=np.arange(10))
    cs = capture_statistics(t).column("a")
    with pytest.raises(ValidationError):
        estimate_selectivity(cs, Predicate("b", "<", 5))


def test_selectivity_bounds_property():
    stream = Stream(99)
    t = generate_table(TableSpec("t", 3000, (ColumnSpec("a", -100, 400),)), seed=9)
    cs = capture_statistics(t).column("a")
    for comparison in ("<", "<=", "=", ">=", ">"):
        for c in stream.integers(-300, 700, 40):
            est = estimate_selectivity(cs, Predicate("a", comparison, int(c)))
            assert 0.0 <= est <= 1.0


def test_range_estimates_close_to_brute_force():
    # oracle bound: within 1.5 bucket widths of the full-scan truth on uniform data
    stream = Stream(123)
    for rows, lo, hi, seed in [(10000, 0, 999, 31), (5000, -50, 49, 32), (2000, 0, 9999, 33)]:
        t = generate_table(TableSpec("t", rows, (ColumnSpec("a", lo, hi),)), seed=seed)
        cs = capture_statistics(t).column("a")
        width_fraction = (cs.bucket_edges[1] - cs.bucket_edges[0]) / (cs.max_value + 1 - cs.min_value)
        tolerance = 1.5 * width_fraction
        for comparison in ("<", "<=", ">=", ">"):
            for c in stream.integers(lo, hi, 25):
                pred = Predicate("a", comparison, int(c))
                est = estimate_selectivity(cs, pred)
                truth = brute_selectivity(t.column("a"), pred)
                assert abs(est - truth) <= tolerance, (comparison, int(c))


def test_optimizer_risk_generation_regression_rejected():
    # staleness is never negative: execute refuses a table older than the
    # statistics its plan was built from
    t = table_from_arrays("t", a=np.arange(10))
    drifted = apply_drift(t, DriftSpec(scale_factor=1.0), seed=1)
    query = Query("t", "t", "a", "a", AggSpec("count"))
    stale_plan = plan(query, {"t": capture_statistics(drifted)}, CostModel.default())
    with pytest.raises(ValidationError, match="regressed below its statistics generation"):
        execute(stale_plan, {"t": t}, BASELINE, Thresholds(), SimulatedClock(sigma=0.0), seed=1)


def test_capture_of_named_columns_equals_full_capture():
    t = generate_table(TableSpec("t", 500, (
        ColumnSpec("a", 0, 99), ColumnSpec("b", -5, 5), ColumnSpec("c", 0, 10**9))), seed=45)
    full = capture_statistics(t)
    named = capture_statistics(t, columns=("c", "a"))
    assert list(named.columns) == ["a", "c"]   # in table order
    assert named.columns == {name: full.columns[name] for name in ("a", "c")}
    assert (named.table, named.row_count, named.captured_generation) == \
        (full.table, full.row_count, full.captured_generation)
    assert capture_statistics(t, columns=()).columns == {}
    with pytest.raises(ValidationError, match="no columns"):
        capture_statistics(t, columns=("a", "z"))


def test_stats_serialization_roundtrip():
    t = generate_table(TableSpec("t", 500, (
        ColumnSpec("a", 0, 99), ColumnSpec("b", -5, 5))), seed=44)
    stats = capture_statistics(t)
    buf = io.StringIO()
    dump_json(stats, buf)
    buf.seek(0)
    loaded = load_json(TableStats, buf, "statistics")
    assert loaded == stats
