from __future__ import annotations

import bisect
import math

import numpy as np
import pytest

from latebind.datagen import (ColumnSpec, DistributionChange, DriftSpec, Table, TableSpec,
                              apply_drift, generate_table)
from latebind.errors import ValidationError
from latebind.rng import fnv1a64, stream_integers
from latebind.stats import ColumnStats, Predicate, capture_statistics, estimate_selectivity
from conftest import AS_AT_LEAST, estimate_as_at_least, table_from_arrays


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


def reference_column_stats(name: str, values: np.ndarray, buckets: int) -> ColumnStats:
    """ColumnStats of a non-empty column in plain Python: bucket i holds the
    values from inner edge i to inner edge i + 1, that is those below edge
    i + 1 less those below edge i, each found by bisecting the sorted
    values, which compares an int with a float exactly; the outer edges
    stand for min and max + 1, with no value below the first and all below
    the last."""
    ordered = sorted(values.tolist())
    edges = np.linspace(ordered[0], ordered[-1] + 1, buckets + 1).tolist()
    below = [0, *(bisect.bisect_left(ordered, edge) for edge in edges[1:-1]), len(ordered)]
    return ColumnStats(column=name, row_count=len(ordered), ndv=len(set(ordered)),
                       min_value=ordered[0], max_value=ordered[-1], bucket_edges=tuple(edges),
                       bucket_counts=tuple(end - start for start, end in zip(below, below[1:])))


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
            assert stats.column(name) == reference_column_stats(name, values, buckets), \
                (table.spec.name, name)


# each column's draws read the stream of a seed from position 0 on
DENSITY_COLUMNS = {
    # value span <= rows: counted per value
    "negative_low": lambda seed: stream_integers(seed, 0, 400, -70, -20),
    "straddles_zero": lambda seed: stream_integers(seed, 0, 43, -13, 29),
    "single_value": lambda seed: np.full(9, -4, dtype=np.int64),
    "single_row": lambda seed: np.array([123456789], dtype=np.int64),
    "span_equals_rows": lambda seed: np.concatenate(
        [[-8, 91], stream_integers(seed, 0, 98, -8, 91)]),
    "large_magnitude": lambda seed: stream_integers(seed, 0, 60, 2**31 - 41, 2**31 - 1),
    # value span above rows: sorted
    "span_one_above_rows": lambda seed: np.concatenate(
        [[-8, 92], stream_integers(seed, 0, 98, -8, 92)]),
    "sparse": lambda seed: stream_integers(seed, 0, 50, -10**9, 10**9),
    # sparse at both limits of the value bound
    "int32_extremes": lambda seed: np.concatenate(
        [[-2**31, 2**31 - 1], stream_integers(seed, 0, 20, -2**31, -2**31 + 9),
         stream_integers(seed, 20, 20, 2**31 - 10, 2**31 - 1)]),
}


@pytest.mark.parametrize("buckets", [1, 7, 32])
@pytest.mark.parametrize("case", sorted(DENSITY_COLUMNS))
def test_capture_matches_sorted_reference(case, buckets):
    values = DENSITY_COLUMNS[case](fnv1a64(case))
    span = int(values.max()) - int(values.min()) + 1
    assert (span <= values.size) == (
        case not in ("span_one_above_rows", "sparse", "int32_extremes"))
    got = capture_statistics(table_from_arrays("t", a=values), buckets=buckets).column("a")
    assert got == reference_column_stats("a", values, buckets)
    assert sum(got.bucket_counts) == values.size


@pytest.mark.parametrize("rows", [70_000, 5_000], ids=["dense", "sorted"])
@pytest.mark.parametrize("buckets", [1, 32])
def test_int16_capture_equals_its_int64_copy(rows, buckets):
    # values - lo reaches 60,000, past int16: the dense path counts per value
    # at int64 width, and the sorted path searches the column for float edges
    values = stream_integers(16, 0, rows, -30000, 30000, np.int16)
    values[:2] = (-30000, 30000)
    spec = TableSpec("t", rows, (ColumnSpec("a", -30000, 30000),))
    stats = [capture_statistics(Table(spec=spec, columns={"a": col}),
                                buckets=buckets)
             for col in (values, values.astype(np.int64))]
    assert stats[0] == stats[1]
    assert (60_001 <= rows) == (rows == 70_000)
    assert stats[0].column("a") == reference_column_stats("a", values.astype(np.int64), buckets)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_predicate_masks_take_constants_beyond_the_column_type(dtype):
    info = np.iinfo(dtype)
    values = np.array([info.min, -1, 0, 1, info.max], dtype=dtype)
    wide = values.astype(np.int64)
    for constant in (info.min - 1, info.min, 0, info.max, info.max + 1, 2**40, -2**63,
                     2**63 - 1, 2**63):
        pred = Predicate("a", constant)
        np.testing.assert_array_equal(pred.mask(values), pred.mask(wide), err_msg=str(pred))
        assert pred.mask(values).tolist() == [int(v) >= constant for v in values.tolist()]


def test_histogram_edges_partition_domain():
    t = generate_table(TableSpec("t", 2000, (ColumnSpec("a", -20, 59),)), seed=4)
    cs = capture_statistics(t, buckets=16).column("a")
    assert cs.bucket_edges[0] == cs.min_value
    assert cs.bucket_edges[-1] == cs.max_value + 1
    assert all(b > a for a, b in zip(cs.bucket_edges, cs.bucket_edges[1:]))


def test_selectivity_full_coverage_is_one():
    t = generate_table(TableSpec("t", 1000, (ColumnSpec("a", 0, 99),)), seed=5)
    cs = capture_statistics(t).column("a")
    est = estimate_selectivity(cs, Predicate("a", int(cs.min_value)))
    assert est == 1.0


def test_selectivity_half_range():
    t = generate_table(TableSpec("t", 1000, (ColumnSpec("a", 0, 99),)), seed=6)
    cs = capture_statistics(t, buckets=10).column("a")
    # a < 50, as the complement of a >= 50
    est = 1.0 - estimate_selectivity(cs, Predicate("a", 50))
    truth = float(np.less(t.column("a"), 50).mean())
    assert abs(truth - 0.5) < 0.05  # sanity on the generator
    assert abs(est - truth) <= 1.0 / 10 + 0.01


@pytest.mark.parametrize("value", [-2**31, 2**31 - 1])
def test_selectivity_of_a_single_valued_column_is_exact(value):
    # at either limit of the value bound
    values = np.full(50, value, dtype=np.int64)
    cs = capture_statistics(table_from_arrays("t", a=values)).column("a")
    for comparison, scan, shift, complemented in AS_AT_LEAST:
        for constant in (value - 1, value, value + 1):
            assert estimate_as_at_least(cs, shift, complemented, constant) == \
                float(scan(values, constant).mean()), (comparison, constant)


def test_selectivity_wrong_column_rejected():
    t = table_from_arrays("t", a=np.arange(10))
    cs = capture_statistics(t).column("a")
    with pytest.raises(ValidationError):
        estimate_selectivity(cs, Predicate("b", 5))


def test_statistics_of_an_uncaptured_column_rejected():
    stats = capture_statistics(table_from_arrays("t", a=np.arange(10)))
    with pytest.raises(ValidationError, match="^no statistics for column 'b' of table t$"):
        stats.column("b")


def test_zero_buckets_rejected():
    with pytest.raises(ValidationError, match="^bucket count must be >= 1, got 0$"):
        capture_statistics(table_from_arrays("t", a=np.arange(10)), buckets=0)


def test_selectivity_bounds_property():
    t = generate_table(TableSpec("t", 3000, (ColumnSpec("a", -100, 400),)), seed=9)
    cs = capture_statistics(t).column("a")
    for c in stream_integers(99, 0, 200, -300, 700):
        est = estimate_selectivity(cs, Predicate("a", int(c)))
        assert 0.0 <= est <= 1.0


def test_range_estimates_close_to_brute_force():
    # oracle bound: within 1.5 bucket widths of the full-scan truth on uniform data
    # the 25 constants of table j and comparison k start at stream position 100j + 25k
    for j, (rows, lo, hi, seed) in enumerate([(10000, 0, 999, 31), (5000, -50, 49, 32),
                                              (2000, 0, 9999, 33)]):
        t = generate_table(TableSpec("t", rows, (ColumnSpec("a", lo, hi),)), seed=seed)
        cs = capture_statistics(t).column("a")
        width_fraction = (cs.bucket_edges[1] - cs.bucket_edges[0]) / (cs.max_value + 1 - cs.min_value)
        tolerance = 1.5 * width_fraction
        for k, (comparison, scan, shift, complemented) in enumerate(AS_AT_LEAST):
            for c in stream_integers(123, 100 * j + 25 * k, 25, lo, hi).tolist():
                est = estimate_as_at_least(cs, shift, complemented, c)
                truth = float(scan(t.column("a"), c).mean())
                assert abs(est - truth) <= tolerance, (comparison, c)


def test_capture_of_named_columns_equals_full_capture():
    t = generate_table(TableSpec("t", 500, (
        ColumnSpec("a", 0, 99), ColumnSpec("b", -5, 5), ColumnSpec("c", 0, 10**9))), seed=45)
    full = capture_statistics(t)
    named = capture_statistics(t, columns=("c", "a"))
    assert list(named.columns) == ["a", "c"]   # in table order
    assert named.columns == {name: full.columns[name] for name in ("a", "c")}
    assert (named.table, named.row_count) == (full.table, full.row_count)
    assert capture_statistics(t, columns=()).columns == {}
    with pytest.raises(ValidationError, match="no columns"):
        capture_statistics(t, columns=("a", "z"))
