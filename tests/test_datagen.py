from __future__ import annotations

import re

import numpy as np
import pytest

from latebind import bench, datagen
from latebind.datagen import (MAX_TABLE_BYTES, MAX_ZIPF_DOMAIN, ZIPF, ColumnSpec,
                              DistributionChange, DriftSpec, TableSpec, _zipf_cdf,
                              apply_drift, column_dtype, generate_table)
from latebind.errors import ValidationError

WIDTHS = tuple(map(np.dtype, (np.int8, np.int16, np.int32)))   # column types, narrowest first


def uniform_spec(rows: int, low: int = 0, high: int = 99, name: str = "t") -> TableSpec:
    return TableSpec(name, rows, (ColumnSpec("a", low, high),))


def test_zero_rows_empty_columns():
    t = generate_table(uniform_spec(0), seed=1)
    assert t.row_count == 0
    assert all(arr.size == 0 for arr in t.columns.values())


def test_uniform_distinct_count():
    # 1000 draws over a 100-value domain: expected distinct ~ 100*(1-(1-1/100)^1000)
    t = generate_table(uniform_spec(1000), seed=7)
    distinct = int(np.unique(t.column("a")).size)
    assert 90 <= distinct <= 100


def test_generation_deterministic_bitwise():
    spec = TableSpec("t", 5000, (ColumnSpec("a", 0, 99), ColumnSpec("b", -50, 50)))
    t1 = generate_table(spec, seed=7)
    t2 = generate_table(spec, seed=7)
    for col in ("a", "b"):
        assert np.array_equal(t1.column(col), t2.column(col))
    t3 = generate_table(spec, seed=8)
    assert not np.array_equal(t1.column("a"), t3.column("a"))


def test_identity_drift():
    t = generate_table(uniform_spec(1000), seed=1)
    d = apply_drift(t, DriftSpec(scale_factor=1.0), seed=2)
    assert d.row_count == 1000


def test_scale_drift_rowcount():
    t = generate_table(uniform_spec(1000), seed=1)
    d = apply_drift(t, DriftSpec(scale_factor=10.0), seed=2)
    assert d.row_count == 10000


@pytest.mark.parametrize("factor", [0.25, 0.4, 1.5, 3.3333, 20.0])
def test_scale_law_exact(factor):
    t = generate_table(uniform_spec(777), seed=3)
    d = apply_drift(t, DriftSpec(scale_factor=factor), seed=4)
    assert d.row_count == round(777 * factor)


def test_shift_flips_selectivity():
    t = generate_table(uniform_spec(2000), seed=5)
    before = float((t.column("a") < 100).mean())
    d = apply_drift(t, DriftSpec(domain_shift=100), seed=6)
    after = float((d.column("a") < 100).mean())
    assert before == 1.0
    assert after == 0.0


def test_drift_is_pure():
    t = generate_table(uniform_spec(500), seed=9)
    original = t.column("a").copy()
    apply_drift(t, DriftSpec(scale_factor=2.0, domain_shift=5), seed=10)
    assert np.array_equal(t.column("a"), original)


def test_skew_change_concentrates_low_values():
    t = generate_table(uniform_spec(20000), seed=11)
    d = apply_drift(t, DriftSpec(skew_change=DistributionChange("zipf", 1.5)), seed=12)
    values = d.column("a")
    low_mass = float((values <= 9).mean())
    high_mass = float((values >= 90).mean())
    assert low_mass > 5 * high_mass


def test_zipf_generation_bounds():
    spec = TableSpec("z", 5000, (ColumnSpec("a", 10, 109, distribution="zipf", skew=1.2),))
    t = generate_table(spec, seed=13)
    assert int(t.column("a").min()) >= 10
    assert int(t.column("a").max()) <= 109


# (spec, the start of its error message)
@pytest.mark.parametrize("bad", [
    (TableSpec("t", -1, (ColumnSpec("a", 0, 9),)), "table t: row_count must be >= 0, got -1"),
    (TableSpec("t", 10, (ColumnSpec("a", 5, 4),)), "column a: empty range [5, 4]"),
    (TableSpec("t", 10, (ColumnSpec("a", 0, 9, distribution="zipf", skew=0.0),)),
     "column a: zipf skew must be > 0, got 0.0"),
    (TableSpec("t", 10, ()), "table t: at least one column required"),
    (TableSpec("t", 10, (ColumnSpec("a", 0, 9), ColumnSpec("a", 0, 9))),
     "table t: duplicate column names"),
    (TableSpec("t", 10, (ColumnSpec("a", 0, MAX_ZIPF_DOMAIN, "zipf"),)),
     "column a: zipf domain exceeds"),
    # the widest domain the value bound admits
    (TableSpec("t", 10, (ColumnSpec("a", -2**31, 2**31 - 1, "zipf"),)),
     "column a: zipf domain exceeds"),
    (TableSpec("t", 10, (ColumnSpec("a", 0, 2**63),)), f"column a: range [0, {2**63}] exceeds int32"),
    (TableSpec("t", 10, (ColumnSpec("a", -2**63 - 1, 0),)),
     f"column a: range [{-2**63 - 1}, 0] exceeds int32"),
    (TableSpec("t", 10, (ColumnSpec("a", 0, 2**64),)), f"column a: range [0, {2**64}] exceeds int32"),
    (TableSpec("t", 10, (ColumnSpec("", 0, 9),)), "column name must be non-empty"),
    (TableSpec("t", 10, (ColumnSpec("a", 0, 9, distribution="normal"),)),
     "column a: unknown distribution 'normal'"),
    (TableSpec("", 10, (ColumnSpec("a", 0, 9),)), "table name must be non-empty"),
])
def test_invalid_specs_rejected(bad):
    spec, message = bad
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        generate_table(spec, seed=1)


def test_unknown_column_rejected():
    t = generate_table(uniform_spec(3), seed=1)
    with pytest.raises(ValidationError, match="^table t: no column 'b'$"):
        t.column("b")


def test_table_size_limit_checked_by_the_validator():
    # rows x columns x 8 bytes, at int64 width whatever the columns' type;
    # only validate() runs, so no table of this size is ever drawn
    two = (ColumnSpec("a", 0, 9), ColumnSpec("b", 0, 9))
    TableSpec("t", MAX_TABLE_BYTES // 16, two).validate()
    for rows in (MAX_TABLE_BYTES // 16 + 1, 3_000_000_000_000):
        with pytest.raises(ValidationError, match="bytes at int64 width"):
            TableSpec("t", rows, two).validate()


def test_drift_to_zipf_beyond_cdf_rejected():
    ColumnSpec("a", 0, MAX_ZIPF_DOMAIN - 1, "zipf").validate()  # the widest zipf domain
    # a uniform column needs no CDF, but drifting it to zipf builds one
    wide = generate_table(TableSpec("t", 10, (ColumnSpec("a", -2**31, 2**31 - 1),)), seed=1)
    with pytest.raises(ValidationError, match="zipf domain"):
        apply_drift(wide, DriftSpec(skew_change=DistributionChange("zipf", 1.1)), seed=2)


def test_invalid_drift_rejected():
    t = generate_table(uniform_spec(10), seed=1)
    with pytest.raises(ValidationError):
        apply_drift(t, DriftSpec(scale_factor=0.0), seed=1)
    with pytest.raises(ValidationError):
        apply_drift(t, DriftSpec(scale_factor=-2.0), seed=1)


def test_drawn_values_deterministic():
    spec = TableSpec("t", 4, (ColumnSpec("a", 0, 9), ColumnSpec("b", -9, 9),
                              ColumnSpec("c", -2**31, 2**31 - 1)))
    t = generate_table(spec, seed=2)
    assert {name: values.tolist() for name, values in t.columns.items()} == {
        "a": [6, 9, 4, 1], "b": [7, -4, -4, 1],
        "c": [-1784454044, 1185224229, -2065221909, -584330429]}


def test_value_bound_admits_every_scenario_column():
    # each scenario at the most rows MAX_TABLE_BYTES admits: the dim table has
    # one column, and the fact table two (three in stale_stats).  Only
    # validate() runs, so no table of this size is ever drawn.  A drift's
    # columns are validated with its shift and without its zipf change:
    # MAX_ZIPF_DOMAIN rejects zipf keys this wide, and the bound reads only
    # low and high
    dim_rows = MAX_TABLE_BYTES // 8
    scenarios = (
        bench.scenario_input_scale_shift(fact_rows=MAX_TABLE_BYTES // 16, dim_rows=dim_rows),
        bench.scenario_stale_stats(fact_rows=MAX_TABLE_BYTES // 24, dim_rows=dim_rows),
        bench.scenario_break_even(dim_rows=dim_rows))
    shifts = set()
    for scenario in scenarios:
        scenario.fact_spec.validate()
        scenario.dim_spec.validate()
        for drift in scenario.drifts.values():
            shifts.add(drift.domain_shift)
            for col in scenario.fact_spec.columns:
                ColumnSpec(col.name, col.low + drift.domain_shift,
                           col.high + drift.domain_shift).validate()
    assert shifts == {0, 100}


@pytest.mark.parametrize("dtype", WIDTHS)
def test_width_rule_at_each_dtype_limit(dtype):
    # past int32's limits the value bound (VALUE_BOUNDS) rejects the column
    info = np.iinfo(dtype)
    ColumnSpec("a", info.min, info.max).validate()
    assert column_dtype(ColumnSpec("a", info.min, info.max)) == dtype
    wider = WIDTHS[WIDTHS.index(dtype) + 1:]
    for low, high in ((info.min - 1, info.max), (info.min, info.max + 1)):
        col = ColumnSpec("a", low, high)
        if wider:
            assert column_dtype(col) == wider[0]
        else:
            with pytest.raises(ValidationError,
                               match=rf"^column a: range \[{low}, {high}\] exceeds int32$"):
                col.validate()


# one column per width, uniform and zipf, at and near the types' limits
NARROW_SPEC = TableSpec("t", 3000, (
    ColumnSpec("a", -128, 127), ColumnSpec("b", 0, 999),
    ColumnSpec("c", -100, 100, ZIPF, 1.1), ColumnSpec("d", 32767 - 40, 32767, ZIPF, 0.6),
    ColumnSpec("e", -2**31 + 20, 2**31 - 1), ColumnSpec("f", 2**15, 2**15 + 5)))


def test_narrow_columns_hold_the_int64_values(monkeypatch):
    # a drift of -20 widens a, narrows f, and keeps the others' widths; e's
    # domain reaches int32's maximum before it and its minimum after
    drift = DriftSpec(scale_factor=0.5, domain_shift=-20)
    narrow = generate_table(NARROW_SPEC, seed=3)
    narrow_drifted = apply_drift(narrow, drift, seed=4)
    monkeypatch.setattr(datagen, "column_dtype", lambda col: np.dtype(np.int64))
    wide = generate_table(NARROW_SPEC, seed=3)
    wide_drifted = apply_drift(wide, drift, seed=4)
    widths = {"t": dict(a="int8", b="int16", c="int8", d="int16", e="int32", f="int32"),
              "drifted": dict(a="int16", b="int16", c="int8", d="int16", e="int32",
                              f="int16")}
    for label, got, want in (("t", narrow, wide), ("drifted", narrow_drifted, wide_drifted)):
        assert {name: str(col.dtype) for name, col in got.columns.items()} == widths[label]
        assert all(col.dtype == np.int64 for col in want.columns.values())
        for spec in got.spec.columns:
            values = got.column(spec.name).tolist()
            assert values == want.column(spec.name).tolist(), (label, spec.name)
            assert spec.low <= min(values) and max(values) <= spec.high


def test_drift_to_wider_domain_picks_wider_type():
    t = generate_table(TableSpec("t", 500, (ColumnSpec("a", 0, 100),)), seed=5)
    assert t.column("a").dtype == np.int8
    shifted = apply_drift(t, DriftSpec(domain_shift=100), seed=6).column("a")
    assert shifted.dtype == np.int16
    assert 100 <= shifted.min() and 127 < shifted.max() <= 200


def test_zipf_cdf_ends_at_one():
    # the rounded sum ends a step below 1 here, where u = 1 - 2**-53 would
    # draw rank 17 of 16: high + 1, which wraps at a type's maximum
    weights = np.arange(1, 17, dtype=np.float64) ** -1.1
    assert (np.cumsum(weights) / weights.sum())[-1] == 1 - 2**-53
    cdf = _zipf_cdf(16, 1.1)
    assert cdf[-1] == 1.0
    assert np.searchsorted(cdf, 1 - 2**-53, "right") == 15
