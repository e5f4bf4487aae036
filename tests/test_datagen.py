from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from latebind import datagen
from latebind.datagen import (MAX_TABLE_BYTES, MAX_ZIPF_DOMAIN, ZIPF, ColumnSpec,
                              DistributionChange, DriftSpec, TableSpec, _zipf_cdf,
                              apply_drift, column_dtype, dump_table_csv, generate_table,
                              load_table_spec)
from latebind.errors import ValidationError, dump_json
from latebind.rng import SIGNED_BOUNDS

WIDTHS = tuple(SIGNED_BOUNDS)   # column types, narrowest first


def uniform_spec(rows: int, low: int = 0, high: int = 99, name: str = "t") -> TableSpec:
    return TableSpec(name, rows, (ColumnSpec("a", low, high),))


def test_zero_rows_empty_columns():
    t = generate_table(uniform_spec(0), seed=1)
    assert t.row_count == 0
    assert all(arr.size == 0 for arr in t.columns.values())
    assert t.generation == 0


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
    assert d.generation == t.generation + 1


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
    assert t.generation == 0


def test_generation_strictly_increases():
    t = generate_table(uniform_spec(100), seed=1)
    gens = [t.generation]
    for i in range(3):
        t = apply_drift(t, DriftSpec(scale_factor=1.0), seed=i)
        gens.append(t.generation)
    assert gens == [0, 1, 2, 3]


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


@pytest.mark.parametrize("bad", [
    TableSpec("t", -1, (ColumnSpec("a", 0, 9),)),
    TableSpec("t", 10, (ColumnSpec("a", 5, 4),)),
    TableSpec("t", 10, (ColumnSpec("a", 0, 9, distribution="zipf", skew=0.0),)),
    TableSpec("t", 10, ()),
    TableSpec("t", 10, (ColumnSpec("a", 0, 9), ColumnSpec("a", 0, 9))),
    TableSpec("t", 10, (ColumnSpec("a", 0, MAX_ZIPF_DOMAIN, "zipf"),)),
    TableSpec("t", 10, (ColumnSpec("a", -2**62, 2**62, "zipf"),)),  # np.arange comes back empty
    TableSpec("t", 10, (ColumnSpec("a", 0, 2**63),)),
    TableSpec("t", 10, (ColumnSpec("a", -2**63 - 1, 0),)),
    TableSpec("t", 10, (ColumnSpec("a", 0, 2**64),)),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValidationError):
        generate_table(bad, seed=1)


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
    wide = generate_table(TableSpec("t", 10, (ColumnSpec("a", -2**62, 2**62),)), seed=1)
    with pytest.raises(ValidationError, match="zipf domain"):
        apply_drift(wide, DriftSpec(skew_change=DistributionChange("zipf", 1.1)), seed=2)


def test_invalid_drift_rejected():
    t = generate_table(uniform_spec(10), seed=1)
    with pytest.raises(ValidationError):
        apply_drift(t, DriftSpec(scale_factor=0.0), seed=1)
    with pytest.raises(ValidationError):
        apply_drift(t, DriftSpec(scale_factor=-2.0), seed=1)


def spec_file(tmp_path, doc: dict) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_spec_json_roundtrip(tmp_path):
    doc = {"name": "demo", "row_count": 12, "columns": [
        {"name": "k", "low": 0, "high": 9},
        {"name": "z", "low": 1, "high": 100, "distribution": "zipf", "skew": 1.5},
    ]}
    spec = load_table_spec(spec_file(tmp_path, doc))
    assert spec.name == "demo"
    assert spec.row_count == 12
    assert spec.columns[1].distribution == "zipf"
    with open(tmp_path / "again.json", "w", encoding="utf-8") as fh:
        dump_json(spec, fh)
    assert load_table_spec(str(tmp_path / "again.json")) == spec


def test_spec_json_unknown_keys_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_table_spec(spec_file(tmp_path, {"name": "x", "row_count": 1, "columns": [],
                                             "extra": 1}))
    with pytest.raises(ValidationError):
        load_table_spec(spec_file(tmp_path, {
            "name": "x", "row_count": 1,
            "columns": [{"name": "a", "low": 0, "high": 1, "oops": 2}]}))


def reference_csv(table) -> str:
    """The table written row by row through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([c.name for c in table.spec.columns])
    for i in range(table.row_count):
        writer.writerow([int(table.columns[c.name][i]) for c in table.spec.columns])
    return buf.getvalue()


def test_csv_dump_deterministic():
    spec = TableSpec("t", 4, (ColumnSpec("a", 0, 9), ColumnSpec("b", -9, 9),
                              ColumnSpec("c", -10**12, 10**12)))
    t = generate_table(spec, seed=2)
    buf1, buf2 = io.StringIO(), io.StringIO()
    dump_table_csv(t, buf1)
    dump_table_csv(t, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    assert buf1.getvalue() == ("a,b,c\n6,7,-850816887678\n9,-4,-747055247412\n"
                               "4,-4,-759926549192\n1,1,117067349360\n")


@pytest.mark.parametrize("rows", [0, 1, 300])
def test_csv_dump_matches_row_writer(rows):
    spec = TableSpec("t", rows, (ColumnSpec("a", -5, 5), ColumnSpec("b", 0, 2**40),
                                 ColumnSpec("c", -2**62, 2**62),
                                 ColumnSpec("z", -20, 979, "zipf", 1.2)))
    t = generate_table(spec, seed=rows)
    buf = io.StringIO()
    dump_table_csv(t, buf)
    assert buf.getvalue() == reference_csv(t)


@pytest.mark.parametrize("low,high", [(-2**63, 2**63 - 1), (-2**63, -2**63), (2**63 - 1, 2**63 - 1),
                                      (0, 2**63 - 1)])
def test_int64_limit_ranges_generate(low, high):
    # the whole int64 range is 2**64 values, one more than a uint64 modulus holds
    t = generate_table(TableSpec("t", 500, (ColumnSpec("a", low, high),)), seed=21)
    values = t.column("a")
    assert values.dtype == np.int64
    assert low <= int(values.min()) and int(values.max()) <= high
    if high - low >= 2**63:
        assert int(values.min()) < 0 < int(values.max())


@pytest.mark.parametrize("dtype", WIDTHS)
def test_width_rule_at_each_dtype_limit(dtype):
    info = np.iinfo(dtype)
    assert column_dtype(ColumnSpec("a", info.min, info.max)) == dtype
    wider = WIDTHS[WIDTHS.index(dtype) + 1:]
    for low, high in ((info.min - 1, info.max), (info.min, info.max + 1)):
        col = ColumnSpec("a", low, high)
        if wider:
            assert column_dtype(col) == wider[0]
        else:
            with pytest.raises(ValidationError, match="exceeds int64"):
                column_dtype(col)


# one column per width, uniform and zipf, at and near the types' limits
NARROW_SPEC = TableSpec("t", 3000, (
    ColumnSpec("a", -128, 127), ColumnSpec("b", 0, 999),
    ColumnSpec("c", -100, 100, ZIPF, 1.1), ColumnSpec("d", 32767 - 40, 32767, ZIPF, 0.6),
    ColumnSpec("e", -2**31, 2**31 - 1), ColumnSpec("f", 2**31 - 1, 2**31 + 5)))


def test_narrow_columns_hold_the_int64_values(monkeypatch):
    # a drift of -20 widens a, narrows f, and keeps the others' widths
    drift = DriftSpec(scale_factor=0.5, domain_shift=-20)
    narrow = generate_table(NARROW_SPEC, seed=3)
    narrow_drifted = apply_drift(narrow, drift, seed=4)
    monkeypatch.setattr(datagen, "column_dtype", lambda col: np.dtype(np.int64))
    wide = generate_table(NARROW_SPEC, seed=3)
    wide_drifted = apply_drift(wide, drift, seed=4)
    widths = {"t": dict(a="int8", b="int16", c="int8", d="int16", e="int32", f="int64"),
              "drifted": dict(a="int16", b="int16", c="int8", d="int16", e="int64",
                              f="int32")}
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
