"""Deterministic synthetic tables and controlled drift.

Tables are columnar integer vectors generated from a seed via SplitMix64
(see rng module), so identical (spec, seed) pairs are bitwise identical on
any machine.  Each column is stored in the narrowest of int8, int16, int32
and int64 that holds its spec's [low, high] (column_dtype): the width
follows from the spec alone, never from the values drawn, and the values
are those of an int64 draw.  Drift produces a *new* table one generation
later whose columns are a fresh deterministic sample of the drifted
distribution (scaled row count, shifted value domain, optionally replaced
skew); the input table is never mutated.  Statistics captured before a
drift therefore describe a distribution the drifted table no longer
follows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import IO, Optional

import numpy as np

from .errors import ValidationError, load_json
from .rng import INT64_MAX, INT64_MIN, SIGNED_BOUNDS, Stream, derive_seed

UNIFORM = "uniform"
ZIPF = "zipf"

MAX_ZIPF_DOMAIN = 2**24  # values; a zipf CDF holds a float64 per value (128 MiB)
MAX_TABLE_BYTES = 2**30  # a table's bytes at int64 width, 8 per value (1 GiB)
_zipf_cdf_cache: dict[tuple[int, float], np.ndarray] = {}


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    low: int
    high: int
    distribution: str = UNIFORM
    skew: float = 1.0  # zipf only

    def validate(self) -> None:
        if not self.name:
            raise ValidationError("column name must be non-empty")
        if self.low > self.high:
            raise ValidationError(f"column {self.name}: empty range [{self.low}, {self.high}]")
        if self.low < INT64_MIN or self.high > INT64_MAX:
            raise ValidationError(f"column {self.name}: range [{self.low}, {self.high}] "
                                  f"exceeds int64")
        if self.distribution not in (UNIFORM, ZIPF):
            raise ValidationError(f"column {self.name}: unknown distribution {self.distribution!r}")
        if self.distribution == ZIPF and not self.skew > 0:
            raise ValidationError(f"column {self.name}: zipf skew must be > 0, got {self.skew}")
        if self.distribution == ZIPF and self.high - self.low >= MAX_ZIPF_DOMAIN:
            raise ValidationError(f"column {self.name}: zipf domain exceeds "
                                  f"{MAX_ZIPF_DOMAIN} values, the most its CDF holds")


@dataclass(frozen=True)
class TableSpec:
    name: str
    row_count: int
    columns: tuple[ColumnSpec, ...]

    def validate(self) -> None:
        if not self.name:
            raise ValidationError("table name must be non-empty")
        if self.row_count < 0:
            raise ValidationError(f"table {self.name}: row_count must be >= 0, got {self.row_count}")
        if 8 * self.row_count * len(self.columns) > MAX_TABLE_BYTES:
            raise ValidationError(f"table {self.name}: {self.row_count} rows of "
                                  f"{len(self.columns)} columns exceed {MAX_TABLE_BYTES} "
                                  f"bytes at int64 width")
        if not self.columns:
            raise ValidationError(f"table {self.name}: at least one column required")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValidationError(f"table {self.name}: duplicate column names")
        for col in self.columns:
            col.validate()


@dataclass(frozen=True)
class Table:
    """One generation of a table: an array per column of the spec, in that
    column's column_dtype, so readers must take any signed integer width."""

    spec: TableSpec
    generation: int
    columns: dict[str, np.ndarray] = field(repr=False)

    @property
    def row_count(self) -> int:
        return self.spec.row_count

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValidationError(f"table {self.spec.name}: no column {name!r}")
        return self.columns[name]


@dataclass(frozen=True)
class DistributionChange:
    """Replacement sampling distribution applied to every column by a drift."""

    distribution: str
    skew: float = 1.0


@dataclass(frozen=True)
class DriftSpec:
    scale_factor: float = 1.0
    domain_shift: int = 0
    skew_change: Optional[DistributionChange] = None

    def validate(self) -> None:
        if not self.scale_factor > 0:
            raise ValidationError(f"scale_factor must be > 0, got {self.scale_factor}")


def _zipf_cdf(domain_size: int, skew: float) -> np.ndarray:
    key = (domain_size, skew)
    cached = _zipf_cdf_cache.get(key)
    if cached is None:
        ranks = np.arange(1, domain_size + 1, dtype=np.float64)
        weights = ranks ** (-skew)
        cached = np.cumsum(weights) / weights.sum()
        # the rounded sum may end a step below 1, where a draw of u = 1 - 2**-53
        # would land past the domain; every u is below 1, so no other draw moves
        cached[-1] = 1.0
        _zipf_cdf_cache[key] = cached
    return cached


def column_dtype(col: ColumnSpec) -> np.dtype:
    """The narrowest signed integer type that holds col's [low, high]."""
    for dtype, (low, high) in SIGNED_BOUNDS.items():
        if low <= col.low and col.high <= high:
            return dtype
    raise ValidationError(f"column {col.name}: range [{col.low}, {col.high}] exceeds int64")


def _sample_column(col: ColumnSpec, rows: int, stream: Stream) -> np.ndarray:
    dtype = column_dtype(col)
    if rows == 0:
        return np.empty(0, dtype=dtype)
    if col.distribution == UNIFORM:
        return stream.integers(col.low, col.high, rows, dtype)
    # zipf: rank 1 (most frequent) maps to the low end of the domain; ranks
    # are added to low at int64 width, where the domain's every value fits
    cdf = _zipf_cdf(col.high - col.low + 1, col.skew)
    u = stream.unit(rows)
    ranks = np.searchsorted(cdf, u, side="right")
    return np.add(ranks, col.low, dtype=np.int64).astype(dtype, copy=False)


def generate_table(spec: TableSpec, seed: int) -> Table:
    """Sample a fresh generation-0 table; identical (spec, seed) is bitwise stable."""
    spec.validate()
    columns: dict[str, np.ndarray] = {}
    for col in spec.columns:
        stream = Stream(derive_seed(seed, f"col/{spec.name}/{col.name}"))
        columns[col.name] = _sample_column(col, spec.row_count, stream)
    return Table(spec=spec, generation=0, columns=columns)


def apply_drift(table: Table, drift: DriftSpec, seed: int) -> Table:
    """Produce the next-generation table under the given drift.

    The result is a deterministic fresh sample of the drifted distribution:
    row count scaled to round(old * scale_factor), every column's domain
    shifted by domain_shift, and the sampling distribution replaced when
    skew_change is given.  The input table is untouched and its generation
    counter only ever increases in the returned copy.
    """
    drift.validate()
    new_rows = int(round(table.spec.row_count * drift.scale_factor))
    new_cols = []
    for col in table.spec.columns:
        changed = col
        if drift.skew_change is not None:
            changed = replace(changed, distribution=drift.skew_change.distribution,
                              skew=drift.skew_change.skew)
        changed = replace(changed, low=changed.low + drift.domain_shift,
                          high=changed.high + drift.domain_shift)
        new_cols.append(changed)
    new_spec = TableSpec(name=table.spec.name, row_count=new_rows, columns=tuple(new_cols))
    new_spec.validate()
    gen = table.generation + 1
    columns: dict[str, np.ndarray] = {}
    for col in new_spec.columns:
        stream = Stream(derive_seed(seed, f"drift/{new_spec.name}/{col.name}/{gen}"))
        columns[col.name] = _sample_column(col, new_rows, stream)
    return Table(spec=new_spec, generation=gen, columns=columns)


# ── config / debug I/O ─────────────────────────────────────────────────────


def load_table_spec(path: str) -> TableSpec:
    """The TableSpec of a JSON file, type-checked and validated."""
    with open(path, encoding="utf-8") as fh:
        spec = load_json(TableSpec, fh, "table spec")
    spec.validate()
    return spec


def dump_table_csv(table: Table, out: IO[str]) -> None:
    """Write the table as CSV, header row = column names."""
    names = [c.name for c in table.spec.columns]
    csv.writer(out, lineterminator="\n").writerow(names)
    # integer cells need no quoting, so each row is its cells joined by commas
    cols = [map(str, table.columns[n].tolist()) for n in names]
    out.writelines(f"{line}\n" for line in map(",".join, zip(*cols)))
