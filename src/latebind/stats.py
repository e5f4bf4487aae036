"""Point-in-time column statistics and selectivity estimates.

Statistics are a table's state when they were captured: row count, exact
distinct count, and an equi-width histogram.  A capture may name the columns
to describe; the scenarios describe exactly the columns their plans read
(join keys and filter columns).  A filter has one form, ``column >=
constant`` (``Predicate(column, constant)``), and its estimate interpolates
uniformly within buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .datagen import Table
from .errors import ValidationError

DEFAULT_BUCKETS = 32


@dataclass(frozen=True)
class Predicate:
    """The one filter form, ``column >= constant``."""

    column: str
    constant: int
    # a class constant, not a field; perfbench/oracle.py:21 reads it
    comparison = ">="

    def mask(self, values: np.ndarray) -> np.ndarray:
        return np.greater_equal(values, self.constant)

    def __str__(self) -> str:
        return f"{self.column} {self.comparison} {self.constant}"


@dataclass(frozen=True)
class ColumnStats:
    column: str
    row_count: int
    ndv: int
    min_value: int
    max_value: int
    bucket_edges: tuple[float, ...]   # len B+1, partitions [min, max+1); empty table -> ()
    bucket_counts: tuple[int, ...]    # len B; sums to row_count


@dataclass(frozen=True)
class TableStats:
    """All per-column stats captured from one table as it was then."""

    table: str
    row_count: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        if name not in self.columns:
            raise ValidationError(f"no statistics for column {name!r} of table {self.table}")
        return self.columns[name]


def capture_statistics(table: Table, buckets: int = DEFAULT_BUCKETS,
                       columns: Optional[Iterable[str]] = None) -> TableStats:
    """Scan the table and freeze per-column statistics of it as it is now,
    for the named columns (every column by default)."""
    if buckets < 1:
        raise ValidationError(f"bucket count must be >= 1, got {buckets}")
    names = [spec.name for spec in table.spec.columns]
    if columns is not None:
        wanted = set(columns)
        if not wanted <= set(names):
            raise ValidationError(
                f"no columns {sorted(wanted - set(names))} in table {table.spec.name}")
        names = [name for name in names if name in wanted]
    cols: dict[str, ColumnStats] = {}
    for name in names:
        values = table.columns[name]
        n = len(values)
        if n == 0:
            cols[name] = ColumnStats(
                column=name, row_count=0, ndv=0, min_value=0, max_value=0,
                bucket_edges=(), bucket_counts=())
            continue
        lo = int(values.min())
        hi = int(values.max())
        # integer value v occupies [v, v+1), so the histogram spans [lo, hi+1);
        # bucket i counts the values below edge i+1 less those below edge i
        edges = np.linspace(lo, hi + 1, buckets + 1)
        span = hi - lo + 1
        if span <= n:
            # dense domain: a count per value in place of a sort.  below[k]
            # counts the values under lo + k, and an integer is under an edge
            # exactly when it is under the edge's ceiling.  Offsets from lo
            # are taken at int64 width: they may not fit the column's type
            freq = np.bincount(np.subtract(values, lo, dtype=np.int64) if lo else values,
                               minlength=span)
            ndv = int(np.count_nonzero(freq))
            below = np.zeros(span + 1, dtype=np.int64)
            np.cumsum(freq, out=below[1:])
            at = np.clip(np.ceil(edges).astype(np.int64) - lo, 0, span)
            counts = np.diff(below[at])
        else:
            ordered = np.sort(values)
            ndv = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
            # float64 holds every column value (datagen.VALUE_BOUNDS) exactly,
            # so the search counts the values below each inner edge; the outer
            # edges stand for lo and hi + 1, so the counts sum to n
            counts = np.diff([0, *np.searchsorted(ordered, edges[1:-1]), n])
        cols[name] = ColumnStats(
            column=name, row_count=n, ndv=ndv, min_value=lo, max_value=hi,
            bucket_edges=tuple(edges.tolist()),
            bucket_counts=tuple(counts.tolist()))
    return TableStats(table=table.spec.name, row_count=table.row_count, columns=cols)


def estimate_selectivity(stats: ColumnStats, pred: Predicate) -> float:
    """Estimated fraction in [0, 1] of the rows with ``column >= constant``:
    the rows of the buckets over [constant, max + 1), each bucket's spread
    uniformly over its width."""
    if pred.column != stats.column:
        raise ValidationError(
            f"predicate column {pred.column!r} does not match statistics for {stats.column!r}")
    if stats.row_count == 0:
        return 0.0
    # the outer edges stand for min and max + 1, so integer max is inside the
    # last half-open bucket.  No overlap exceeds its bucket's width, nor the
    # mass the row count, so neither needs a clamp to 1
    edges = (stats.min_value, *stats.bucket_edges[1:-1], stats.max_value + 1)
    mass = 0.0
    for b_lo, b_hi, count in zip(edges, edges[1:], stats.bucket_counts):
        overlap = b_hi - max(pred.constant, b_lo)
        mass += max(overlap, 0.0) / (b_hi - b_lo) * count
    return mass / stats.row_count
