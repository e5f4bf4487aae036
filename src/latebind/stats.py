"""Point-in-time column statistics and selectivity estimates.

Statistics are captured from a concrete table generation: row count, exact
distinct count, and an equi-width histogram.  A capture may name the columns
to describe; the scenarios describe exactly the columns their plans read
(join keys and filter columns).  Range estimates interpolate uniformly
within buckets; equality estimates are 1/ndv inside the observed value range.
A TableStats persists as the JSON form of its dataclass (errors.dump_json
and errors.load_json), which holds every statistic exactly, so statistics
captured before a drift survive it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .datagen import Table
from .errors import ValidationError

DEFAULT_BUCKETS = 32
_FLOAT_EXACT = 2**53  # float64 holds every integer of smaller magnitude

COMPARISONS = ("<", "<=", "=", ">=", ">")


@dataclass(frozen=True)
class Predicate:
    column: str
    comparison: str
    constant: int

    def __post_init__(self):
        if self.comparison not in COMPARISONS:
            raise ValidationError(f"unknown comparison {self.comparison!r}")

    def mask(self, values: np.ndarray) -> np.ndarray:
        ops = {
            "<": np.less, "<=": np.less_equal, "=": np.equal,
            ">=": np.greater_equal, ">": np.greater,
        }
        return ops[self.comparison](values, self.constant)

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
    captured_generation: int


@dataclass(frozen=True)
class TableStats:
    """All per-column stats captured from one table at one generation."""

    table: str
    row_count: int
    captured_generation: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        if name not in self.columns:
            raise ValidationError(f"no statistics for column {name!r} of table {self.table}")
        return self.columns[name]


def capture_statistics(table: Table, buckets: int = DEFAULT_BUCKETS,
                       columns: Optional[Iterable[str]] = None) -> TableStats:
    """Scan the table and freeze per-column statistics at its current
    generation, for the named columns (every column by default)."""
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
                bucket_edges=(), bucket_counts=(), captured_generation=table.generation,
            )
            continue
        lo = int(values.min())
        hi = int(values.max())
        # integer value v occupies [v, v+1), so the histogram spans [lo, hi+1);
        # bucket i counts the values below edge i+1 less those below edge i
        edges = np.linspace(lo, hi + 1, buckets + 1)
        span = hi - lo + 1
        if span <= n and -_FLOAT_EXACT <= lo and hi < _FLOAT_EXACT:
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
            # edge ceilings as above, since float64 rounds values past 2**53;
            # the outer edges stand for lo and hi + 1, so the counts sum to n
            ceilings = [math.ceil(e) for e in edges[1:-1].tolist()]
            inner = np.searchsorted(ordered, np.array([min(max(c, lo), hi) for c in ceilings],
                                                      dtype=ordered.dtype))
            inner[[c > hi for c in ceilings]] = n  # the clamp kept these in the column's type
            counts = np.diff([0, *inner, n])
        cols[name] = ColumnStats(
            column=name, row_count=n, ndv=ndv, min_value=lo, max_value=hi,
            bucket_edges=tuple(edges.tolist()),
            bucket_counts=tuple(counts.tolist()),
            captured_generation=table.generation,
        )
    return TableStats(table=table.spec.name, row_count=table.row_count,
                      captured_generation=table.generation, columns=cols)


def _range_fraction(stats: ColumnStats, lo: float, hi: float) -> float:
    """Estimated fraction of rows in [lo, hi) (uniform-within-bucket
    interpolation)."""
    if stats.row_count == 0 or not stats.bucket_counts:
        return 0.0
    total = float(stats.row_count)
    mass = 0.0
    edges = stats.bucket_edges
    for i, count in enumerate(stats.bucket_counts):
        b_lo, b_hi = edges[i], edges[i + 1]
        width = b_hi - b_lo
        if width <= 0.0:  # degenerate single-value histogram
            covered = 1.0 if lo <= b_lo < hi else 0.0
        else:
            overlap = min(hi, b_hi) - max(lo, b_lo)
            covered = min(max(overlap / width, 0.0), 1.0)
        if covered <= 0.0:
            continue
        mass += covered * count
    return min(mass / total, 1.0)


def estimate_selectivity(stats: ColumnStats, pred: Predicate) -> float:
    """Selectivity in [0, 1] for one predicate against captured statistics."""
    if pred.column != stats.column:
        raise ValidationError(
            f"predicate column {pred.column!r} does not match statistics for {stats.column!r}")
    if stats.row_count == 0:
        return 0.0

    c = float(pred.constant)
    lo = float(stats.min_value)
    # +1 on the upper edge so integer max is inside the last half-open interval
    hi = float(stats.max_value) + 1.0

    if pred.comparison == "=":
        inside = stats.min_value <= pred.constant <= stats.max_value
        return (1.0 / stats.ndv) if (inside and stats.ndv > 0) else 0.0

    if pred.comparison == "<":
        bounds = (lo, c)
    elif pred.comparison == "<=":
        bounds = (lo, c + 1.0)
    elif pred.comparison == ">=":
        bounds = (c, hi)
    else:  # ">"
        bounds = (c + 1.0, hi)
    return _range_fraction(stats, *bounds)

