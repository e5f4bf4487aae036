"""Columnar executor with decision hooks at late-bind operator boundaries.

Each operator runs to completion before the next starts, so when a
late-bind node is about to run, its input cardinality is exact.  At that
boundary the decision hook runs the planned variant under baseline, which
never consults the policy; in a deciding mode, observe builds the node's
risk vector once (the observed input and its ratio to the estimate as
executor-side runtime signals, and accelerator amortization risk from the
mode's thresholds) and the policy makes the one decision.  A record's
decision label follows from its planned and executed variants.  Memory is
accounted, not decided on: a node whose working set is above the budget is
charged the spill multiplier, and one above the hard cap fails the query.
With c columns on a side, a scan of n rows holds the earlier branch's
output plus n*c values; a filter that keeps k rows, that plus k*c; the
join, both branch outputs, the build side once more under hash_join, and
one value per carried column per output row; the aggregate, the join
output alone.  Memory is part of the simulated cost model, so every value
is VALUE_BYTES (int64) whatever integer type its column is stored in;
spills and failures do not depend on how narrow the tables are.  A trace's
latency is the sum of its records' charges; a failing node has no record.

Costs are charged through the simulated clock from the one true cost model,
TRUE_COST_MODEL, at observed cardinalities, whatever model the plan was
priced from; which formula applies is exactly the executed variant's, which
is how an inappropriate early binding shows up as latency.
Noise events are keyed by (query seed, node position), never by mode or
decision outcome, so latency differences between modes reflect decisions
alone.

A switch decision discards no work: variants start from the same
materialized input, whose cost was charged once.

Every plan has one shape: the fact table scanned and optionally filtered,
the dim table scanned for its key, their join, and a count of its rows or a
sum over a fact column.  The join kernels aggregate eagerly (Yan & Larson,
"Eager Aggregation and Lazy Aggregation", VLDB 1995): a join yields its
output row count and, per carried column, how many output rows each of that
column's rows is in; execute carries the summed fact column alone.  The
aggregate above it takes the int64 sum weighted by those counts, which
equals the sum over the built rows, so the aggregate's own kernel still
does the reduction.  The output is charged as if materialized, a row of
every carried column per output row, so spills and hard-cap failures are
those of an engine that builds the rows.  The literal nested loop compares
a block of build rows with every probe row at once and adds the block's
matches per probe row as uint8 (a block has at most 255 rows, so the count
cannot wrap); both kernels count matches per build row only for carried
build columns, which execute never passes.

Each node is named by the kernel that actually runs (``NodeRecord.kernel``):
a hash or nested-loop join kernel, or the one CPU kernel of a scan, filter
or aggregate, since the accelerator is a cost-model device.  Every
execution charges its own cost, but executions share
kernel outputs by one rule: a filter, hash build, join or aggregate output
is keyed by its kernel and the identity of its input arrays (_shared), so
it is computed once per distinct input.  Where it lives follows from those
inputs: a hash build or join whose inputs are all the tables' own column
arrays lives as long as the table set, every other output as long as the
group (the executions of one plan on one set of tables).  The filter kernel
gathers the rows its mask keeps by index, one take per column, but a mask
that keeps every row returns its input dict itself, so the joins of such
filters recur across groups with different predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import policy as policy_mod
from .accel import accelerator_risk
from .clock import SimulatedClock
from .datagen import Table
from .errors import MemoryBudgetExceeded, ValidationError
# predicted_cost is not called here; perfbench/layers.py wraps engine.predicted_cost
from .planner import (AnnotatedPlan, CPU, CostModel, HASH_JOIN, NESTED_LOOP, VARIANTS,
                      PlanNode, Query, cost as model_cost, predicted_cost)
from .policy import BASELINE, KEEP, MODES, SWITCH, RiskVector, Thresholds
from .rng import derive_seed
from .stats import Predicate

SPILL_MULTIPLIER = 3.0   # charged-cost inflation of a node whose working set spills
VALUE_BYTES = 8          # bytes charged per column value: int64, whatever the dtype
BATCH_SIZE = 255         # build rows per block of the literal nested loop; its
                         # per-probe-row counts are uint8, so at most 255
# what execution costs, whatever model a plan was priced from
TRUE_COST_MODEL = CostModel.default()


@dataclass
class EngineConfig:
    memory_budget_bytes: int = 64 * 1024 * 1024
    hard_memory_factor: float = 4.0     # budget * factor exhausts the query
    nl_pair_cap: int = 4_000_000        # see join_kernel


@dataclass
class NodeRecord:
    node_id: str
    kind: str
    planned_variant: str
    executed_variant: str
    kernel: str                  # what ran: hash_join, nested_loop, or cpu
    n_obs: int
    charged_cost: float
    spilled: bool = False

    @property
    def decisions(self) -> tuple[str, ...]:
        """The decision label of a late-bind node, keep or switch:<variant>;
        empty for any other node."""
        if self.kind not in VARIANTS:
            return ()
        if self.executed_variant == self.planned_variant:
            return (KEEP,)
        return (f"{SWITCH}:{self.executed_variant}",)


@dataclass
class ExecutionTrace:
    records: list[NodeRecord] = field(default_factory=list)
    total_latency: float = 0.0
    failed: bool = False
    failure: str = ""


@dataclass(frozen=True)
class QueryResult:
    value: int


@dataclass
class KernelMemo:
    """The stores of kernel outputs that execute calls share, one per
    lifetime; None is no store, so every output is computed.

    ``group`` serves calls that share plan and tables.  ``table_set`` serves
    every call over the same table objects and holds only the outputs whose
    inputs are all table columns (hash builds and joins).  Either keys an
    output by its kernel and the identity of its input arrays (_shared).
    """

    table_set: Optional[dict] = None
    group: Optional[dict] = None


def observe(node: PlanNode, n_obs: int, thresholds: Thresholds) -> RiskVector:
    """The risk vector of one late-bind boundary: the observed input, its
    ratio to the planner's estimate, and the accelerator amortization risk
    against the node kind's N*, None for a kind without one (joins)."""
    n_star = thresholds.n_star.get(node.kind)
    return RiskVector(n_obs, n_obs / max(1.0, node.est_input),
                      None if n_star is None else accelerator_risk(n_star, n_obs))


def decision_hook(node: PlanNode, n_obs: int, mode: str, thresholds: Thresholds) -> str:
    """The variant to execute at a late-bind boundary: the planned one under
    baseline, else the policy's decision on the node's risk vector."""
    if mode == BASELINE:
        return node.chosen
    return policy_mod.decide(observe(node, n_obs, thresholds), node, thresholds)


# ── kernels ────────────────────────────────────────────────────────────────


def join_kernel(variant: str, pairs: int, pair_cap: int) -> str:
    """The kernel a join variant runs on inputs of `pairs` probe x build pairs.

    Beyond pair_cap comparisons a nested-loop variant produces the same
    multiset through the hash kernel: the variant governs the charged cost
    model, not the bits of the result, and literal quadratic scans of
    drifted inputs would dominate harness runtime for no informational gain.
    """
    if variant == NESTED_LOOP and pairs <= pair_cap:
        return NESTED_LOOP
    return HASH_JOIN


def _hash_build(build_key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hash kernel's build side, grouped by key: the stable sort order of
    the build rows, the start of each key's run in that order, and the
    distinct keys, ascending."""
    order = np.argsort(build_key, kind="stable")
    sorted_key = build_key[order]
    run_start = np.ones(sorted_key.size, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    return order, starts, sorted_key[starts]


def _hash_join(probe_key: np.ndarray, build_key: np.ndarray,
               carried: dict[str, np.ndarray], build_carried: dict[str, np.ndarray],
               build: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
               ) -> tuple[int, dict[str, np.ndarray]]:
    """Equi-join aggregated eagerly: the output row count, and per carried
    column the number of output rows each of its rows is in, without
    building the rows.  Each probe row gathers its key's count of build rows;
    each build row, when a build column is carried, its key's count of probe
    rows.  `build` is _hash_build(build_key) when the caller already has it."""
    order, starts, keys = build if build is not None else _hash_build(build_key)
    key_at, probe_at, size = _key_table(probe_key, keys, order.size)
    run_rows = np.diff(starts, append=order.size)
    per_key = np.zeros(size, dtype=np.int64)
    per_key[key_at] = run_rows
    probe_counts = np.take(per_key, probe_at, mode="clip")
    weights = dict.fromkeys(carried, probe_counts)
    if build_carried:
        # clipped as np.take clips: a probe key outside the table counts at an empty end
        hits = np.bincount(np.clip(probe_at, 0, size - 1), minlength=size)
        build_counts = np.empty(order.size, dtype=np.int64)
        build_counts[order] = np.repeat(hits[key_at], run_rows)
        weights.update(dict.fromkeys(build_carried, build_counts))
    return int(probe_counts.sum()), weights


def _key_table(probe_key: np.ndarray, keys: np.ndarray, build_rows: int,
               ) -> tuple[np.ndarray, np.ndarray, int]:
    """A table with an entry per distinct build key (`keys`, ascending) that
    probe rows read by position: the position of each key, the position of
    each probe row's key (read with clipping), and the table size.  Every
    other position is a key that no build row has."""
    n = keys.size
    if n:
        kmin, kmax = int(keys[0]), int(keys[-1])
        span = kmax - kmin + 1
        if span <= probe_key.size + build_rows:
            # dense build key: key kmin + k sits at k + 1, between two empty
            # ends.  Offsets are taken at int64 width, whatever the keys'
            # width; they wrap mod 2**64, and a wrapped offset is never in
            # [1, span], so every key outside [kmin, kmax] clips to an end.
            at = probe_key - np.int64(kmin)
            at += 1
            key_at = keys - np.int64(kmin)
            key_at += 1
            return key_at, at, span + 2
    # sparse build key: search each distinct probe key once, then spread
    # back to probe order; position 0 is the empty entry
    distinct, inverse = np.unique(probe_key, return_inverse=True)
    at = np.searchsorted(keys, distinct)
    found = at < n
    found[found] = keys[at[found]] == distinct[found]
    return np.arange(1, n + 1), np.where(found, at + 1, 0)[inverse], n + 1


def _nested_loop_join(probe_key: np.ndarray, build_key: np.ndarray,
                      carried: dict[str, np.ndarray], build_carried: dict[str, np.ndarray],
                      block: int) -> tuple[int, dict[str, np.ndarray]]:
    """Blocked all-pairs comparison, aggregated eagerly like the hash kernel.
    A block of `block` build rows is compared with every probe row; its
    matches per probe row are added up as uint8, which holds a block's count
    since a block has at most 255 rows, and its matches per build row are
    counted only when a build column is carried.

    Shape limit: the loop runs once per `block` build rows, however few
    probe rows there are, so each pass is cheap only while the probe side
    has hundreds of rows or more, as in every scenario's defaults.  A build
    side far larger than the probe side (a few fact rows against a large
    `--dim-rows`) makes thousands of small passes."""
    if not 1 <= block <= 255:
        raise ValidationError(f"nested-loop block must be in 1..255 build rows, got {block}")
    probe_counts = np.zeros(probe_key.size, dtype=np.int64)
    build_counts = np.zeros(build_key.size, dtype=np.int64)
    for start in range(0, build_key.size, block):
        # the block's compare matrix is freed here, before the next block
        # allocates its own
        eq = build_key[start:start + block, None] == probe_key[None, :]
        probe_counts += np.add.reduce(eq.view(np.uint8), axis=0, dtype=np.uint8)
        if build_carried:
            build_counts[start:start + block] = np.count_nonzero(eq, axis=1)
    weights = {**dict.fromkeys(carried, probe_counts),
               **dict.fromkeys(build_carried, build_counts)}
    return int(probe_counts.sum()), weights


def _filter(cols: dict[str, np.ndarray], pred: Predicate) -> dict[str, np.ndarray]:
    """The rows of `cols` that pass `pred`, gathered by index: one take per
    column, several times faster than boolean selection, which rescans the
    mask for every column.  When every row passes, `cols` itself."""
    mask = pred.mask(cols[pred.column])
    if mask.all():
        return cols
    rows = np.flatnonzero(mask)
    return {name: arr.take(rows) for name, arr in cols.items()}


def _output_sum(col: np.ndarray, weights: np.ndarray) -> int:
    """col's int64 sum over a join output that holds its row i weights[i]
    times, wrapping as the sum of the materialized output does; a narrow
    column is widened first, so the products cannot wrap at its width."""
    return int(np.dot(col.astype(np.int64, copy=False), weights))


def _shared(store: Optional[dict], tag: tuple, arrays: tuple[np.ndarray, ...],
            compute: Callable[[], object]) -> object:
    """compute(), once per tag and identity of `arrays` in the store, or
    every time without one; the entry keeps the arrays alive, so their ids
    stay theirs while it exists."""
    if store is None:
        return compute()
    key = (tag, *map(id, arrays))
    entry = store.get(key)
    if entry is None:
        entry = store[key] = (arrays, compute())
    return entry[1]


# ── execution ──────────────────────────────────────────────────────────────


def _fact_columns(q: Query, fact: Table) -> list[str]:
    """The fact columns a query reads: its key, its filter's column and the
    summed column (found in the table, since statistics need not describe it)."""
    cols = {q.left_key}
    if q.left_filter:
        cols.add(q.left_filter.column)
    if q.aggregate.op == "sum":
        if q.aggregate.column not in fact.columns:
            raise ValidationError(f"aggregate column {q.aggregate.column!r} is not a column "
                                  f"of fact table {q.left_table!r}")
        cols.add(q.aggregate.column)
    return sorted(cols)


def execute(plan: AnnotatedPlan, tables: dict[str, Table], mode: str,
            thresholds: Thresholds, clock: SimulatedClock, seed: int,
            config: Optional[EngineConfig] = None, memo: Optional[KernelMemo] = None,
            ) -> tuple[Optional[QueryResult], ExecutionTrace]:
    """Run one annotated plan; returns (result, trace), result None on failure.

    Calls that share a memo's ``group`` must share plan and tables, whatever
    their mode or query seed; calls that share its ``table_set`` must share
    the table objects.  Each kernel output is then computed once per kernel
    and input arrays, and later calls get the same output objects.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if mode != BASELINE and not thresholds.calibrated:
        raise ValidationError(f"{mode} mode requires calibrated thresholds")
    config = config or EngineConfig()
    memo = memo or KernelMemo()
    q = plan.query
    for name in (q.left_table, q.right_table):
        if name not in tables:
            raise ValidationError(f"table {name!r} not provided")
        if tables[name].generation < plan.stats[name].captured_generation:
            raise ValidationError(f"table {name!r} regressed below its statistics generation")

    fact, dim = tables[q.left_table], tables[q.right_table]
    left_cols = _fact_columns(q, fact)
    noise_seed = derive_seed(seed, "clock")

    trace = ExecutionTrace()
    budget = config.memory_budget_bytes
    hard_cap = budget * config.hard_memory_factor

    def run_node(node: PlanNode, variant: str, cards: tuple[float, ...], n_obs: int,
                 kernel: Callable[[], object], working_set: Callable[[object], int],
                 kernel_name: str = CPU) -> object:
        base = model_cost(node.kind, variant, cards, TRUE_COST_MODEL)
        out = kernel()
        # nodes run in plan order and a failure ends the run, so a node's
        # noise counter is its position in the plan: the records before it
        charged = clock.charge(base, noise_seed, len(trace.records))
        working = working_set(out)
        spilled = working > budget
        if working > hard_cap:
            raise MemoryBudgetExceeded(
                f"{node.node_id}: working set {working} exceeds hard cap {hard_cap:.0f}")
        if spilled:
            charged *= SPILL_MULTIPLIER
        trace.records.append(NodeRecord(
            node_id=node.node_id, kind=node.kind, planned_variant=node.chosen,
            executed_variant=variant, kernel=kernel_name, n_obs=n_obs,
            charged_cost=charged, spilled=spilled))
        return out

    def run_branch(scan_node: PlanNode, filter_node: Optional[PlanNode],
                   table: Table, cols: list[str], earlier: int) -> dict[str, np.ndarray]:
        # earlier: the bytes of the other branch's output, held meanwhile
        n, per_row = table.row_count, VALUE_BYTES * len(cols)
        out = run_node(scan_node, CPU, (float(n),), n,
                       kernel=lambda: {c: table.column(c) for c in cols},
                       working_set=lambda _: earlier + n * per_row)
        if filter_node is None:
            return out
        variant = decision_hook(filter_node, n, mode, thresholds)
        pred = filter_node.predicate
        return run_node(filter_node, variant, (float(n),), n, kernel=lambda: _shared(
            memo.group, ("filter", pred, *out), tuple(out.values()), lambda: _filter(out, pred)),
            working_set=lambda kept: earlier + (n + kept[pred.column].size) * per_row)

    result = None
    try:
        left = run_branch(plan.left_scan, plan.left_filter, fact, left_cols, 0)
        left_bytes = VALUE_BYTES * left[q.left_key].size * len(left_cols)
        right = run_branch(plan.right_scan, None, dim, [q.right_key], left_bytes)

        probe_key, build_key = left[q.left_key], right[q.right_key]
        n_probe, n_build = int(probe_key.size), int(build_key.size)
        variant = decision_hook(plan.join, n_probe, mode, thresholds)
        kernel_name = join_kernel(variant, n_probe * n_build, config.nl_pair_cap)

        agg_col = q.aggregate.column
        carried = {agg_col: left[agg_col]} if q.aggregate.op == "sum" else {}
        # an output whose inputs are all table columns lives as long as the
        # tables: the hash build's when the build side is, the join's when
        # both sides are.  A side is its table's own arrays (a scan, or a
        # filter that keeps every row) or gathered copies of all of them, so
        # its key tells which
        build_store = memo.table_set if build_key is dim.columns[q.right_key] else memo.group
        join_store = build_store if probe_key is fact.columns[q.left_key] else memo.group

        def run_join() -> tuple[int, dict[str, np.ndarray]]:
            if kernel_name == NESTED_LOOP:
                return _nested_loop_join(probe_key, build_key, carried, {}, BATCH_SIZE)
            build = _shared(build_store, ("build",), (build_key,),
                            lambda: _hash_build(build_key))
            return _hash_join(probe_key, build_key, carried, {}, build)

        right_bytes = VALUE_BYTES * n_build
        build_bytes = right_bytes if variant == HASH_JOIN else 0
        # the output is charged as if materialized: a row of every carried column
        row_bytes = VALUE_BYTES * len(carried)
        n_join, join_weights = run_node(
            plan.join, variant, (float(n_probe), float(n_build)), n_probe,
            kernel=lambda: _shared(
                join_store, ("join", kernel_name, tuple(carried)),
                (probe_key, build_key, *carried.values()), run_join),
            working_set=lambda out: left_bytes + right_bytes + build_bytes + out[0] * row_bytes,
            kernel_name=kernel_name)

        variant = decision_hook(plan.aggregate, n_join, mode, thresholds)

        def run_agg() -> int:
            if q.aggregate.op == "count":
                return n_join
            col, weights = carried[agg_col], join_weights[agg_col]
            return _shared(memo.group, ("sum",), (col, weights),
                           lambda: _output_sum(col, weights))

        value = run_node(plan.aggregate, variant, (float(n_join),), n_join, kernel=run_agg,
                         working_set=lambda _: n_join * row_bytes)
        result = QueryResult(value=int(value))
    except MemoryBudgetExceeded as exc:
        trace.failed, trace.failure = True, str(exc)

    trace.total_latency = sum((record.charged_cost for record in trace.records), 0.0)
    return result, trace
