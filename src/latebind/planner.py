"""Cost-based planning with late-bind annotations.

The plan shape is fixed: a scan of the fact (left) table with an optional
filter, a scan of the dim (right) table, their join, and a count or a sum
of a fact column; planning only selects strategy variants.  A node's kind
fixes whether it is a late-bind candidate and which variants it has
(VARIANTS): the join and the offloadable primitives (filter, aggregate)
are, with the modeled-cost argmin bound as the default choice.  Ties break
lexicographically on variant name so plans are deterministic.

CostModel has one coefficient per cost term: a per-row CPU cost per kind,
an accelerator setup and per-row cost per offloadable kind, and the join's
costs per nested-loop pair, per hash build and probe row, and fixed.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Optional

from .errors import ValidationError
from .stats import Predicate, TableStats, estimate_selectivity

SCAN = "scan"
FILTER = "filter"
JOIN = "join"
AGGREGATE = "aggregate"

CPU = "cpu"
ACCELERATOR = "accelerator"
HASH_JOIN = "hash_join"
NESTED_LOOP = "nested_loop"

OFFLOADABLE_KINDS = (FILTER, AGGREGATE)
# the variants of each late-bind kind; a scan has the one way to run
VARIANTS = {FILTER: (ACCELERATOR, CPU), JOIN: (HASH_JOIN, NESTED_LOOP),
            AGGREGATE: (ACCELERATOR, CPU)}


@dataclass(frozen=True)
class AggSpec:
    op: str                      # "count" | "sum"
    column: Optional[str] = None  # required for sum

    def __post_init__(self):
        if self.op not in ("count", "sum"):
            raise ValidationError(f"unknown aggregate {self.op!r}")
        if self.op == "sum" and not self.column:
            raise ValidationError("sum aggregate requires a column")


@dataclass(frozen=True)
class Query:
    left_table: str
    right_table: str
    left_key: str
    right_key: str
    aggregate: AggSpec
    left_filter: Optional[Predicate] = None
    right_filter: Optional[Predicate] = None   # read by perfbench/oracle.py; always None

    def __post_init__(self):
        if self.right_filter is not None:
            raise ValidationError("only the fact (left) side of a query takes a filter")


@dataclass(frozen=True)
class AcceleratorCost:
    setup: float
    per_row: float  # transfer and compute of one row


@dataclass(frozen=True)
class JoinCost:
    nl_a: float       # per (outer x inner) pair
    hash_build: float  # per build row
    hash_probe: float  # per probe row
    hash_b: float      # fixed


@dataclass(frozen=True)
class CostModel:
    cpu: dict[str, float]                      # per row: scan, filter, aggregate
    accel: dict[str, AcceleratorCost]          # filter, aggregate
    join: JoinCost

    def __post_init__(self):
        coefficients = [*self.cpu.values(), *astuple(self.join),
                        *(c for acc in self.accel.values() for c in astuple(acc))]
        if not all(0 <= c < math.inf for c in coefficients):
            raise ValidationError("cost coefficients must be >= 0 and finite")

    @staticmethod
    def default() -> "CostModel":
        return CostModel(
            cpu={SCAN: 0.5, FILTER: 1.0, AGGREGATE: 1.0},
            accel={
                FILTER: AcceleratorCost(setup=8000.0, per_row=0.2),
                AGGREGATE: AcceleratorCost(setup=8000.0, per_row=0.2),
            },
            join=JoinCost(nl_a=0.002, hash_build=1.0, hash_probe=1.0, hash_b=6000.0),
        )

    def scaled_accel_setup(self, factor: float) -> "CostModel":
        """Copy with every accelerator setup cost multiplied by factor
        (the deliberate-miscalibration knob for the break-even scenario)."""
        accel = {kind: AcceleratorCost(acc.setup * factor, acc.per_row)
                 for kind, acc in self.accel.items()}
        return CostModel(cpu=dict(self.cpu), accel=accel, join=self.join)


def cost(kind: str, variant: str, cardinalities: tuple[float, ...], model: CostModel) -> float:
    """Modeled cost of one operator at the given input cardinalities.

    Unary operators take (n,); joins take (n_probe, n_build) where the probe
    side is the nested-loop outer and the build side its inner.
    """
    if any(n < 0 for n in cardinalities):
        raise ValidationError(f"negative cardinality in {cardinalities}")
    if kind == JOIN:
        n_probe, n_build = cardinalities
        if variant == NESTED_LOOP:
            return model.join.nl_a * n_probe * n_build
        if variant == HASH_JOIN:
            return model.join.hash_build * n_build + model.join.hash_probe * n_probe + model.join.hash_b
        raise ValidationError(f"unknown join variant {variant!r}")
    (n,) = cardinalities
    if variant == CPU:
        return model.cpu[kind] * n
    if variant == ACCELERATOR:
        if kind not in model.accel:
            raise ValidationError(f"{kind} is not offloadable")
        c = model.accel[kind]
        return c.setup + c.per_row * n
    raise ValidationError(f"unknown variant {variant!r} for {kind}")


def model_break_even(model: CostModel, kind: str) -> Optional[float]:
    """Analytic device crossover N* of the model's own coefficients for one
    offloadable kind; None when the accelerator never amortizes."""
    cpu = model.cpu[kind]
    acc = model.accel[kind]
    if cpu <= acc.per_row:
        return None
    n_star = acc.setup / (cpu - acc.per_row)
    return n_star if n_star > 0 else None


@dataclass
class PlanNode:
    node_id: str
    kind: str
    chosen: str
    est_input: float               # probe-side input for joins
    est_build: Optional[float] = None     # joins only
    predicate: Optional[Predicate] = None  # filters only


@dataclass
class AnnotatedPlan:
    query: Query
    cost_model: CostModel
    left_scan: PlanNode
    right_scan: PlanNode
    join: PlanNode
    aggregate: PlanNode
    left_filter: Optional[PlanNode] = None
    stats: dict[str, TableStats] = field(default_factory=dict)


def _argmin_variant(kind: str, cards: tuple[float, ...], model: CostModel) -> str:
    best = None
    best_cost = None
    for v in sorted(VARIANTS[kind]):  # lexicographic tie-break
        c = cost(kind, v, cards, model)
        if best_cost is None or c < best_cost:
            best, best_cost = v, c
    return best


def plan(query: Query, stats: dict[str, TableStats], model: CostModel) -> AnnotatedPlan:
    """Produce the annotated plan for a query from captured statistics."""
    for name in (query.left_table, query.right_table):
        if name not in stats:
            raise ValidationError(f"no statistics for table {name!r}")
    left_stats = stats[query.left_table]
    right_stats = stats[query.right_table]

    left_est, right_est = float(left_stats.row_count), float(right_stats.row_count)
    left_scan = PlanNode(node_id="scan_left", kind=SCAN, chosen=CPU, est_input=left_est)
    right_scan = PlanNode(node_id="scan_right", kind=SCAN, chosen=CPU, est_input=right_est)
    left_filter, flt = None, query.left_filter
    if flt is not None:
        left_filter = PlanNode(node_id="filter_left", kind=FILTER,
                               chosen=_argmin_variant(FILTER, (left_est,), model),
                               est_input=left_est, predicate=flt)
        left_est *= estimate_selectivity(left_stats.column(flt.column), flt)

    ndv_left = left_stats.column(query.left_key).ndv
    ndv_right = right_stats.column(query.right_key).ndv
    join_out = left_est * right_est / max(ndv_left, ndv_right, 1)
    join_node = PlanNode(node_id="join", kind=JOIN,
                         chosen=_argmin_variant(JOIN, (left_est, right_est), model),
                         est_input=left_est, est_build=right_est)
    agg_node = PlanNode(node_id="aggregate", kind=AGGREGATE,
                        chosen=_argmin_variant(AGGREGATE, (join_out,), model),
                        est_input=join_out)

    return AnnotatedPlan(query=query, cost_model=model,
                         left_scan=left_scan, right_scan=right_scan,
                         join=join_node, aggregate=agg_node,
                         left_filter=left_filter,
                         stats={left_stats.table: left_stats, right_stats.table: right_stats})


def predicted_cost(plan_: AnnotatedPlan, node: PlanNode) -> float:
    """Planner's modeled cost of one node at its estimated cardinalities."""
    if node.kind == JOIN:
        cards = (node.est_input, node.est_build)
    else:
        cards = (node.est_input,)
    return cost(node.kind, node.chosen, cards, plan_.cost_model)
