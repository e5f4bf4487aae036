"""Cost-based planning with late-bind annotations.

The plan shape is fixed (scan -> optional filter per side -> join ->
aggregate); planning only selects strategy variants.  A node's kind fixes
whether it is a late-bind candidate and which variants it has (VARIANTS):
the join and the offloadable primitives (filter, aggregate) are, with the
modeled-cost argmin bound as the default choice.  Ties break
lexicographically on variant name so plans are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    right_filter: Optional[Predicate] = None


@dataclass(frozen=True)
class LinearCost:
    a: float  # per input row
    b: float  # fixed

    def __post_init__(self):
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf):
            raise ValidationError("cost coefficients must be >= 0 and finite")


@dataclass(frozen=True)
class AcceleratorCost:
    setup: float
    transfer: float  # per item
    compute: float   # per item

    def __post_init__(self):
        if not all(0 <= c < math.inf for c in (self.setup, self.transfer, self.compute)):
            raise ValidationError("cost coefficients must be >= 0 and finite")

    @property
    def per_item(self) -> float:
        return self.transfer + self.compute


@dataclass(frozen=True)
class JoinCost:
    nl_a: float       # per (outer x inner) pair
    nl_b: float
    hash_build: float  # per build row
    hash_probe: float  # per probe row
    hash_b: float

    def __post_init__(self):
        if min(self.nl_a, self.nl_b, self.hash_build, self.hash_probe, self.hash_b) < 0:
            raise ValidationError("cost coefficients must be >= 0")


@dataclass(frozen=True)
class CostModel:
    cpu: dict[str, LinearCost]                 # scan, filter, aggregate
    accel: dict[str, AcceleratorCost]          # filter, aggregate
    join: JoinCost

    @staticmethod
    def default() -> "CostModel":
        return CostModel(
            cpu={
                SCAN: LinearCost(0.5, 0.0),
                FILTER: LinearCost(1.0, 0.0),
                AGGREGATE: LinearCost(1.0, 0.0),
            },
            accel={
                FILTER: AcceleratorCost(setup=8000.0, transfer=0.1, compute=0.1),
                AGGREGATE: AcceleratorCost(setup=8000.0, transfer=0.1, compute=0.1),
            },
            join=JoinCost(nl_a=0.002, nl_b=0.0, hash_build=1.0, hash_probe=1.0, hash_b=6000.0),
        )

    def scaled_accel_setup(self, factor: float) -> "CostModel":
        """Copy with every accelerator setup cost multiplied by factor
        (the deliberate-miscalibration knob for the break-even scenario)."""
        accel = {k: AcceleratorCost(v.setup * factor, v.transfer, v.compute)
                 for k, v in self.accel.items()}
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
            return model.join.nl_a * n_probe * n_build + model.join.nl_b
        if variant == HASH_JOIN:
            return model.join.hash_build * n_build + model.join.hash_probe * n_probe + model.join.hash_b
        raise ValidationError(f"unknown join variant {variant!r}")
    (n,) = cardinalities
    if variant == CPU:
        c = model.cpu[kind]
        return c.a * n + c.b
    if variant == ACCELERATOR:
        if kind not in model.accel:
            raise ValidationError(f"{kind} is not offloadable")
        c = model.accel[kind]
        return c.setup + c.per_item * n
    raise ValidationError(f"unknown variant {variant!r} for {kind}")


def model_break_even(model: CostModel, kind: str) -> Optional[float]:
    """Analytic device crossover N* of the model's own coefficients for one
    offloadable kind; None when the accelerator never amortizes."""
    cpu = model.cpu[kind]
    acc = model.accel[kind]
    if cpu.a <= acc.per_item:
        return None
    n_star = (acc.setup - cpu.b) / (cpu.a - acc.per_item)
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
    right_filter: Optional[PlanNode] = None
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

    def branch(side: str, tstats: TableStats, flt: Optional[Predicate],
               ) -> tuple[PlanNode, Optional[PlanNode], float]:
        scan_est = float(tstats.row_count)
        scan = PlanNode(node_id=f"scan_{side}", kind=SCAN, chosen=CPU, est_input=scan_est)
        if flt is None:
            return scan, None, scan_est
        out_est = scan_est * estimate_selectivity(tstats.column(flt.column), flt)
        fnode = PlanNode(node_id=f"filter_{side}", kind=FILTER,
                         chosen=_argmin_variant(FILTER, (scan_est,), model),
                         est_input=scan_est, predicate=flt)
        return scan, fnode, out_est

    left_scan, left_filter, left_est = branch("left", left_stats, query.left_filter)
    right_scan, right_filter, right_est = branch("right", right_stats, query.right_filter)

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
                         left_filter=left_filter, right_filter=right_filter,
                         stats={left_stats.table: left_stats, right_stats.table: right_stats})


def predicted_cost(plan_: AnnotatedPlan, node: PlanNode) -> float:
    """Planner's modeled cost of one node at its estimated cardinalities."""
    if node.kind == JOIN:
        cards = (node.est_input, node.est_build)
    else:
        cards = (node.est_input,)
    return cost(node.kind, node.chosen, cards, plan_.cost_model)
