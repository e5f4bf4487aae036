"""Benchmark scenarios, latency distributions, and report files.

Three scenarios stress the three ways an early-bound plan goes stale:

* input_scale_shift: a fraction of queries run against a row-count-scaled
  fact table while the planner keeps pre-drift statistics ("large
  noselect": no filters, scan-join-aggregate).
* stale_stats: a domain-shift plus skew-change drift inverts filter
  selectivities; statistics are frozen pre-drift, so tiny estimates meet
  large runtime inputs.  Its predicate constants are drawn in one call,
  query i's at position i of the schedule stream.
* break_even: per-query input sizes sweep log-spaced across the device
  crossover while the planner's device model is deliberately miscalibrated;
  only runtime observation can bind the device correctly.

Every query executes under all requested modes, back to back, with the
same per-query noise, which is drawn once and shared by its modes; result
mismatches across modes abort the run.  The check can fire only where the
modes run different join kernels, and at default sizes they never do: a
switch from nested loop needs an estimate ratio of rho_join, and such a
join is past nl_pair_cap, where the nested-loop variant runs the hash kernel.  Queries that share a plan and its
tables run back to back as a group, so that they can share kernel outputs,
and their rows are put back in query order.  Tables live per group: a fact
table and its statistics are made at the first group that reads them and
dropped after the last, so a run holds one fact variant at a time besides
the dim table (and the base fact table, in a scenario without size
variants).  A scenario with size variants plans each fact table from its own
statistics; any other plans every variant from the base fact table's and the
dim table's, as captured before any drift.  Statistics describe exactly the
columns plans read: the join keys (for ndv) and the filter columns (for
histograms).  A kernel output computed from table columns alone (a join of
unfiltered tables, a hash build of a table column) lives as long as its fact
table, so the dim table's hash build is made once per fact table.
By default orchestrated reads the true device model's break-evens and
independent gates the planner model's; only break_even's models differ, so
criterion 4 holds with equality on input_scale_shift and stale_stats.
Reports carry sorted latency samples, nearest-rank percentiles (NaN when
every query failed) and failure counts, and serialize byte-identically for
identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional

# not called here; perfbench/layers.py wraps bench.calibrate_break_evens
from .accel import calibrate_break_evens
from .clock import SimulatedClock
from .datagen import (ColumnSpec, DistributionChange, DriftSpec, Table, TableSpec,
                      apply_drift, generate_table)
from .engine import TRUE_COST_MODEL, EngineConfig, KernelMemo, execute
from .errors import (ResultMismatchError, ValidationError, csv_text, json_fields, json_text,
                     write_file)
from .planner import (AggSpec, AnnotatedPlan, CostModel, Query, plan as build_plan)
from .policy import (BASELINE, INDEPENDENT_GATES, MODES, ORCHESTRATED, Thresholds,
                     static_thresholds)
from .rng import derive_seed, stream_integers, stream_unit
from .stats import Predicate, TableStats, capture_statistics

INPUT_SCALE_SHIFT = "input_scale_shift"
STALE_STATS = "stale_stats"
BREAK_EVEN = "break_even"

BASE_VARIANT = "base"

SAMPLES_HEADER = "mode,query_id,latency,failed"

# queries per scenario; a builder checks it before it draws a schedule or
# makes a case, since both grow with the count (100,000 cases hold ~16 MiB)
MAX_QUERIES = 100_000

# every scenario joins fact.fk to dim.pk and sums fact.v
LEFT_KEY = "fk"
RIGHT_KEY = "pk"
AGGREGATE = AggSpec("sum", "v")


@dataclass(frozen=True)
class QueryCase:
    query_id: str
    fact_variant: str
    predicate: Optional[Predicate] = None


@dataclass
class Scenario:
    """One experiment.  Each size variant is planned from its own statistics;
    without size variants, from the base and dim tables', as captured."""

    name: str
    seed: int
    modes: tuple[str, ...]
    fact_spec: TableSpec
    dim_spec: TableSpec
    cases: list[QueryCase]
    drifts: dict[str, DriftSpec] = field(default_factory=dict)
    size_variants: dict[str, int] = field(default_factory=dict)
    planner_model: CostModel = field(default_factory=CostModel.default)

    def __post_init__(self):
        for i, m in enumerate(self.modes):
            if m not in MODES:
                raise ValidationError(f"unknown mode {m!r}")
            if m in self.modes[:i]:
                raise ValidationError(f"mode {m!r} is given twice")


@dataclass(frozen=True)
class SampleRow:
    query_id: str
    latency: float
    failed: bool


@dataclass
class LatencyReport:
    scenario: str
    mode: str
    seed: int
    thresholds_source: str
    rows: list[SampleRow]               # query order
    samples: list[float]                # sorted, failures excluded
    failures: int
    p50: float
    p95: float
    p99: float
    mean: float


# ── distribution arithmetic ────────────────────────────────────────────────


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: 1-based index ceil(p/100 * n) of the sorted
    samples.  The caller supplies sorted data."""
    if not samples:
        raise ValidationError("percentile of an empty sample set")
    if not (0.0 < p <= 100.0):
        raise ValidationError(f"percentile p must be in (0, 100], got {p}")
    if any(b < a for a, b in zip(samples, samples[1:])):
        raise ValidationError("samples must be sorted ascending")
    rank = math.ceil(p / 100.0 * len(samples))
    return samples[rank - 1]


def cdf_points(samples: list[float]) -> list[tuple[float, float]]:
    n = len(samples)
    return [(v, (i + 1) / n) for i, v in enumerate(samples)]


def build_report(scenario: str, mode: str, seed: int, thresholds_source: str,
                 rows: list[SampleRow]) -> LatencyReport:
    """One mode's report; with no successful query its statistics are the
    one math.nan object, so two such reports compare equal."""
    ok = sorted(r.latency for r in rows if not r.failed)
    p50 = p95 = p99 = mean = math.nan
    if ok:
        p50, p95, p99 = (percentile(ok, p) for p in (50, 95, 99))
        mean = sum(ok) / len(ok)
    return LatencyReport(
        scenario=scenario, mode=mode, seed=seed,
        thresholds_source=thresholds_source, rows=rows, samples=ok,
        failures=len(rows) - len(ok), p50=p50, p95=p95, p99=p99, mean=mean)


# ── scenario construction ──────────────────────────────────────────────────


def _check_query_count(query_count: int) -> None:
    if not 1 <= query_count <= MAX_QUERIES:
        raise ValidationError(f"query count must be in 1..{MAX_QUERIES}, got {query_count}")


def scenario_input_scale_shift(seed: int = 1, query_count: int = 200,
                               fact_rows: int = 2000, dim_rows: int = 2000,
                               drift_fraction: float = 0.2,
                               scales: tuple[float, ...] = (5.0, 10.0, 20.0),
                               modes: tuple[str, ...] = MODES) -> Scenario:
    """Selection-free scan-join-aggregate; a drifted fraction of queries see
    a scale-multiplied fact table the planner knows nothing about.  A
    drift_fraction of 0 is the zero-drift control configuration."""
    _check_query_count(query_count)
    if dim_rows < 1:
        raise ValidationError(f"dim_rows must be >= 1, got {dim_rows}")
    if not (0.0 <= drift_fraction <= 1.0):
        raise ValidationError("drift_fraction must be in [0, 1]")
    fact = TableSpec("fact", fact_rows, (
        ColumnSpec("fk", 0, dim_rows - 1), ColumnSpec("v", 0, 999)))
    dim = TableSpec("dim", dim_rows, (ColumnSpec("pk", 0, dim_rows - 1),))
    drifts = {f"x{s:g}": DriftSpec(scale_factor=s) for s in scales}
    sched = derive_seed(seed, "schedule/input_scale_shift")
    cases = []
    for i in range(query_count):
        # stream positions of query i's drift test and pick (drawn even when unused)
        test_at, pick_at = 2 * i, 2 * i + 1
        drifted = stream_unit(sched, test_at, 1)[0] < drift_fraction
        pick = int(stream_integers(sched, pick_at, 1, 0, len(scales) - 1)[0])
        variant = f"x{scales[pick]:g}" if drifted else BASE_VARIANT
        cases.append(QueryCase(query_id=f"q{i:03d}", fact_variant=variant))
    return Scenario(
        name=INPUT_SCALE_SHIFT, seed=seed, modes=modes, fact_spec=fact, dim_spec=dim,
        cases=cases, drifts=drifts)


def scenario_stale_stats(seed: int = 1, query_count: int = 200,
                         fact_rows: int = 20000, dim_rows: int = 10000,
                         modes: tuple[str, ...] = MODES) -> Scenario:
    """Every query runs post-drift with pre-drift statistics.  The drift
    shifts the filter column's domain up by 100 and replaces its uniform
    distribution with zipf(1.1), so predicates a >= c, c in [60, 140],
    whose estimates round to nothing select nearly the whole table."""
    _check_query_count(query_count)
    if dim_rows < 2:  # the key domain is dim_rows // 2 values
        raise ValidationError(f"dim_rows must be >= 2, got {dim_rows}")
    key_domain = dim_rows // 2
    fact = TableSpec("fact", fact_rows, (
        ColumnSpec("a", 0, 99), ColumnSpec("fk", 0, key_domain - 1),
        ColumnSpec("v", 0, 999)))
    dim = TableSpec("dim", dim_rows, (ColumnSpec("pk", 0, key_domain - 1),))
    drift = DriftSpec(scale_factor=1.0, domain_shift=100,
                      skew_change=DistributionChange("zipf", 1.1))
    # one draw: constant i sits at stream position i, and tolist() gives
    # Python ints, whose text names each query's group
    constants = stream_integers(derive_seed(seed, "schedule/stale_stats"), 0, query_count,
                                60, 140).tolist()
    cases = [QueryCase(query_id=f"q{i:03d}", fact_variant="drifted",
                       predicate=Predicate("a", c)) for i, c in enumerate(constants)]
    return Scenario(
        name=STALE_STATS, seed=seed, modes=modes, fact_spec=fact, dim_spec=dim,
        cases=cases, drifts={"drifted": drift})


def scenario_break_even(seed: int = 1, query_count: int = 200,
                        dim_rows: int = 1000, miscal_factor: float = 2.0,
                        modes: tuple[str, ...] = MODES) -> Scenario:
    """Primitive input sizes sweep log-spaced over [1000, 100000], across
    the device crossover.  The planner prices the accelerator from a model
    whose setup cost is off by miscal_factor, so its static device bindings
    are wrong around the true crossover; statistics are fresh per size."""
    _check_query_count(query_count)
    if miscal_factor <= 0:
        raise ValidationError("miscal_factor must be > 0")
    if dim_rows < 1:
        raise ValidationError(f"dim_rows must be >= 1, got {dim_rows}")
    fact = TableSpec("fact", 1000, (
        ColumnSpec("fk", 0, dim_rows - 1), ColumnSpec("v", 0, 999)))
    dim = TableSpec("dim", dim_rows, (ColumnSpec("pk", 0, dim_rows - 1),))
    cases = []
    size_variants = {}
    log_lo, log_hi = math.log(1000), math.log(100000)
    for i in range(query_count):
        frac = i / (query_count - 1) if query_count > 1 else 0.0
        n = max(1, round(math.exp(log_lo + (log_hi - log_lo) * frac)))
        label = f"n{n}"
        size_variants[label] = n
        cases.append(QueryCase(query_id=f"q{i:03d}", fact_variant=label))
    return Scenario(
        name=BREAK_EVEN, seed=seed, modes=modes, fact_spec=fact, dim_spec=dim,
        cases=cases, size_variants=size_variants,
        planner_model=CostModel.default().scaled_accel_setup(1.0 / miscal_factor))


# name -> builder, in the order the CLI lists them
SCENARIOS = {INPUT_SCALE_SHIFT: scenario_input_scale_shift,
             STALE_STATS: scenario_stale_stats, BREAK_EVEN: scenario_break_even}


# ── scenario execution ─────────────────────────────────────────────────────


def _fact_table(scenario: Scenario, label: str, base: Optional[Table]) -> Table:
    """The fact table of one variant label; a drift variant is drawn from the
    base table.  Every seed depends on the label alone, so the tables can be
    made in any order."""
    seed = scenario.seed
    if label == BASE_VARIANT:
        return generate_table(scenario.fact_spec, derive_seed(seed, "table/fact"))
    if label in scenario.drifts:
        return apply_drift(base, scenario.drifts[label], derive_seed(seed, f"drift/{label}"))
    spec = replace(scenario.fact_spec, row_count=scenario.size_variants[label])
    return generate_table(spec, derive_seed(seed, f"table/fact/{label}"))


# nothing calls it; perfbench/layers.py wraps bench._roundtrip
def _roundtrip(stats: TableStats) -> TableStats:
    return TableStats(**json_fields(TableStats, json.loads(json_text(stats)), "statistics"))


def scenario_thresholds(scenario: Scenario,
                        base: Optional[Thresholds] = None) -> dict[str, Thresholds]:
    """Per-mode thresholds: orchestrated reads the break-evens of the true
    device model, which a noise-free calibration measures exactly; independent
    gates read the planner's (possibly miscalibrated) model's."""
    base = base or Thresholds()
    per_mode = {BASELINE: base,
                INDEPENDENT_GATES: static_thresholds(scenario.planner_model, base),
                ORCHESTRATED: replace(static_thresholds(TRUE_COST_MODEL, base),
                                      source="calibrated")}
    return {mode: per_mode[mode] for mode in scenario.modes}


@dataclass(frozen=True)
class PreparedQuery:
    """One scenario query resolved to its plan, tables, and noise seed."""

    case: QueryCase
    plan: AnnotatedPlan
    tables: dict[str, Table]
    seed: int


@dataclass(frozen=True)
class QueryGroup:
    """The queries that share one plan and one set of tables, each with its
    position in query order.  ``store`` is the table set's kernel store
    (``KernelMemo.table_set``), handed to every group over the same tables."""

    queries: list[tuple[int, PreparedQuery]]
    store: dict


def scenario_groups(scenario: Scenario) -> Iterator[QueryGroup]:
    """Prepare the scenario's queries group by group: per fact table
    variant, then per predicate, each in order of first appearance.  A group
    is the cases that share a variant and a predicate, and its plan is made
    when the group starts.

    A variant's table, with its own statistics under size variants, is
    made before its first group and dropped after its last, when its table
    set's store is emptied too.  The dim table lives for the whole run, and
    so does the base fact table of a scenario without size variants, whose
    plans read the base and dim statistics as captured.  Statistics are
    captured when their table is made, of the columns plans read only; a
    capture on first read would keep the tables alive, since the plans
    outlive them.
    """
    seed = scenario.seed
    fresh = bool(scenario.size_variants)
    # the columns plans read: join keys for ndv, filter columns for histograms
    fact_columns = {LEFT_KEY,
                    *(case.predicate.column for case in scenario.cases if case.predicate)}
    dim = generate_table(scenario.dim_spec, derive_seed(seed, "table/dim"))
    dim_stats = capture_statistics(dim, columns=(RIGHT_KEY,))
    base = base_stats = None
    if not fresh:
        base = _fact_table(scenario, BASE_VARIANT, None)
        base_stats = capture_statistics(base, columns=fact_columns)

    # fact variant -> predicate text -> query positions
    groups: dict[str, dict[str, list[int]]] = {}
    for i, case in enumerate(scenario.cases):
        groups.setdefault(case.fact_variant, {}).setdefault(str(case.predicate), []).append(i)

    for label, by_predicate in groups.items():
        table = base if label == BASE_VARIANT else _fact_table(scenario, label, base)
        fact_stats = capture_statistics(table, columns=fact_columns) if fresh else base_stats
        store: dict = {}
        for members in by_predicate.values():
            query = Query(
                left_table=scenario.fact_spec.name, right_table=scenario.dim_spec.name,
                left_key=LEFT_KEY, right_key=RIGHT_KEY, aggregate=AGGREGATE,
                left_filter=scenario.cases[members[0]].predicate)
            plan = build_plan(query, {fact_stats.table: fact_stats, dim_stats.table: dim_stats},
                              scenario.planner_model)
            yield QueryGroup(queries=[(i, PreparedQuery(
                case=scenario.cases[i], plan=plan,
                tables={scenario.fact_spec.name: table, scenario.dim_spec.name: dim},
                seed=derive_seed(seed, f"query/{i}"))) for i in members], store=store)
        # empty the store now, whoever still holds it, so that its kernel
        # outputs are freed before the next table is made
        store.clear()


def scenario_queries(scenario: Scenario) -> list[PreparedQuery]:
    """Every case's prepared query, in query order, with all of its tables
    alive at once."""
    prepared: list[Optional[PreparedQuery]] = [None] * len(scenario.cases)
    for group in scenario_groups(scenario):
        for i, query in group.queries:
            prepared[i] = query
    return prepared


def run_scenario(scenario: Scenario, clock: SimulatedClock,
                 engine_config: Optional[EngineConfig] = None,
                 thresholds: Optional[dict[str, Thresholds]] = None,
                 ) -> dict[str, LatencyReport]:
    """Run every query under every mode and report per-mode distributions.

    Queries run group by group as scenario_groups prepares them, so a fact
    table lives only from its first group to its last; rows still come out
    in query order.  The executions share kernel outputs through a
    KernelMemo: the group's store, dropped before the next group starts,
    and the table set's, which lives as long as the set's fact table;
    engine.execute picks the store from each output's inputs.
    Result values are cross-checked per query over all modes that
    completed; any mismatch is a hard failure of the whole run.
    """
    per_mode_thresholds = thresholds or scenario_thresholds(scenario)
    config = engine_config or EngineConfig()

    rows: dict[str, list[SampleRow]] = {mode: [None] * len(scenario.cases)
                                        for mode in scenario.modes}
    for group in scenario_groups(scenario):
        memo = KernelMemo(table_set=group.store, group={})
        for i, prepared in group.queries:
            values: dict[str, int] = {}
            for mode in scenario.modes:
                result, trace = execute(prepared.plan, prepared.tables, mode,
                                        per_mode_thresholds[mode], clock, prepared.seed,
                                        config, memo=memo)
                rows[mode][i] = SampleRow(query_id=prepared.case.query_id,
                                          latency=trace.total_latency,
                                          failed=trace.failed)
                if result is not None:
                    values[mode] = result.value
            if len(set(values.values())) > 1:
                raise ResultMismatchError(
                    f"{scenario.name}/{prepared.case.query_id}: "
                    f"results diverge across modes: {values}")
        # free the group's kernel outputs before the next table is made
        del memo

    return {mode: build_report(scenario.name, mode, scenario.seed,
                               per_mode_thresholds[mode].source, rows[mode])
            for mode in scenario.modes}


# ── report files ───────────────────────────────────────────────────────────


def report_emit(report: LatencyReport, out_dir: Path) -> list[Path]:
    """Write samples.csv, cdf.csv (of the successful queries) and summary.txt
    under <out>/<scenario>/<mode>/; emission is deterministic per report."""
    target = out_dir / report.scenario / report.mode
    paths = [target / "samples.csv", target / "cdf.csv", target / "summary.txt"]
    write_file(paths[0], csv_text(SAMPLES_HEADER, (
        (report.mode, row.query_id, row.latency, int(row.failed)) for row in report.rows)))
    write_file(paths[1], csv_text("latency,cumulative_fraction", cdf_points(report.samples)))
    write_file(paths[2], summarize(report))
    return paths


def summarize(report: LatencyReport) -> str:
    lines = [
        f"scenario    {report.scenario}",
        f"mode        {report.mode}",
        f"seed        {report.seed}",
        f"thresholds  {report.thresholds_source}",
        f"queries     {len(report.rows)}",
        f"failures    {report.failures}",
        f"mean        {report.mean:.3f}",
        f"p50         {report.p50:.3f}",
        f"p95         {report.p95:.3f}",
        f"p99         {report.p99:.3f}",
    ]
    return "\n".join(lines) + "\n"


def compare_reports(reports: dict[str, LatencyReport]) -> str:
    """Side-by-side percentile table with ratios against the baseline mode."""
    header = f"{'mode':<20}{'p50':>14}{'p95':>14}{'p99':>14}{'mean':>14}{'fail':>6}"
    lines = [header]
    base = reports.get(BASELINE)
    for mode in sorted(reports):
        r = reports[mode]
        lines.append(f"{mode:<20}{r.p50:>14.2f}{r.p95:>14.2f}{r.p99:>14.2f}"
                     f"{r.mean:>14.2f}{r.failures:>6d}")
    if base is not None:
        lines.append("ratios vs baseline (baseline / mode):")
        for mode in sorted(reports):
            r = reports[mode]
            lines.append(
                f"{mode:<20}p50 {base.p50 / r.p50:>8.2f}  "
                f"p95 {base.p95 / r.p95:>8.2f}  p99 {base.p99 / r.p99:>8.2f}")
    return "\n".join(lines) + "\n"
