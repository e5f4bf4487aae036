"""Benchmark scenarios, latency distributions, and report files.

Three scenarios stress the three ways an early-bound plan goes stale:

* input_scale_shift: a fraction of queries run against a row-count-scaled
  fact table while the planner keeps generation-0 statistics ("large
  noselect": no filters, scan-join-aggregate).
* stale_stats: a domain-shift plus skew-change drift inverts filter
  selectivities; statistics are frozen pre-drift (and round-tripped through
  their file form), so tiny estimates meet large runtime inputs.
* break_even: per-query input sizes sweep log-spaced across the device
  crossover while the planner's device model is deliberately miscalibrated;
  only runtime observation can bind the device correctly.

Every query executes under all requested modes with the same per-query
noise stream; result mismatches across modes abort the run.  Queries that
share a plan and its tables run back to back so that they can share kernel
outputs, and their rows are put back in query order.  Outputs computed
purely from table columns (joins of unfiltered tables, hash builds) live
longer: per table set, from its first group to its last.  Reports carry
sorted latency samples, nearest-rank percentiles, CDF points, and failure
counts, and serialize byte-identically for identical inputs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .accel import calibrate_break_evens
from .clock import SIMULATED, SimulatedClock, WallClock
from .datagen import (ColumnSpec, DistributionChange, DriftSpec, Table, TableSpec,
                      apply_drift, generate_table)
from .engine import EngineConfig, KernelMemo, execute
from .errors import ResultMismatchError, ValidationError
from .planner import (AggSpec, AnnotatedPlan, CostModel, Query, plan as build_plan)
from .policy import (BASELINE, INDEPENDENT_GATES, MODES, ORCHESTRATED, Thresholds,
                     calibrate, static_thresholds)
from .rng import Stream, derive_seed
from .stats import Predicate, TableStats, capture_statistics, dump_stats, load_stats

INPUT_SCALE_SHIFT = "input_scale_shift"
STALE_STATS = "stale_stats"
BREAK_EVEN = "break_even"
SCENARIO_NAMES = (INPUT_SCALE_SHIFT, STALE_STATS, BREAK_EVEN)

BASE_VARIANT = "base"


@dataclass(frozen=True)
class QueryCase:
    query_id: str
    fact_variant: str
    predicate: Optional[Predicate] = None


@dataclass
class Scenario:
    name: str
    seed: int
    query_count: int
    modes: tuple[str, ...]
    fact_spec: TableSpec
    dim_spec: TableSpec
    left_key: str
    right_key: str
    aggregate: AggSpec
    cases: list[QueryCase]
    drifts: dict[str, DriftSpec] = field(default_factory=dict)
    size_variants: dict[str, int] = field(default_factory=dict)
    planner_model: CostModel = field(default_factory=CostModel.default)
    true_model: CostModel = field(default_factory=CostModel.default)
    stats_roundtrip: bool = False
    fresh_stats_per_variant: bool = False

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValidationError(f"unknown scenario {self.name!r}")
        if self.query_count < 1:
            raise ValidationError("query_count must be >= 1")
        for m in self.modes:
            if m not in MODES:
                raise ValidationError(f"unknown mode {m!r}")


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
    clock_mode: str
    thresholds_source: str
    rows: list[SampleRow]               # query order
    samples: list[float]                # sorted, failures excluded
    failures: int
    p50: float
    p95: float
    p99: float
    mean: float
    cdf: list[tuple[float, float]]


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


def build_report(scenario: str, mode: str, seed: int, clock_mode: str,
                 thresholds_source: str, rows: list[SampleRow]) -> LatencyReport:
    ok = sorted(r.latency for r in rows if not r.failed)
    failures = sum(1 for r in rows if r.failed)
    if not ok:
        raise ValidationError(f"{scenario}/{mode}: every query failed; nothing to report")
    return LatencyReport(
        scenario=scenario, mode=mode, seed=seed, clock_mode=clock_mode,
        thresholds_source=thresholds_source, rows=rows, samples=ok,
        failures=failures,
        p50=percentile(ok, 50), p95=percentile(ok, 95), p99=percentile(ok, 99),
        mean=sum(ok) / len(ok), cdf=cdf_points(ok))


# ── scenario construction ──────────────────────────────────────────────────


def scenario_input_scale_shift(seed: int = 1, query_count: int = 200,
                               fact_rows: int = 2000, dim_rows: int = 2000,
                               drift_fraction: float = 0.2,
                               scales: tuple[float, ...] = (5.0, 10.0, 20.0),
                               modes: tuple[str, ...] = MODES,
                               model: Optional[CostModel] = None) -> Scenario:
    """Selection-free scan-join-aggregate; a drifted fraction of queries see
    a scale-multiplied fact table the planner knows nothing about.  A
    drift_fraction of 0 is the zero-drift control configuration."""
    if not (0.0 <= drift_fraction <= 1.0):
        raise ValidationError("drift_fraction must be in [0, 1]")
    model = model or CostModel.default()
    fact = TableSpec("fact", fact_rows, (
        ColumnSpec("fk", 0, dim_rows - 1), ColumnSpec("v", 0, 999)))
    dim = TableSpec("dim", dim_rows, (ColumnSpec("pk", 0, dim_rows - 1),))
    drifts = {f"x{s:g}": DriftSpec(scale_factor=s) for s in scales}
    sched = Stream(derive_seed(seed, "schedule/input_scale_shift"))
    cases = []
    for i in range(query_count):
        drifted = sched.unit(1)[0] < drift_fraction
        pick = int(sched.integers(0, len(scales) - 1, 1)[0])  # drawn even when unused
        variant = f"x{scales[pick]:g}" if drifted else BASE_VARIANT
        cases.append(QueryCase(query_id=f"q{i:03d}", fact_variant=variant))
    return Scenario(
        name=INPUT_SCALE_SHIFT, seed=seed, query_count=query_count, modes=modes,
        fact_spec=fact, dim_spec=dim, left_key="fk", right_key="pk",
        aggregate=AggSpec("sum", "v"), cases=cases, drifts=drifts,
        planner_model=model, true_model=model)


def scenario_stale_stats(seed: int = 1, query_count: int = 200,
                         fact_rows: int = 20000, dim_rows: int = 10000,
                         domain_shift: int = 100, drift_skew: float = 1.1,
                         constant_lo: int = 60, constant_hi: int = 140,
                         modes: tuple[str, ...] = MODES,
                         model: Optional[CostModel] = None) -> Scenario:
    """Every query runs post-drift with pre-drift statistics.  The drift
    shifts the value domain and replaces the distribution with a skewed one,
    so range predicates whose estimates round to nothing select nearly the
    whole table."""
    model = model or CostModel.default()
    key_domain = dim_rows // 2
    fact = TableSpec("fact", fact_rows, (
        ColumnSpec("a", 0, 99), ColumnSpec("fk", 0, key_domain - 1),
        ColumnSpec("v", 0, 999)))
    dim = TableSpec("dim", dim_rows, (ColumnSpec("pk", 0, key_domain - 1),))
    drift = DriftSpec(scale_factor=1.0, domain_shift=domain_shift,
                      skew_change=DistributionChange("zipf", drift_skew))
    sched = Stream(derive_seed(seed, "schedule/stale_stats"))
    cases = []
    for i in range(query_count):
        c = int(sched.integers(constant_lo, constant_hi, 1)[0])
        cases.append(QueryCase(query_id=f"q{i:03d}", fact_variant="drifted",
                               predicate=Predicate("a", ">=", c)))
    return Scenario(
        name=STALE_STATS, seed=seed, query_count=query_count, modes=modes,
        fact_spec=fact, dim_spec=dim, left_key="fk", right_key="pk",
        aggregate=AggSpec("sum", "v"), cases=cases,
        drifts={"drifted": drift}, planner_model=model, true_model=model,
        stats_roundtrip=True)


def scenario_break_even(seed: int = 1, query_count: int = 200,
                        dim_rows: int = 1000,
                        size_lo: int = 1000, size_hi: int = 100000,
                        miscal_factor: float = 2.0,
                        modes: tuple[str, ...] = MODES,
                        model: Optional[CostModel] = None) -> Scenario:
    """Primitive input sizes sweep log-spaced across the device crossover.
    The planner prices the accelerator from a model whose setup cost is off
    by miscal_factor, so its static device bindings are wrong in the band
    around the true crossover; statistics themselves are fresh per size."""
    if miscal_factor <= 0:
        raise ValidationError("miscal_factor must be > 0")
    true_model = model or CostModel.default()
    planner_model = true_model.scaled_accel_setup(1.0 / miscal_factor)
    fact = TableSpec("fact", size_lo, (
        ColumnSpec("fk", 0, dim_rows - 1), ColumnSpec("v", 0, 999)))
    dim = TableSpec("dim", dim_rows, (ColumnSpec("pk", 0, dim_rows - 1),))
    cases = []
    size_variants = {}
    log_lo, log_hi = math.log(size_lo), math.log(size_hi)
    for i in range(query_count):
        frac = i / (query_count - 1) if query_count > 1 else 0.0
        n = max(1, round(math.exp(log_lo + (log_hi - log_lo) * frac)))
        label = f"n{n}"
        size_variants[label] = n
        cases.append(QueryCase(query_id=f"q{i:03d}", fact_variant=label))
    return Scenario(
        name=BREAK_EVEN, seed=seed, query_count=query_count, modes=modes,
        fact_spec=fact, dim_spec=dim, left_key="fk", right_key="pk",
        aggregate=AggSpec("sum", "v"), cases=cases, size_variants=size_variants,
        planner_model=planner_model, true_model=true_model,
        fresh_stats_per_variant=True)


# ── scenario execution ─────────────────────────────────────────────────────


def _materialize(scenario: Scenario) -> tuple[dict[str, Table], Table]:
    """fact table per variant label, plus the dim table."""
    seed = scenario.seed
    dim = generate_table(scenario.dim_spec, derive_seed(seed, "table/dim"))
    variants: dict[str, Table] = {
        BASE_VARIANT: generate_table(scenario.fact_spec, derive_seed(seed, "table/fact"))}
    for label, drift in scenario.drifts.items():
        variants[label] = apply_drift(variants[BASE_VARIANT], drift,
                                      derive_seed(seed, f"drift/{label}"))
    for label, rows in scenario.size_variants.items():
        spec = replace(scenario.fact_spec, row_count=rows)
        variants[label] = generate_table(spec, derive_seed(seed, f"table/fact/{label}"))
    return variants, dim


def _roundtrip(stats: TableStats) -> TableStats:
    buf = io.StringIO()
    dump_stats(stats, buf)
    buf.seek(0)
    return load_stats(buf)


def scenario_thresholds(scenario: Scenario,
                        base: Optional[Thresholds] = None) -> dict[str, Thresholds]:
    """Per-mode thresholds: orchestrated calibrates against noise-free
    microbenchmarks of the true device behavior; independent gates derive
    theirs statically from the planner's (possibly miscalibrated) model."""
    base = base or Thresholds()
    per_mode: dict[str, Thresholds] = {}
    for mode in scenario.modes:
        if mode == BASELINE:
            per_mode[mode] = base
        elif mode == INDEPENDENT_GATES:
            per_mode[mode] = static_thresholds(scenario.planner_model, base)
        elif mode == ORCHESTRATED:
            break_evens, _, _ = calibrate_break_evens(
                scenario.true_model, SimulatedClock(sigma=0.0),
                derive_seed(scenario.seed, "calibration"))
            per_mode[mode] = calibrate(break_evens, base)
    return per_mode


@dataclass(frozen=True)
class PreparedQuery:
    """One scenario query resolved to its plan, tables, and noise seed."""

    case: QueryCase
    plan: AnnotatedPlan
    tables: dict[str, Table]
    seed: int


def scenario_queries(scenario: Scenario) -> list[PreparedQuery]:
    """Materialize tables and plans for every case of the scenario."""
    variants, dim = _materialize(scenario)
    base_fact_stats = capture_statistics(variants[BASE_VARIANT])
    dim_stats = capture_statistics(dim)
    if scenario.stats_roundtrip:
        base_fact_stats = _roundtrip(base_fact_stats)
        dim_stats = _roundtrip(dim_stats)
    fresh_stats: dict[str, TableStats] = {}
    if scenario.fresh_stats_per_variant:
        for label, table in variants.items():
            fresh_stats[label] = capture_statistics(table)

    plans: dict[tuple[str, str], AnnotatedPlan] = {}

    def plan_for(case: QueryCase) -> AnnotatedPlan:
        key = (case.fact_variant if scenario.fresh_stats_per_variant else BASE_VARIANT,
               str(case.predicate))
        if key not in plans:
            fact_stats = (fresh_stats[case.fact_variant]
                          if scenario.fresh_stats_per_variant else base_fact_stats)
            query = Query(
                left_table=scenario.fact_spec.name, right_table=scenario.dim_spec.name,
                left_key=scenario.left_key, right_key=scenario.right_key,
                aggregate=scenario.aggregate, left_filter=case.predicate)
            plans[key] = build_plan(query, {fact_stats.table: fact_stats,
                                            dim_stats.table: dim_stats},
                                    scenario.planner_model)
        return plans[key]

    prepared = []
    for i, case in enumerate(scenario.cases):
        prepared.append(PreparedQuery(
            case=case, plan=plan_for(case),
            tables={scenario.fact_spec.name: variants[case.fact_variant],
                    scenario.dim_spec.name: dim},
            seed=derive_seed(scenario.seed, f"query/{i}")))
    return prepared


def run_scenario(scenario: Scenario, clock: SimulatedClock | WallClock,
                 engine_config: Optional[EngineConfig] = None,
                 thresholds: Optional[dict[str, Thresholds]] = None,
                 base_thresholds: Optional[Thresholds] = None,
                 ) -> dict[str, LatencyReport]:
    """Run every query under every mode and report per-mode distributions.

    Queries that share a plan and its tables run back to back as a group;
    rows still come out in query order.  On the simulated clock kernel
    outputs are shared with two lifetimes: each group has a memo, dropped
    before the next group starts, and each table set (the table objects of
    its groups) has a store for table-column joins and hash builds, made at
    its first group and dropped after its last.  Result values are
    cross-checked per query over all modes that completed; any mismatch is a
    hard failure of the whole run.
    """
    per_mode_thresholds = thresholds or scenario_thresholds(scenario, base_thresholds)
    engine_config = engine_config or EngineConfig(true_cost_model=scenario.true_model)
    if engine_config.true_cost_model is None:
        engine_config = replace(engine_config, true_cost_model=scenario.true_model)

    queries = scenario_queries(scenario)
    # scenario_queries hands one plan object and one table object to every
    # case that shares them, so identity is the memo's precondition
    groups: dict[tuple[int, ...], list[tuple[int, PreparedQuery]]] = {}
    for i, prepared in enumerate(queries):
        key = (id(prepared.plan), *map(id, prepared.tables.values()))
        groups.setdefault(key, []).append((i, prepared))
    last_group = {key[1:]: g for g, key in enumerate(groups)}   # per table set

    rows: dict[str, list[SampleRow]] = {mode: [None] * len(queries)
                                        for mode in scenario.modes}
    stores: dict[tuple[int, ...], dict] = {}
    for g, (key, members) in enumerate(groups.items()):
        table_set = key[1:]
        store = stores.setdefault(table_set, {})
        # the wall clock times every run, so it shares nothing
        memo = KernelMemo(table_set=store) if clock.mode == SIMULATED else None
        for i, prepared in members:
            values: dict[str, int] = {}
            for mode in scenario.modes:
                result, trace = execute(prepared.plan, prepared.tables, mode,
                                        per_mode_thresholds[mode], clock, prepared.seed,
                                        engine_config, memo=memo)
                rows[mode][i] = SampleRow(query_id=prepared.case.query_id,
                                          latency=trace.total_latency,
                                          failed=trace.failed)
                if result is not None:
                    values[mode] = result.value
            if len(set(values.values())) > 1:
                raise ResultMismatchError(
                    f"{scenario.name}/{prepared.case.query_id}: "
                    f"results diverge across modes: {values}")
        if last_group[table_set] == g:
            del stores[table_set]

    return {mode: build_report(scenario.name, mode, scenario.seed, clock.mode,
                               per_mode_thresholds[mode].source, rows[mode])
            for mode in scenario.modes}


# ── report files ───────────────────────────────────────────────────────────


def report_emit(report: LatencyReport, out_dir: Path) -> list[Path]:
    """Write samples.csv, cdf.csv, and summary.txt under
    <out>/<scenario>/<mode>/; emission is deterministic per report."""
    target = out_dir / report.scenario / report.mode
    target.mkdir(parents=True, exist_ok=True)
    samples_path = target / "samples.csv"
    with samples_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("mode,query_id,latency,failed\n")
        for row in report.rows:
            fh.write(f"{report.mode},{row.query_id},{row.latency!r},{int(row.failed)}\n")
    cdf_path = target / "cdf.csv"
    with cdf_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("latency,cumulative_fraction\n")
        for value, fraction in report.cdf:
            fh.write(f"{value!r},{fraction!r}\n")
    summary_path = target / "summary.txt"
    with summary_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(summarize(report))
    return [samples_path, cdf_path, summary_path]


def read_samples(path: Path) -> tuple[str, list[SampleRow]]:
    """The mode and query rows of a samples.csv that report_emit wrote."""
    if not path.exists():
        raise FileNotFoundError(f"samples file not found: {path}")
    modes: set[str] = set()
    rows: list[SampleRow] = []
    with path.open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            modes.add(row["mode"])
            rows.append(SampleRow(query_id=row["query_id"], latency=float(row["latency"]),
                                  failed=row["failed"] not in ("0", "")))
    if len(modes) > 1:
        raise ValidationError(f"{path} mixes modes {sorted(modes)}")
    if all(r.failed for r in rows):
        raise ValidationError(f"no usable samples in {path}")
    return modes.pop(), rows


def summarize(report: LatencyReport) -> str:
    lines = [
        f"scenario    {report.scenario}",
        f"mode        {report.mode}",
        f"seed        {report.seed}",
        f"clock       {report.clock_mode}",
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
