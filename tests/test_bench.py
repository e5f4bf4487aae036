from __future__ import annotations

import itertools
import math
import statistics
import weakref
from collections import Counter

import numpy as np
import pytest

from latebind import bench, datagen, engine, policy
from latebind.accel import calibrate_break_evens
from latebind.bench import (BREAK_EVEN, INPUT_SCALE_SHIFT, STALE_STATS, LatencyReport,
                            QueryCase, SampleRow, build_report, cdf_points, compare_reports,
                            percentile, report_emit, run_scenario, scenario_break_even,
                            scenario_input_scale_shift, scenario_stale_stats, summarize)
from latebind.clock import SimulatedClock
from latebind.engine import TRUE_COST_MODEL, EngineConfig
from latebind.errors import ResultMismatchError, ValidationError
from latebind.planner import ACCELERATOR, AGGREGATE, CPU, HASH_JOIN, JOIN, NESTED_LOOP
from latebind.policy import BASELINE, INDEPENDENT_GATES, MODES, ORCHESTRATED, Thresholds
from latebind.rng import derive_seed, stream_integers, stream_unit
from latebind.stats import Predicate, capture_statistics
from conftest import plan_nodes


def oracle_percentile(samples: list[float], p: float) -> float:
    # independent nearest-rank implementation: sort, then 1-based ceil index
    ordered = sorted(samples)
    idx = math.ceil(p / 100.0 * len(ordered))
    return ordered[idx - 1]


def test_percentile_integers_1_to_100():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 100) == 100.0
    assert percentile(samples, 0.5) == 1.0


def test_percentile_singleton():
    for p in (0.1, 50, 99, 100):
        assert percentile([42.0], p) == 42.0


def test_percentile_matches_oracle_on_random_input():
    raw = [float(v) for v in stream_integers(314, 0, 1000, 0, 10**6)]
    ordered = sorted(raw)
    for p in (1, 25, 50, 75, 90, 95, 99, 99.9, 100):
        assert percentile(ordered, p) == oracle_percentile(raw, p)


def test_percentile_validation():
    with pytest.raises(ValidationError):
        percentile([], 50)
    with pytest.raises(ValidationError):
        percentile([2.0, 1.0], 50)
    with pytest.raises(ValidationError):
        percentile([1.0], 0.0)
    with pytest.raises(ValidationError):
        percentile([1.0], 101)


def test_cdf_monotone_and_complete():
    pts = cdf_points([1.0, 2.0, 2.0, 9.0])
    fractions = [f for _, f in pts]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    values = [v for v, _ in pts]
    assert values == sorted(values)


def test_build_report_degenerate_single_query():
    report = build_report("input_scale_shift", BASELINE, 1, "manual",
                          [SampleRow("q000", 42.0, False)])
    assert report.p50 == report.p95 == report.p99 == 42.0
    assert report.failures == 0


def test_build_report_orders_invariant():
    rows = [SampleRow(f"q{i:03d}", float(v), False)
            for i, v in enumerate(stream_integers(8, 0, 400, 1, 10**6))]
    report = build_report("stale_stats", BASELINE, 1, "manual", rows)
    assert report.p50 <= report.p95 <= report.p99
    assert report.samples == sorted(report.samples)
    assert report.mean == pytest.approx(statistics.mean(report.samples))


def test_build_report_counts_failures():
    rows = [SampleRow("q000", 5.0, False), SampleRow("q001", 0.0, True),
            SampleRow("q002", 7.0, False)]
    report = build_report("stale_stats", BASELINE, 1, "manual", rows)
    assert report.failures == 1
    assert len(report.samples) == 2


def test_scenario_builders_validate():
    with pytest.raises(ValidationError):
        scenario_input_scale_shift(drift_fraction=1.5)
    with pytest.raises(ValidationError):
        scenario_break_even(miscal_factor=0.0)
    with pytest.raises(ValidationError):
        scenario_input_scale_shift(query_count=0)


@pytest.mark.parametrize("build", bench.SCENARIOS.values(), ids=list(bench.SCENARIOS))
def test_query_count_limit_is_inclusive(monkeypatch, build):
    monkeypatch.setattr(bench, "MAX_QUERIES", 5)
    assert len(build(query_count=5).cases) == 5
    for count in (0, 6):
        with pytest.raises(ValidationError, match=r"query count must be in 1\.\.5, got "):
            build(query_count=count)


def test_single_query_scenario_degenerate_percentiles():
    for build in bench.SCENARIOS.values():
        reports = run_scenario(build(seed=9, query_count=1), SimulatedClock(sigma=0.0))
        for report in reports.values():
            assert report.p50 == report.p95 == report.p99 == report.samples[0]


def test_scenario_schedule_deterministic():
    a = scenario_input_scale_shift(seed=4, query_count=50)
    b = scenario_input_scale_shift(seed=4, query_count=50)
    c = scenario_input_scale_shift(seed=5, query_count=50)
    assert a.cases == b.cases
    assert a.cases != c.cases


def stale_stats_cases_drawn_one_by_one(seed: int, query_count: int) -> list[QueryCase]:
    """The stale_stats schedule as one draw per query: query i's constant is
    the value at stream position i."""
    sched = derive_seed(seed, "schedule/stale_stats")
    return [QueryCase(query_id=f"q{i:03d}", fact_variant="drifted", predicate=Predicate(
                "a", int(stream_integers(sched, i, 1, 60, 140)[0])))
            for i in range(query_count)]


@pytest.mark.parametrize("seed", [1, 7, 100001, 2**63 + 5])
@pytest.mark.parametrize("query_count", [1, 2, 200, 333])
def test_stale_stats_schedule_equals_one_draw_per_query(seed, query_count):
    cases = scenario_stale_stats(seed=seed, query_count=query_count).cases
    assert cases == stale_stats_cases_drawn_one_by_one(seed, query_count)
    # Python ints, whose text names each query's group
    assert {type(case.predicate.constant) for case in cases} == {int}


@pytest.mark.parametrize("seed", [1, 7, 100001, 2**63 + 5])
@pytest.mark.parametrize("query_count", [1, 2, 200])
def test_input_scale_shift_schedule_reads_positions_2i_and_2i_plus_1(seed, query_count):
    # query i's drift test is the unit at stream position 2i and its pick the
    # integer at 2i + 1, read here from one draw over both
    sched = derive_seed(seed, "schedule/input_scale_shift")
    units = stream_unit(sched, 0, 2 * query_count)[0::2]
    picks = stream_integers(sched, 0, 2 * query_count, 0, 2)[1::2]
    scales = (5.0, 10.0, 20.0)
    for drift_fraction in (0.0, 0.2, 1.0):
        want = [QueryCase(query_id=f"q{i:03d}",
                          fact_variant=f"x{scales[pick]:g}" if u < drift_fraction
                          else bench.BASE_VARIANT)
                for i, (u, pick) in enumerate(zip(units, picks))]
        assert scenario_input_scale_shift(seed=seed, query_count=query_count,
                                          drift_fraction=drift_fraction,
                                          scales=scales).cases == want


@pytest.mark.parametrize("drift_fraction", [0.0, 0.2])
def test_drift_draw_equal_to_the_fraction_keeps_the_base_table(monkeypatch, drift_fraction):
    # a case drifts when its unit draw is below drift_fraction, so a draw of
    # exactly drift_fraction does not; at 0 every draw, 0.0 included, keeps
    # the base table (the zero-drift control)
    monkeypatch.setattr(bench, "stream_unit",
                        lambda seed, start, count: np.full(count, drift_fraction))
    cases = scenario_input_scale_shift(seed=1, query_count=5,
                                       drift_fraction=drift_fraction).cases
    assert [case.fact_variant for case in cases] == [bench.BASE_VARIANT] * 5


def test_run_scenario_deterministic_reports():
    scenario = scenario_input_scale_shift(seed=3, query_count=24)
    clock = SimulatedClock(sigma=0.05)
    r1 = run_scenario(scenario, clock)
    r2 = run_scenario(scenario, clock)
    for mode in scenario.modes:
        assert r1[mode].samples == r2[mode].samples
        assert [row.latency for row in r1[mode].rows] == \
            [row.latency for row in r2[mode].rows]


NL_TO_HASH = (JOIN, NESTED_LOOP, HASH_JOIN)
CPU_TO_ACC = (AGGREGATE, CPU, ACCELERATOR)
ACC_TO_CPU = (AGGREGATE, ACCELERATOR, CPU)
SEED1_SWITCHES = {
    # scenario: {(mode, node kind, planned, executed): count}
    BREAK_EVEN: {(ORCHESTRATED, *ACC_TO_CPU): 30},
    INPUT_SCALE_SHIFT: {(mode, *switch): 25 for mode in (INDEPENDENT_GATES, ORCHESTRATED)
                        for switch in (NL_TO_HASH, CPU_TO_ACC)},
    STALE_STATS: {(mode, *switch): count for mode in (INDEPENDENT_GATES, ORCHESTRATED)
                  for switch, count in ((NL_TO_HASH, 112), (CPU_TO_ACC, 87))},
}


@pytest.mark.parametrize("name", sorted(SEED1_SWITCHES))
def test_seed1_switch_counts(monkeypatch, name):
    switches: Counter = Counter()
    execute = bench.execute

    def counting(plan, tables, mode, *args, **kwargs):
        result, trace = execute(plan, tables, mode, *args, **kwargs)
        for r in trace.records:
            if r.decisions:
                # the label names a switch exactly when the variant changed
                assert r.decisions == ((f"switch:{r.executed_variant}",)
                                       if r.executed_variant != r.planned_variant
                                       else ("keep",))
            if r.executed_variant != r.planned_variant:
                switches[mode, r.kind, r.planned_variant, r.executed_variant] += 1
        return result, trace

    monkeypatch.setattr(bench, "execute", counting)
    run_scenario(bench.SCENARIOS[name](seed=1), SimulatedClock(sigma=0.05))
    assert dict(switches) == SEED1_SWITCHES[name]


# node pairs of a query, over the three pairs of modes, that run different
# variants at seed 1: twice each deciding mode's switches above, since a
# node where the deciding modes switch alike differs from baseline in both,
# and break_even's switches differ from baseline and independent_gates
SEED1_DIFFERING_NODE_PAIRS = {INPUT_SCALE_SHIFT: 100, STALE_STATS: 398, BREAK_EVEN: 60}


@pytest.mark.parametrize("name", sorted(SEED1_DIFFERING_NODE_PAIRS))
def test_modes_running_one_variant_at_a_node_charge_it_bit_for_bit(default_run, name):
    # noise is keyed by query seed and node position, never by mode, so a
    # gap between two modes' latencies comes only from nodes where they differ
    queries: dict[int, dict[str, dict[str, tuple[str, float]]]] = {}
    for seed, mode, charges in default_run(name).executions:
        queries.setdefault(seed, {})[mode] = {node_id: (variant, cost)
                                              for node_id, variant, cost in charges}
    assert len(queries) == 200
    differing = 0
    for nodes in queries.values():
        for a, b in itertools.combinations(MODES, 2):
            assert nodes[a].keys() == nodes[b].keys()
            for node_id, (variant, cost) in nodes[a].items():
                other_variant, other_cost = nodes[b][node_id]
                if variant != other_variant:
                    differing += 1
                else:
                    assert cost.hex() == other_cost.hex(), node_id
    assert differing == SEED1_DIFFERING_NODE_PAIRS[name]


@pytest.mark.parametrize("base", [None, Thresholds(rho_join=3.0, offload_margin=2.5)],
                         ids=["default", "manual"])
@pytest.mark.parametrize("seed", [1, 7, 100001, 200001])
@pytest.mark.parametrize("name", sorted(bench.SCENARIOS))
def test_orchestrated_thresholds_equal_noise_free_calibration_of_true_model(name, seed,
                                                                            base):
    # orchestrated reads the true model's break-evens: exactly what the
    # measured path, a sigma-0 microbenchmark of the true model, gives
    measured, _, _ = calibrate_break_evens(TRUE_COST_MODEL, SimulatedClock(sigma=0.0),
                                           derive_seed(seed, "calibration"))
    thresholds = bench.scenario_thresholds(bench.SCENARIOS[name](seed=seed), base)
    assert thresholds[ORCHESTRATED] == policy.calibrate(measured, base)


def record_plan_statistics(monkeypatch) -> list[dict]:
    """The statistics bench passes to each plan it builds, in build order;
    the list grows as plans are built."""
    planned_from = []
    build = bench.build_plan

    def recording(query, stats, model):
        planned_from.append(stats)
        return build(query, stats, model)

    monkeypatch.setattr(bench, "build_plan", recording)
    return planned_from


def group_plans(scenario, planned_from: list[dict]) -> list:
    """Each group's plan nodes and the statistics they were planned from;
    `planned_from` is record_plan_statistics' list."""
    start = len(planned_from)
    nodes = [plan_nodes(group.queries[0][1].plan) for group in bench.scenario_groups(scenario)]
    return list(zip(nodes, planned_from[start:], strict=True))


@pytest.mark.parametrize("seed", [1, 100001, 200001])
@pytest.mark.parametrize("name", sorted(bench.SCENARIOS))
def test_statistics_of_read_columns_plan_as_full_statistics(monkeypatch, name, seed):
    scenario = bench.SCENARIOS[name](seed=seed)
    planned_from = record_plan_statistics(monkeypatch)
    read = group_plans(scenario, planned_from)
    full_capture = bench.capture_statistics
    monkeypatch.setattr(bench, "capture_statistics",
                        lambda table, columns=None: full_capture(table))
    full = group_plans(scenario, planned_from)
    assert len(read) == len(full) > 0
    filtered = {case.predicate.column for case in scenario.cases if case.predicate}
    for (nodes, stats), (full_nodes, all_stats) in zip(read, full):
        # every node's choice, estimates and late-bind flag
        assert nodes == full_nodes
        assert set(stats[scenario.fact_spec.name].columns) == {bench.LEFT_KEY, *filtered}
        assert set(stats[scenario.dim_spec.name].columns) == {bench.RIGHT_KEY}
        for table, table_stats in stats.items():
            assert table_stats.row_count == all_stats[table].row_count
            for column, column_stats in table_stats.columns.items():
                assert column_stats == all_stats[table].columns[column]


@pytest.mark.parametrize("seed", [1, 100001, 200001])
@pytest.mark.parametrize("name", sorted(bench.SCENARIOS))
def test_plans_hold_statistics_as_captured(monkeypatch, name, seed):
    # plans read the statistics capture_statistics returned, with no trip
    # through their file form: of the base table before any drift in a
    # scenario without size variants, of each variant's own table otherwise
    def no_roundtrip(stats):
        raise AssertionError("statistics sent through their JSON form")

    monkeypatch.setattr(bench, "_roundtrip", no_roundtrip)
    planned_from = record_plan_statistics(monkeypatch)
    scenario = bench.SCENARIOS[name](seed=seed)
    first = next(bench.scenario_groups(scenario)).queries[0][1]
    fact = (first.tables[scenario.fact_spec.name] if scenario.size_variants
            else bench._fact_table(scenario, bench.BASE_VARIANT, None))
    read = {bench.LEFT_KEY, *(case.predicate.column for case in scenario.cases
                              if case.predicate)}
    dim = first.tables[scenario.dim_spec.name]
    assert planned_from == [{
        scenario.fact_spec.name: capture_statistics(fact, columns=read),
        scenario.dim_spec.name: capture_statistics(dim, columns=(bench.RIGHT_KEY,))}]


@pytest.mark.parametrize("name,nodes,calls", [
    (BREAK_EVEN, 4, 800), (INPUT_SCALE_SHIFT, 4, 800), (STALE_STATS, 5, 1000)])
def test_noise_drawn_once_per_query_and_node(monkeypatch, name, nodes, calls):
    # noise never depends on the mode, so a query's modes share each draw;
    # the thresholds are read off cost models, so they draw none
    drawn = []
    noise = SimulatedClock.noise

    def counting(self, seed, counter):
        drawn.append((seed, counter))
        return noise(self, seed, counter)

    monkeypatch.setattr(SimulatedClock, "noise", counting)
    scenario = bench.SCENARIOS[name](seed=1)
    thresholds = bench.scenario_thresholds(scenario)
    assert drawn == []
    run_scenario(scenario, SimulatedClock(sigma=0.05), thresholds=thresholds)
    assert len(set(drawn)) == len(drawn) == len(scenario.cases) * nodes == calls


def test_zero_drift_control_modes_agree(small_tables):
    scenario = scenario_input_scale_shift(seed=6, query_count=30, drift_fraction=0.0)
    reports = run_scenario(scenario, SimulatedClock(sigma=0.05))
    base = reports[BASELINE]
    for mode in (INDEPENDENT_GATES, ORCHESTRATED):
        assert abs(reports[mode].p50 - base.p50) / base.p50 <= 0.10


def test_stale_stats_baseline_less_stable():
    scenario = scenario_stale_stats(seed=2, query_count=60)
    reports = run_scenario(scenario, SimulatedClock(sigma=0.05))

    def cov(report: LatencyReport) -> float:
        return statistics.pstdev(report.samples) / statistics.mean(report.samples)

    assert cov(reports[BASELINE]) > cov(reports[ORCHESTRATED])


def test_break_even_scenario_orders_modes():
    scenario = scenario_break_even(seed=2, query_count=40)
    reports = run_scenario(scenario, SimulatedClock(sigma=0.05))
    assert reports[ORCHESTRATED].mean <= reports[INDEPENDENT_GATES].mean
    assert reports[INDEPENDENT_GATES].mean <= reports[BASELINE].mean + 1e-9


def test_cross_mode_mismatch_aborts(monkeypatch):
    scenario = scenario_input_scale_shift(seed=3, query_count=4)
    from latebind import engine as engine_mod

    real_execute = bench.execute
    flip = {"n": 0}

    def tampering_execute(plan, tables, mode, thresholds, clock, seed, config=None,
                          memo=None):
        result, trace = real_execute(plan, tables, mode, thresholds, clock, seed, config,
                                     memo=memo)
        if mode == ORCHESTRATED:
            flip["n"] += 1
            result = engine_mod.QueryResult(value=result.value + 1)
        return result, trace

    monkeypatch.setattr(bench, "execute", tampering_execute)
    with pytest.raises(ResultMismatchError):
        run_scenario(scenario, SimulatedClock(sigma=0.0))
    assert flip["n"] >= 1


@pytest.mark.parametrize("build,config,reordered", [
    (scenario_input_scale_shift, None, True),
    (scenario_stale_stats, None, True),
    # at a 768 KiB budget 63 of 120 stale_stats executions spill and none fails
    (scenario_stale_stats, EngineConfig(memory_budget_bytes=768 * 1024), True),
    # every query has its own fact table, so each group is one query
    (scenario_break_even, None, False),
], ids=["input_scale_shift", "stale_stats", "stale_stats_spilling", "break_even"])
def test_kernel_memo_leaves_reports_unchanged(monkeypatch, build, config, reordered):
    scenario = build(seed=3, query_count=40)
    assert any(case.fact_variant != bench.BASE_VARIANT for case in scenario.cases)
    # where some group comes back after another group ran, the grouped run
    # reorders queries and must put the rows back in query order
    order = [i for group in bench.scenario_groups(scenario) for i, _ in group.queries]
    assert sorted(order) == list(range(len(scenario.cases)))
    assert (order != sorted(order)) == reordered
    clock = SimulatedClock(sigma=0.05)
    shared = run_scenario(scenario, clock, engine_config=config)
    real_execute = bench.execute
    spilled = []

    def execute_without_memo(*args, memo=None, **kwargs):
        result, trace = real_execute(*args, **kwargs)
        spilled.append(any(record.spilled for record in trace.records))
        return result, trace

    monkeypatch.setattr(bench, "execute", execute_without_memo)
    assert run_scenario(scenario, clock, engine_config=config) == shared
    for report in shared.values():
        assert [row.query_id for row in report.rows] == \
            [case.query_id for case in scenario.cases]
    if config is not None:
        assert 0 < sum(spilled) < len(spilled)


def run_at_width(monkeypatch, scenario, config=None, int64=False) -> tuple:
    """run_scenario with each column at its narrowest width, or with every
    column forced to int64: the reports, each execution's (spilled, failed),
    and the dtypes of the columns the executions read."""
    real_execute = bench.execute
    outcomes: list[tuple[bool, bool]] = []
    dtypes: set[str] = set()

    def recording_execute(plan, tables, *args, **kwargs):
        dtypes.update(str(col.dtype) for t in tables.values() for col in t.columns.values())
        result, trace = real_execute(plan, tables, *args, **kwargs)
        outcomes.append((any(record.spilled for record in trace.records), trace.failed))
        return result, trace

    with monkeypatch.context() as mp:
        mp.setattr(bench, "execute", recording_execute)
        if int64:
            mp.setattr(datagen, "column_dtype", lambda col: np.dtype(np.int64))
        reports = run_scenario(scenario, SimulatedClock(), engine_config=config)
    return reports, outcomes, dtypes


@pytest.mark.parametrize("seed", [1, 100001, 200001])
@pytest.mark.parametrize("name", sorted(bench.SCENARIOS))
def test_narrow_columns_leave_reports_unchanged(monkeypatch, default_run, name, seed):
    # the narrow run is the CLI's default run at the seed
    narrow = default_run(name, seed)
    wide, _, wide_dtypes = run_at_width(monkeypatch, bench.SCENARIOS[name](seed=seed),
                                        int64=True)
    assert "int64" not in narrow.dtypes and wide_dtypes == {"int64"}
    assert narrow.reports == wide


@pytest.mark.parametrize("make_scenario,config,spills,failures", [
    # 63 of 120 stale_stats executions spill and none fails
    (lambda: scenario_stale_stats(seed=3, query_count=40),
     EngineConfig(memory_budget_bytes=768 * 1024), 63, 0),
    # 15 queries fail in each of the 3 modes; 21 executions spill
    (lambda: scenario_input_scale_shift(seed=1, query_count=100),
     EngineConfig(memory_budget_bytes=64 * 1024), 21, 45),
], ids=["stale_stats_spilling", "input_scale_shift_failing"])
def test_memory_outcomes_do_not_depend_on_column_width(monkeypatch, make_scenario, config,
                                                       spills, failures):
    narrow, narrow_outcomes, _ = run_at_width(monkeypatch, make_scenario(), config)
    wide, wide_outcomes, _ = run_at_width(monkeypatch, make_scenario(), config, int64=True)
    assert narrow == wide
    assert narrow_outcomes == wide_outcomes
    assert sum(spilled for spilled, _ in narrow_outcomes) == spills
    assert sum(failed for _, failed in narrow_outcomes) == failures


@pytest.mark.parametrize("build,budget_kib,counts", [
    # a hash join holds its build side in its working set: without it, 47
    # fewer joins would spill in each deciding mode,
    (scenario_stale_stats, 256, {BASELINE: (773, 0), INDEPENDENT_GATES: (820, 0),
                                 ORCHESTRATED: (820, 0)}),
    # one fewer in each mode here,
    (scenario_break_even, 768, {mode: (114, 0) for mode in MODES}),
    # and here one query per mode would finish, with two nodes spilled
    (scenario_break_even, 64, {mode: (196, 99) for mode in MODES}),
], ids=["stale_stats_256KiB", "break_even_768KiB", "break_even_64KiB"])
def test_seed1_spills_and_failures_per_mode(monkeypatch, build, budget_kib, counts):
    """Per mode, the spilled nodes and the failed executions of a default
    scenario at a budget where the hash build's bytes decide some of them."""
    spills: Counter = Counter()
    failures: Counter = Counter()
    real_execute = bench.execute

    def counting(plan, tables, mode, *args, **kwargs):
        result, trace = real_execute(plan, tables, mode, *args, **kwargs)
        spills[mode] += sum(record.spilled for record in trace.records)
        failures[mode] += trace.failed
        return result, trace

    monkeypatch.setattr(bench, "execute", counting)
    run_scenario(build(seed=1), SimulatedClock(),
                 engine_config=EngineConfig(memory_budget_bytes=budget_kib * 1024))
    assert {mode: (spills[mode], failures[mode]) for mode in MODES} == counts


def count_join_kernels(monkeypatch) -> tuple[list, list]:
    """Wrap bench.execute and the join kernels; returns (executions, kernel
    calls), each tagged with its (plan, tables) group and query seed.  The
    wrappers keep every plan, table and kernel input they see, so their ids
    stay distinct for the run even where the run drops a table."""
    # (group, seed, mode, join variant, join kernel)
    executions: list[tuple[tuple, int, str, str, str]] = []
    calls: list[tuple[tuple, int, str, tuple]] = []   # (group, seed, kernel, inputs)
    current = {}
    kept = []
    real_execute = bench.execute

    def tagging_execute(plan, tables, mode, thresholds, clock, seed, config=None,
                        memo=None):
        kept.append((plan, tables))
        current["at"] = ((id(plan), *map(id, tables.values())), seed)
        result, trace = real_execute(plan, tables, mode, thresholds, clock, seed, config,
                                     memo=memo)
        join = next(r for r in trace.records if r.kind == "join")
        executions.append((*current["at"], mode, join.executed_variant, join.kernel))
        return result, trace

    def counting(name, kernel):
        def wrapper(probe_key, build_key, carried, build_carried, *rest):
            inputs = (probe_key, build_key, *carried.values(), *build_carried.values())
            calls.append((*current["at"], name, inputs))
            return kernel(probe_key, build_key, carried, build_carried, *rest)
        return wrapper

    monkeypatch.setattr(bench, "execute", tagging_execute)
    monkeypatch.setattr(engine, "_nested_loop_join",
                        counting(NESTED_LOOP, engine._nested_loop_join))
    monkeypatch.setattr(engine, "_hash_join", counting(HASH_JOIN, engine._hash_join))
    return executions, calls


def test_nested_loop_runs_once_per_group(monkeypatch):
    scenario = scenario_input_scale_shift(seed=3, query_count=12)
    executions, calls = count_join_kernels(monkeypatch)
    run_scenario(scenario, SimulatedClock(sigma=0.05))
    nl_runs = [(group, seed) for group, seed, _, _, kernel in executions
               if kernel == NESTED_LOOP]
    nl_calls = [(group, seed) for group, seed, name, _ in calls if name == NESTED_LOOP]
    groups = {group for group, _ in nl_runs}
    # several queries share each group, so once per group is less than once per query
    assert len({seed for _, seed in nl_runs}) > len(groups)
    assert Counter(group for group, _ in nl_calls) == Counter(groups)  # once each
    assert max(Counter(nl_runs).values()) == len(scenario.modes)


def test_stale_stats_runs_each_join_once_per_input_arrays(monkeypatch):
    # the drift moves column a to 100..199, so a >= c keeps every row for
    # c <= 100 and groups with different predicates join the same columns
    scenario = scenario_stale_stats(seed=1, query_count=60)
    executions, calls = count_join_kernels(monkeypatch)
    prepared, memos, entries = [], [], {}
    real_groups = bench.scenario_groups

    def recording_groups(scenario):
        for group in real_groups(scenario):
            prepared.extend(query for _, query in group.queries)
            yield group
            entries.update(group.store)   # before the set's last group empties it

    class RecordingMemo(engine.KernelMemo):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            memos.append(self)

    monkeypatch.setattr(bench, "scenario_groups", recording_groups)
    monkeypatch.setattr(bench, "KernelMemo", RecordingMemo)
    run_scenario(scenario, SimulatedClock(sigma=0.05))
    runs = Counter((name, tuple(map(id, inputs))) for _, _, name, inputs in calls)
    assert max(runs.values()) == 1
    hash_groups = {group for group, _, _, _, kernel in executions if kernel == HASH_JOIN}
    assert len(runs) < len(hash_groups)
    # one table set, whose store keys its entries by table columns only and
    # is emptied after the set's last group
    (store,) = {id(memo.table_set): memo.table_set for memo in memos}.values()
    assert not store
    columns = {id(col) for q in prepared for table in q.tables.values()
               for col in table.columns.values()}
    assert entries
    assert all(id(array) in columns for arrays, _ in entries.values() for array in arrays)
    # every nested-loop variant here is above nl_pair_cap and runs the hash
    # kernel, so no group executes the literal nested loop and none calls it
    nl_variant = [kernel for _, _, _, variant, kernel in executions if variant == NESTED_LOOP]
    assert nl_variant and set(nl_variant) == {HASH_JOIN}
    nl_groups = {group for group, _, _, _, kernel in executions if kernel == NESTED_LOOP}
    assert Counter(group for group, _, name, _ in calls if name == NESTED_LOOP) == \
        Counter(nl_groups)


def corrupt_nested_loop(monkeypatch) -> None:
    """Make every nested-loop join return its output columns plus 1."""
    real_nl = engine._nested_loop_join

    def corrupted(*args, **kwargs):
        total, out = real_nl(*args, **kwargs)
        return total, {name: col + 1 for name, col in out.items()}

    monkeypatch.setattr(engine, "_nested_loop_join", corrupted)


def test_corrupted_nested_loop_served_across_groups_fails(monkeypatch):
    # every kept predicate keeps every drifted row, so the groups differ by
    # predicate but join the same table columns; only q007 (a >= 96)
    # switches to hash in the hooked modes
    scenario = scenario_stale_stats(seed=1, query_count=8, fact_rows=2000, dim_rows=1000)
    scenario.cases = [case for case in scenario.cases if case.predicate.constant <= 100]
    config = EngineConfig(nl_pair_cap=10**9)  # keep the nested loop literal
    executions, calls = count_join_kernels(monkeypatch)
    run_scenario(scenario, SimulatedClock(sigma=0.0), engine_config=config)
    nl_groups = {group for group, _, _, _, kernel in executions if kernel == NESTED_LOOP}
    assert len(nl_groups) == len(scenario.cases) == 7
    # one literal run serves every group; q007's hash join is the only other
    assert sorted(name for _, _, name, _ in calls) == [HASH_JOIN, NESTED_LOOP]

    corrupt_nested_loop(monkeypatch)
    with pytest.raises(ResultMismatchError, match="q007"):
        run_scenario(scenario, SimulatedClock(sigma=0.0), engine_config=config)


class StoreToken:
    """Put in a table set's store, so that a weakref tells when the store is
    released."""


def test_table_set_store_released_after_last_group(monkeypatch):
    # no filters, so every join is over table columns and goes to the store;
    # each fact table variant is its own table set.  From the first group
    # after a variant's last one, its fact table and its store are released,
    # except input_scale_shift's base table, which lives for the run because
    # the drift variants are drawn from it
    real_groups, real_execute = bench.scenario_groups, bench.execute
    for scenario in (scenario_input_scale_shift(seed=3, query_count=30),
                     scenario_break_even(seed=3, query_count=30)):
        last_query = {case.fact_variant: i for i, case in enumerate(scenario.cases)}
        # (variant, fact table, store) of each variant whose last group ran
        finished: list[tuple[str, weakref.ref, weakref.ref]] = []
        checked = Counter()

        def recording_groups(scenario):
            for group in real_groups(scenario):
                yield group
                (variant,) = {query.case.fact_variant for _, query in group.queries}
                if any(i == last_query[variant] for i, _ in group.queries):
                    finished.append((
                        variant,
                        weakref.ref(group.queries[0][1].tables[scenario.fact_spec.name]),
                        weakref.ref(group.store.setdefault(StoreToken, StoreToken()))))

        def checking_execute(*args, **kwargs):
            for variant, table, store in finished:
                assert store() is None, variant
                assert (table() is not None) == (variant == bench.BASE_VARIANT), variant
                checked[variant] += 1
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(bench, "scenario_groups", recording_groups)
        monkeypatch.setattr(bench, "execute", checking_execute)
        run_scenario(scenario, SimulatedClock(sigma=0.05))
        assert sorted(variant for variant, _, _ in finished) == sorted(last_query)
        # every variant but the last one is checked while later groups run
        assert len(checked) == len(last_query) - 1 >= 2
        assert all(table() is None and store() is None for _, table, store in finished)


def test_join_outputs_freed_before_next_table_is_made(monkeypatch):
    # every break_even query has its own fact table, so each group makes
    # one.  A group's join outputs must be gone by then: in a process that
    # keeps the tables, a freed output left between two of them stays
    # resident
    outputs: list[weakref.ref] = []
    alive_at_generate = []
    real_generate = bench.generate_table

    def recording(kernel):
        def wrapper(*args, **kwargs):
            rows, weights = kernel(*args, **kwargs)
            outputs.extend(weakref.ref(weight) for weight in weights.values())
            return rows, weights
        return wrapper

    def checking_generate(*args, **kwargs):
        alive_at_generate.append(sum(ref() is not None for ref in outputs))
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(engine, "_hash_join", recording(engine._hash_join))
    monkeypatch.setattr(engine, "_nested_loop_join", recording(engine._nested_loop_join))
    monkeypatch.setattr(bench, "generate_table", checking_generate)
    run_scenario(scenario_break_even(seed=3, query_count=12), SimulatedClock(sigma=0.05))
    assert outputs
    assert alive_at_generate == [0] * 13   # the dim table and 12 fact tables


def test_dim_hash_build_made_once_per_table_set(monkeypatch):
    # every fact variant is its own table set, whose store keeps the hash
    # build of the dim key as long as the fact table lives: 140 of the 200
    # sets run a hash join in some mode, 420 hash joins in all
    built = []
    real_build = engine._hash_build

    def counting_build(build_key):
        built.append(build_key.size)
        return real_build(build_key)

    monkeypatch.setattr(engine, "_hash_build", counting_build)
    scenario = scenario_break_even(seed=1)
    run_scenario(scenario, SimulatedClock(sigma=0.05))
    assert built == [scenario.dim_spec.row_count] * 140


KERNELS = ("_filter", "_hash_build", "_hash_join", "_nested_loop_join", "_output_sum")


# one kernel run per distinct input
@pytest.mark.parametrize("build,calls", [
    (scenario_input_scale_shift, (0, 3, 3, 1, 4)),
    (scenario_stale_stats, (74, 1, 37, 0, 74)),
    (scenario_break_even, (0, 140, 140, 60, 200)),
], ids=[INPUT_SCALE_SHIFT, STALE_STATS, BREAK_EVEN])
def test_kernel_calls_at_seed1(monkeypatch, build, calls):
    counts = Counter()

    def counting(name):
        kernel = getattr(engine, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(engine, name, counting(name))
    run_scenario(build(seed=1), SimulatedClock(sigma=0.05))
    assert tuple(counts[name] for name in KERNELS) == calls


def test_memo_runs_both_join_kernels_when_modes_differ(monkeypatch):
    # every query drifted 20x: baseline keeps the nested loop, the hooked
    # modes switch to hash; all modes keep the cpu aggregate
    scenario = scenario_input_scale_shift(seed=3, query_count=2, fact_rows=500,
                                          dim_rows=500, drift_fraction=1.0,
                                          scales=(20.0,))
    config = EngineConfig(nl_pair_cap=10**9)  # keep the nested loop literal
    executions, calls = count_join_kernels(monkeypatch)
    run_scenario(scenario, SimulatedClock(sigma=0.0), engine_config=config)
    seeds = {seed for _, seed, _, _, _ in executions}
    assert len(seeds) == 2
    for seed in seeds:
        kernels = {mode: kernel for _, s, mode, _, kernel in executions if s == seed}
        assert kernels[BASELINE] == NESTED_LOOP
        assert kernels[ORCHESTRATED] == HASH_JOIN
    # both queries share the plan and the 20x table: one group, so each
    # join kernel runs once for the pair
    assert len({group for group, _, _, _, _ in executions}) == 1
    assert sorted(name for _, _, name, _ in calls) == [HASH_JOIN, NESTED_LOOP]

    # the aggregate of each join kernel runs on that kernel's own output,
    # so a wrong nested-loop output still fails the cross-mode check
    corrupt_nested_loop(monkeypatch)
    with pytest.raises(ResultMismatchError):
        run_scenario(scenario, SimulatedClock(sigma=0.0), engine_config=config)


def test_report_emit_files_and_determinism(tmp_path):
    scenario = scenario_input_scale_shift(seed=3, query_count=12)
    reports = run_scenario(scenario, SimulatedClock(sigma=0.05))
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    for report in reports.values():
        paths1 = report_emit(report, out1)
        paths2 = report_emit(report, out2)
        for p1, p2 in zip(paths1, paths2):
            assert p1.read_bytes() == p2.read_bytes()
    samples = (out1 / scenario.name / BASELINE / "samples.csv").read_text().splitlines()
    assert samples[0] == "mode,query_id,latency,failed"
    assert len(samples) == 1 + 12
    assert all(line.endswith(",0") for line in samples[1:])  # no failures
    cdf = (out1 / scenario.name / BASELINE / "cdf.csv").read_text().splitlines()
    assert cdf[-1].endswith(",1.0")
    summary = (out1 / scenario.name / BASELINE / "summary.txt").read_text()
    assert "p99" in summary and "scenario" in summary


def test_report_emit_marks_failed_rows(tmp_path):
    report = build_report("stale_stats", BASELINE, 1, "manual",
                          [SampleRow("q000", 5.0, False), SampleRow("q001", 3.0, True),
                           SampleRow("q002", 7.0, False)])
    report_emit(report, tmp_path)
    lines = (tmp_path / "stale_stats" / BASELINE / "samples.csv").read_text().splitlines()
    assert lines[2].endswith(",1")  # q001 failed
    assert (tmp_path / "stale_stats" / BASELINE / "summary.txt").read_text().count("failures    1")
    # failures are excluded from the distribution
    assert len(report.samples) == 2


def test_memory_exhaustion_reaches_report_files(tmp_path):
    # a 64 KiB budget puts 15 queries' working sets above the hard cap in
    # every mode; the run still completes, since the cross-mode check
    # compares only the modes that returned a result
    scenario = scenario_input_scale_shift(seed=1, query_count=100)
    reports = run_scenario(scenario, SimulatedClock(sigma=0.05),
                           engine_config=EngineConfig(memory_budget_bytes=64 * 1024))
    failed = [row.query_id for row in reports[BASELINE].rows if row.failed]
    assert len(failed) == 15
    assert failed[:5] == ["q006", "q019", "q027", "q029", "q032"]
    for mode, report in reports.items():
        assert [row.query_id for row in report.rows if row.failed] == failed
        report_emit(report, tmp_path)
        target = tmp_path / scenario.name / mode
        lines = (target / "samples.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines if line.endswith(",1")] == failed
        assert "failures    15\n" in (target / "summary.txt").read_text()


def test_mode_whose_every_query_fails_is_reported(tmp_path):
    # at 64 KiB the fact table's scan alone is over the hard cap, so every
    # query fails in every mode, and each mode is still reported
    scenario = scenario_stale_stats(seed=1)
    reports = run_scenario(scenario, SimulatedClock(),
                           engine_config=EngineConfig(memory_budget_bytes=64 * 1024))
    assert list(reports) == list(MODES)
    for mode, report in reports.items():
        assert report.failures == len(report.rows) == 200
        assert report.samples == []
        assert report.p50 is report.p95 is report.p99 is report.mean is math.nan
        report_emit(report, tmp_path)
        target = tmp_path / scenario.name / mode
        # no node ran to a record, so each latency is the float 0.0, never the int 0
        assert (target / "samples.csv").read_text().splitlines()[1:] == [
            f"{mode},q{i:03d},0.0,1" for i in range(200)]
        assert (target / "cdf.csv").read_text() == "latency,cumulative_fraction\n"
        assert "failures    200\nmean        nan\np50         nan\n" \
            in (target / "summary.txt").read_text()
    table = compare_reports(reports)
    assert f"{'nan':>14}" * 4 + "   200\n" in table
    # a ratio of NaN percentiles is NaN, printed as such
    for mode in MODES:
        assert f"{mode:<20}" + "  ".join(f"{p} {'nan':>8}" for p in ("p50", "p95", "p99")) \
            + "\n" in table
    # the one NaN object makes equal runs' reports equal
    assert reports == run_scenario(scenario, SimulatedClock(),
                                   engine_config=EngineConfig(memory_budget_bytes=64 * 1024))


def test_summarize_and_compare_output():
    report = build_report("stale_stats", BASELINE, 1, "manual",
                          [SampleRow("q000", 10.0, False), SampleRow("q001", 20.0, False)])
    other = build_report("stale_stats", ORCHESTRATED, 1, "calibrated",
                         [SampleRow("q000", 1.0, False), SampleRow("q001", 2.0, False)])
    text = compare_reports({BASELINE: report, ORCHESTRATED: other})
    assert "p99" in text and "ratios vs baseline" in text
    assert "10.00" in text  # baseline p99 / orchestrated p99
    assert text.splitlines()[-2:] == [
        f"{mode:<20}" + "  ".join(f"{p} {ratio:>8}" for p in ("p50", "p95", "p99"))
        for mode, ratio in ((BASELINE, "1.00"), (ORCHESTRATED, "10.00"))]
    assert summarize(report).startswith("scenario")
