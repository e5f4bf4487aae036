"""Properties over drawn inputs: the join kernels and statistics capture
equal plain-Python references, a narrow integer draw equals the int64 draw,
and a scenario run gives the rows of executing every query alone.

The join kernels' build-side counts and the sorted path of
capture_statistics run in no scenario at its defaults, so these properties
are their guard.  The kernel inputs cover every signed integer type, int64
too, keys at the type's limits (where the count table's int64 offsets
wrap), dense build keys and sparse ones, which the hash kernel refuses,
every block size of the literal nested loop and carried columns on both
sides.  The statistics and narrow-draw properties draw the types a column
is stored in, int8 to int32.

run_scenario executes group by group and shares kernel outputs through a
memo; the reference below executes every query under every mode with no
memo, in query order, from the same prepared queries, thresholds, clock and
engine config.  Scenarios are drawn small but cover what the hand-picked
tests pin at a few points: every scenario, any seed, 1-30 queries, empty
fact tables, budgets from 64 KiB (where queries spill and fail, in some
examples every query of a mode), noise-free and noisy clocks, and any subset
of modes in any order.

Each property draws its examples from the fixed seed 1 (``@seed``), so they
change when its strategies change, not when its body does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from latebind import bench
from latebind.bench import SampleRow, build_report, run_scenario
from latebind.clock import SimulatedClock
from latebind.datagen import ColumnSpec, Table, TableSpec
from latebind.engine import EngineConfig, execute
from latebind.errors import ResultMismatchError
from latebind.policy import MODES
from latebind.rng import SIGNED_BOUNDS, stream_integers
from latebind.stats import capture_statistics
from test_engine import check_join_kernels
from test_stats import reference_column_stats

KIB = 1024
DTYPES = tuple(SIGNED_BOUNDS)
WIDTHS = DTYPES[:3]   # the types a column is stored in: int8, int16, int32


def in_type(dtype: np.dtype) -> st.SearchStrategy[int]:
    """Values anywhere in one integer type, often at its limits."""
    lo, hi = SIGNED_BOUNDS[dtype]
    return st.one_of(st.sampled_from((lo, lo + 1, -1, 0, 1, hi - 1, hi)), st.integers(lo, hi))


@st.composite
def column_values(draw, dtype: np.dtype, max_size: int) -> np.ndarray:
    """Values of one integer type: a run of consecutive values (a dense
    domain) or values anywhere in the type, both often at its limits."""
    hi = SIGNED_BOUNDS[dtype][1]
    anywhere = in_type(dtype)
    if draw(st.booleans()):
        start = min(draw(anywhere), hi - 7)
        pool = list(range(start, start + 8))
    else:
        pool = draw(st.lists(anywhere, min_size=1, max_size=8))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=max_size)), dtype=dtype)


@st.composite
def join_inputs(draw) -> dict:
    """Join inputs whose sides may be stored in different integer types."""
    probe_type, build_type = draw(st.sampled_from(DTYPES)), draw(st.sampled_from(DTYPES))
    build_key = draw(column_values(build_type, 40))
    # probe keys among the build's keys, at the type's limits and anywhere
    lo, hi = SIGNED_BOUNDS[probe_type]
    shared = [key for key in build_key.tolist() if lo <= key <= hi]
    probe_key = np.array(draw(st.lists(st.one_of(st.sampled_from([*shared, lo, hi]),
                                                 st.integers(lo, hi)), max_size=40)),
                         dtype=probe_type)

    def carried(name: str, key: np.ndarray) -> dict[str, np.ndarray]:
        if not draw(st.booleans()):
            return {}
        values = st.integers(*SIGNED_BOUNDS[key.dtype])
        return {name: np.array(draw(st.lists(values, min_size=key.size, max_size=key.size)),
                               dtype=key.dtype)}

    return {"probe_key": probe_key, "build_key": build_key,
            "carried": carried("v", probe_key), "build_carried": carried("w", build_key),
            "block": draw(st.one_of(st.integers(1, 8), st.integers(1, 255)))}


def test_join_kernels_equal_brute_force_pairs():
    @seed(1)
    @settings(database=None, max_examples=250, deadline=None)
    @given(inputs=join_inputs())
    def prop(inputs):
        # a pair cap above every input keeps the nested loop literal
        check_join_kernels(pair_cap=10**9, **inputs)

    prop()


def test_narrow_integers_equal_the_int64_draw():
    # a narrow draw keeps the low bits of the int64 draw's remainder and adds
    # low at its own width, so it must give the int64 draw's values
    @seed(1)
    @settings(database=None, max_examples=120, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**64 - 1), count=st.integers(0, 200),
           dtype=st.sampled_from(WIDTHS))
    def prop(data, seed, count, dtype):
        low, high = sorted((data.draw(in_type(dtype)), data.draw(in_type(dtype))))
        narrow = stream_integers(seed, 0, count, low, high, dtype)
        assert narrow.dtype == dtype
        np.testing.assert_array_equal(narrow.astype(np.int64),
                                      stream_integers(seed, 0, count, low, high))

    prop()


def test_capture_statistics_equals_python_reference():
    @seed(1)
    @settings(database=None, max_examples=200, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from(WIDTHS), buckets=st.integers(1, 40))
    def prop(data, dtype, buckets):
        values = data.draw(column_values(dtype, 60))
        lo, hi = SIGNED_BOUNDS[dtype]
        table = Table(spec=TableSpec("t", values.size, (ColumnSpec("a", lo, hi),)),
                      columns={"a": values})
        stats = capture_statistics(table, buckets=buckets)
        got = stats.column("a")
        assert got.row_count == values.size
        if not values.size:
            assert (got.ndv, got.bucket_counts) == (0, ())
            return
        assert got == reference_column_stats("a", values, buckets)

    prop()


@st.composite
def scenarios(draw, name: str) -> bench.Scenario:
    common = {"seed": draw(st.integers(0, 2**64 - 1)),
              "query_count": draw(st.integers(1, 30)),
              "modes": tuple(draw(st.permutations(MODES))[:draw(st.integers(1, len(MODES)))])}
    if name == bench.INPUT_SCALE_SHIFT:
        return bench.scenario_input_scale_shift(
            fact_rows=draw(st.integers(0, 1500)), dim_rows=draw(st.integers(1, 1500)),
            drift_fraction=draw(st.floats(0.0, 1.0)), **common)
    if name == bench.STALE_STATS:
        # the key domain is half the dim rows, so it needs two
        return bench.scenario_stale_stats(
            fact_rows=draw(st.integers(0, 4000)), dim_rows=draw(st.integers(2, 1500)),
            **common)
    return bench.scenario_break_even(
        dim_rows=draw(st.integers(1, 400)), miscal_factor=draw(st.floats(0.25, 4.0)),
        **common)


def outcome(run) -> tuple[str, object]:
    """("reports", the reports), or ("mismatch", None) for a run that a
    result mismatch ends."""
    try:
        return "reports", run()
    except ResultMismatchError:
        return "mismatch", None


def reference_reports(scenario: bench.Scenario, clock: SimulatedClock,
                      config: EngineConfig) -> dict[str, bench.LatencyReport]:
    thresholds = bench.scenario_thresholds(scenario)
    rows: dict[str, list[SampleRow]] = {mode: [] for mode in scenario.modes}
    for prepared in bench.scenario_queries(scenario):
        assert prepared.plan.query.left_filter == prepared.case.predicate
        values = set()
        for mode in scenario.modes:
            result, trace = execute(prepared.plan, prepared.tables, mode, thresholds[mode],
                                    clock, prepared.seed, config, memo=None)
            rows[mode].append(SampleRow(prepared.case.query_id, trace.total_latency,
                                        trace.failed))
            if result is not None:
                values.add(result.value)
        if len(values) > 1:
            raise ResultMismatchError(f"{prepared.case.query_id}: {values}")
    return {mode: build_report(scenario.name, mode, scenario.seed,
                               thresholds[mode].source, rows[mode])
            for mode in scenario.modes}


def check_run_scenario(scenario: bench.Scenario, budget: int, hard_factor: float,
                       sigma: float) -> None:
    clock = SimulatedClock(sigma=sigma)
    config = EngineConfig(memory_budget_bytes=budget, hard_memory_factor=hard_factor)
    got = outcome(lambda: run_scenario(scenario, clock, engine_config=config))
    assert got == outcome(lambda: reference_reports(scenario, clock, config))


@pytest.mark.parametrize("name", bench.SCENARIOS)
def test_run_scenario_equals_executing_every_query_alone(name):
    @seed(1)
    @settings(database=None, max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(scenario=scenarios(name),
           budget=st.one_of(st.sampled_from((64 * KIB, 256 * KIB, 64 * 1024 * KIB)),
                            st.integers(64 * KIB, 1024 * KIB)),
           # at a hard cap of one budget every query that spills fails
           hard_factor=st.sampled_from((1.0, 4.0)),
           sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    def prop(scenario, budget, hard_factor, sigma):
        check_run_scenario(scenario, budget, hard_factor, sigma)

    prop()


@pytest.mark.parametrize("make_scenario,hard_factor,sigma", [
    # every query fails at the fact table's scan, so every mode reports NaN statistics
    (lambda: bench.scenario_stale_stats(seed=1, query_count=3, fact_rows=4000, dim_rows=100),
     1.0, 0.0),
    # some queries spill and some fail in every mode
    (lambda: bench.scenario_input_scale_shift(seed=1, query_count=30), 4.0, 0.05),
], ids=["every_query_fails", "some_queries_fail"])
def test_run_scenario_equals_executing_every_query_alone_at_64_kib(make_scenario,
                                                                   hard_factor, sigma):
    check_run_scenario(make_scenario(), 64 * KIB, hard_factor, sigma)
