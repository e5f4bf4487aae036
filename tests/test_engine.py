from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from latebind.clock import SimulatedClock
from latebind.datagen import ColumnSpec, DriftSpec, TableSpec, apply_drift, generate_table
from latebind import engine
from latebind.engine import (EngineConfig, _hash_build, _hash_join,
                             _nested_loop_join, _output_sum, execute, join_kernel,
                             observe)
from latebind.errors import ValidationError
from latebind.planner import (ACCELERATOR, CPU, HASH_JOIN, NESTED_LOOP, AggSpec,
                              CostModel, Query, plan)
from latebind.policy import (BASELINE, INDEPENDENT_GATES, ORCHESTRATED, Thresholds,
                             static_thresholds)
from latebind.rng import fnv1a64, stream_integers
from latebind.stats import Predicate, capture_statistics
from conftest import (brute_force_join_count, disabled_thresholds, plan_nodes,
                      table_from_arrays)


def forced(plan_, join=None, left_filter=None, aggregate=None):
    """Copy of the plan with chosen variants overridden."""
    p = dataclasses.replace(plan_)
    if join:
        p.join = dataclasses.replace(plan_.join, chosen=join)
    if left_filter:
        p.left_filter = dataclasses.replace(plan_.left_filter, chosen=left_filter)
    if aggregate:
        p.aggregate = dataclasses.replace(plan_.aggregate, chosen=aggregate)
    return p


def brute_force_join_sum(left_key, right_key, left_val) -> int:
    total = 0
    for k, v in zip(left_key.tolist(), left_val.tolist()):
        total += v * int((right_key == k).sum())
    return total


@pytest.fixture
def drift_setup(default_model):
    fact = generate_table(TableSpec("fact", 2000, (
        ColumnSpec("fk", 0, 1999), ColumnSpec("v", 0, 999))), seed=61)
    dim = generate_table(TableSpec("dim", 2000, (ColumnSpec("pk", 0, 1999),)), seed=62)
    stats = {"fact": capture_statistics(fact), "dim": capture_statistics(dim)}
    p = plan(Query("fact", "dim", "fk", "pk", AggSpec("sum", "v")), stats, default_model)
    drifted = apply_drift(fact, DriftSpec(scale_factor=20.0), seed=63)
    thr = static_thresholds(default_model)
    return p, fact, drifted, dim, thr


def test_result_identical_across_modes(small_plan, small_tables, default_model):
    clock = SimulatedClock(sigma=0.05)
    thr = static_thresholds(default_model)
    values = set()
    for mode in (BASELINE, INDEPENDENT_GATES, ORCHESTRATED):
        result, trace = execute(small_plan, small_tables, mode, thr, clock, seed=5)
        assert not trace.failed
        values.add(result.value)
    assert len(values) == 1


def test_forced_variants_identical_and_match_oracle(small_plan, small_tables):
    clock = SimulatedClock(sigma=0.0)
    left, right = small_tables["l"], small_tables["r"]
    expected_sum = brute_force_join_sum(left.column("k"), right.column("k"), left.column("v"))
    expected_count = brute_force_join_count(left.column("k"), right.column("k"))
    for join, agg in itertools.product((HASH_JOIN, NESTED_LOOP), (CPU, ACCELERATOR)):
        p = forced(small_plan, join=join, aggregate=agg)
        result, trace = execute(p, small_tables, BASELINE, Thresholds(), clock, seed=5)
        assert result.value == expected_sum
        join_record = next(r for r in trace.records if r.kind == "join")
        assert join_record.executed_variant == join
        agg_record = next(r for r in trace.records if r.kind == "aggregate")
        assert agg_record.n_obs == expected_count


def test_simulated_clock_bitwise_determinism(small_plan, small_tables):
    clock = SimulatedClock(sigma=0.05)
    _, t1 = execute(small_plan, small_tables, BASELINE, Thresholds(), clock, seed=9)
    _, t2 = execute(small_plan, small_tables, BASELINE, Thresholds(), clock, seed=9)
    assert t1.total_latency == t2.total_latency
    assert [r.charged_cost for r in t1.records] == [r.charged_cost for r in t2.records]
    _, t3 = execute(small_plan, small_tables, BASELINE, Thresholds(), clock, seed=10)
    assert t1.total_latency != t3.total_latency


def test_simulated_clock_keeps_interleaved_seeds_apart(monkeypatch):
    # the clock keeps the last seed's draws.  A charge of another seed that
    # runs while one seed draws, as another thread's may, must not mix them
    clock = SimulatedClock(sigma=0.05)
    noise = SimulatedClock.noise

    def interleaving(self, seed, counter):
        if seed == 1:
            clock.charge(1.0, 2, counter)
        return noise(self, seed, counter)

    monkeypatch.setattr(SimulatedClock, "noise", interleaving)
    assert clock.charge(1.0, 1, 0) == noise(clock, 1, 0)
    assert clock.charge(1.0, 2, 0) == noise(clock, 2, 0)
    assert noise(clock, 1, 0) != noise(clock, 2, 0)


def test_observe_ratio_examples(small_plan, default_model):
    thr = static_thresholds(default_model)
    node = dataclasses.replace(small_plan.join, est_input=1000.0)
    s1 = observe(node, 1000, thr)
    assert s1.estimate_ratio == pytest.approx(1.0)
    assert s1.r_acc is None  # a join has no N*
    s2 = observe(node, 12000, thr)
    assert (s2.observed_input_cardinality, s2.estimate_ratio) == (12000, pytest.approx(12.0))
    # an estimate below one row counts as one
    for est in (0.0, 0.5):
        assert observe(dataclasses.replace(node, est_input=est), 12, thr).estimate_ratio == 12.0
    aggregate = observe(small_plan.aggregate, 5000, thr)
    assert aggregate.r_acc == pytest.approx(thr.n_star["aggregate"] / 5000)


def test_baseline_rigidity_under_drift(drift_setup):
    p, _, drifted, dim, thr = drift_setup
    clock = SimulatedClock(sigma=0.05)
    _, trace = execute(p, {"fact": drifted, "dim": dim}, BASELINE, thr, clock, seed=3)
    for record in trace.records:
        assert record.executed_variant == record.planned_variant
        if record.decisions:
            assert record.decisions == ("keep",)


def test_orchestrated_switches_join_under_drift(drift_setup):
    p, _, drifted, dim, thr = drift_setup
    clock = SimulatedClock(sigma=0.05)
    result_b, trace_b = execute(p, {"fact": drifted, "dim": dim}, BASELINE, thr, clock, seed=3)
    result_o, trace_o = execute(p, {"fact": drifted, "dim": dim}, ORCHESTRATED, thr,
                                clock, seed=3)
    assert result_b.value == result_o.value
    join = next(r for r in trace_o.records if r.kind == "join")
    assert join.executed_variant == HASH_JOIN
    assert join.decisions == (f"switch:{HASH_JOIN}",)
    assert trace_o.total_latency < trace_b.total_latency


def test_orchestrated_returns_to_cpu_when_shrunk(default_model):
    # estimates promise an accelerator-sized input; the actual table shrank 20x
    fact = generate_table(TableSpec("fact", 20000, (
        ColumnSpec("fk", 0, 999), ColumnSpec("v", 0, 999), ColumnSpec("a", 0, 99))), seed=71)
    dim = generate_table(TableSpec("dim", 1000, (ColumnSpec("pk", 0, 999),)), seed=72)
    stats = {"fact": capture_statistics(fact), "dim": capture_statistics(dim)}
    p = plan(Query("fact", "dim", "fk", "pk", AggSpec("count"),
                   left_filter=Predicate("a", ">=", 0)), stats, default_model)
    assert p.left_filter.chosen == ACCELERATOR  # est 20000 >= break-even
    shrunk = apply_drift(fact, DriftSpec(scale_factor=0.05), seed=73)
    thr = static_thresholds(default_model)
    clock = SimulatedClock(sigma=0.0)
    _, trace = execute(p, {"fact": shrunk, "dim": dim}, ORCHESTRATED, thr, clock, seed=4)
    flt = next(r for r in trace.records if r.kind == "filter")
    assert flt.executed_variant == CPU
    assert flt.decisions == (f"switch:{CPU}",)


def test_charged_cost_accounting_exact(small_plan, small_tables):
    clock = SimulatedClock(sigma=0.05)
    _, trace = execute(small_plan, small_tables, BASELINE, Thresholds(), clock, seed=6)
    total = 0.0
    for record in trace.records:
        total += record.charged_cost
    assert trace.total_latency == total  # same accumulation order, bitwise equal


def test_decisions_only_at_late_bind_nodes(small_plan, small_tables):
    clock = SimulatedClock(sigma=0.0)
    _, trace = execute(small_plan, small_tables, ORCHESTRATED,
                       static_thresholds(CostModel.default()), clock, seed=6)
    for record in trace.records:
        if record.kind == "scan":
            assert record.decisions == ()
        else:
            assert len(record.decisions) >= 1
    assert len(trace.records) == len(plan_nodes(small_plan))


def test_spill_inflates_charged_cost(small_plan, small_tables, default_model):
    clock = SimulatedClock(sigma=0.0)
    roomy = EngineConfig()
    _, base_trace = execute(forced(small_plan, join=HASH_JOIN), small_tables,
                            BASELINE, Thresholds(), clock, seed=8, config=roomy)
    base_join = next(r for r in base_trace.records if r.kind == "join")
    # budget below the held working set at the join, hard cap far above
    tight = EngineConfig(memory_budget_bytes=1200, hard_memory_factor=1000.0)
    _, spill_trace = execute(forced(small_plan, join=HASH_JOIN), small_tables,
                             BASELINE, Thresholds(), clock, seed=8, config=tight)
    spill_join = next(r for r in spill_trace.records if r.kind == "join")
    assert spill_join.spilled
    assert spill_join.charged_cost == pytest.approx(3.0 * base_join.charged_cost)


def int64_copies(tables: dict) -> dict:
    return {name: dataclasses.replace(t, columns={col: values.astype(np.int64)
                                                  for col, values in t.columns.items()})
            for name, t in tables.items()}


@pytest.mark.parametrize("budget,factor,outcome", [
    (1200, 1000.0, "spill"), (64, 1.0, "fail"), (64 * 1024 * 1024, 4.0, "none")])
@pytest.mark.parametrize("join", [HASH_JOIN, NESTED_LOOP])
def test_memory_charged_at_int64_width(small_plan, small_tables, budget, factor, outcome,
                                       join):
    # the small tables are int8; charged at their own width they would not
    # spill at 1200 bytes (a scan of 50 rows by 2 columns holds 100 bytes)
    assert {col.dtype for t in small_tables.values() for col in t.columns.values()} == \
        {np.dtype(np.int8)}
    config = EngineConfig(memory_budget_bytes=budget, hard_memory_factor=factor)
    narrow, wide = (execute(forced(small_plan, join=join), tables, BASELINE, Thresholds(),
                            SimulatedClock(sigma=0.05), seed=8, config=config)
                    for tables in (small_tables, int64_copies(small_tables)))
    assert narrow == wide
    trace = narrow[1]
    assert (trace.failed, any(r.spilled for r in trace.records)) == \
        (outcome == "fail", outcome == "spill")


def hash_join_peak_bytes(small_plan, small_tables) -> int:
    """The largest working set of the small plan under a hash join, at its
    join: the left scan (k, v), the right scan (k), the hash build's copy
    of the right side and the carried v of each output row."""
    _, trace = execute(forced(small_plan, join=HASH_JOIN), small_tables, BASELINE,
                       Thresholds(), SimulatedClock(sigma=0.0), seed=8)
    n_join = trace.records[-1].n_obs   # the aggregate's input
    return engine.VALUE_BYTES * (2 * 50 + 50 + 50 + n_join)


@pytest.mark.parametrize("budget_offset,spilled", [(0, False), (-1, True)])
def test_working_set_at_the_budget_does_not_spill(small_plan, small_tables, budget_offset,
                                                  spilled):
    peak = hash_join_peak_bytes(small_plan, small_tables)
    config = EngineConfig(memory_budget_bytes=peak + budget_offset, hard_memory_factor=1000.0)
    _, trace = execute(forced(small_plan, join=HASH_JOIN), small_tables, BASELINE,
                       Thresholds(), SimulatedClock(sigma=0.0), seed=8, config=config)
    assert [r.spilled for r in trace.records if r.kind == "join"] == [spilled]


@pytest.mark.parametrize("cap_offset,failed", [(0, False), (-2, True)])
def test_working_set_at_the_hard_cap_does_not_fail(small_plan, small_tables, cap_offset,
                                                   failed):
    peak = hash_join_peak_bytes(small_plan, small_tables)
    # a budget of half the cap: the join spills either way
    config = EngineConfig(memory_budget_bytes=(peak + cap_offset) // 2, hard_memory_factor=2.0)
    _, trace = execute(forced(small_plan, join=HASH_JOIN), small_tables, BASELINE,
                       Thresholds(), SimulatedClock(sigma=0.0), seed=8, config=config)
    assert (trace.failed, trace.failure.startswith("join: ")) == (failed, failed)


def test_concurrent_queries_match_sequential(small_plan, small_tables, default_model):
    from concurrent.futures import ThreadPoolExecutor

    clock = SimulatedClock(sigma=0.05)
    thr = static_thresholds(default_model)

    def run(seed: int):
        result, trace = execute(small_plan, small_tables, ORCHESTRATED, thr, clock, seed)
        return result.value, trace.total_latency

    sequential = [run(seed) for seed in range(16)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(run, range(16)))
    assert concurrent == sequential


def test_memory_exhaustion_fails_query(small_plan, small_tables):
    clock = SimulatedClock(sigma=0.0)
    config = EngineConfig(memory_budget_bytes=64, hard_memory_factor=1.0)
    result, trace = execute(small_plan, small_tables, BASELINE, Thresholds(), clock,
                            seed=8, config=config)
    assert result is None
    assert trace.failed
    assert "hard cap" in trace.failure


def test_disabled_thresholds_match_baseline_exactly(drift_setup):
    p, _, drifted, dim, _ = drift_setup
    clock = SimulatedClock(sigma=0.05)
    _, t_base = execute(p, {"fact": drifted, "dim": dim}, BASELINE,
                        Thresholds(), clock, seed=12)
    _, t_off = execute(p, {"fact": drifted, "dim": dim}, ORCHESTRATED,
                       disabled_thresholds(), clock, seed=12)
    assert t_base.total_latency == t_off.total_latency
    assert [r.charged_cost for r in t_base.records] == [r.charged_cost for r in t_off.records]
    assert [r.executed_variant for r in t_base.records] == \
        [r.executed_variant for r in t_off.records]


def test_unknown_mode_rejected(small_plan, small_tables):
    with pytest.raises(ValidationError, match="unknown mode 'bogus'"):
        execute(small_plan, small_tables, "bogus", Thresholds(), SimulatedClock(), seed=1)


def test_uncalibrated_thresholds_rejected_for_hooked_modes(small_plan, small_tables):
    clock = SimulatedClock(sigma=0.0)
    with pytest.raises(ValidationError, match="requires calibrated thresholds"):
        execute(small_plan, small_tables, ORCHESTRATED, Thresholds(), clock, seed=1)
    with pytest.raises(ValidationError, match="requires calibrated thresholds"):
        execute(small_plan, small_tables, INDEPENDENT_GATES, Thresholds(), clock, seed=1)


def test_missing_table_rejected(small_plan, small_tables):
    clock = SimulatedClock(sigma=0.0)
    with pytest.raises(ValidationError):
        execute(small_plan, {"l": small_tables["l"]}, BASELINE, Thresholds(), clock, seed=1)


@pytest.mark.parametrize("column", ["w", "z"], ids=["dim_only", "neither"])
def test_sum_over_a_column_the_fact_table_lacks_rejected(default_model, column):
    # a sum reads a fact (left) column; the dim side is read for its key alone
    tables = {"l": table_from_arrays("l", k=np.arange(4)),
              "r": table_from_arrays("r", k=np.arange(4), w=np.arange(4) * 10)}
    stats = {name: capture_statistics(t) for name, t in tables.items()}
    p = plan(Query("l", "r", "k", "k", AggSpec("sum", column)), stats, default_model)
    with pytest.raises(ValidationError, match=f"{column!r} is not a column of fact table 'l'"):
        execute(p, tables, BASELINE, Thresholds(), SimulatedClock(sigma=0.0), seed=1)


def test_nested_loop_kernel_matches_hash_kernel_bits(default_model):
    # run both join kernels on the same inputs through forced plans
    fact = generate_table(TableSpec("fact", 800, (
        ColumnSpec("fk", 0, 49), ColumnSpec("v", 0, 99))), seed=91)
    dim = generate_table(TableSpec("dim", 700, (ColumnSpec("pk", 0, 49),)), seed=92)
    stats = {"fact": capture_statistics(fact), "dim": capture_statistics(dim)}
    p = plan(Query("fact", "dim", "fk", "pk", AggSpec("sum", "v")), stats, default_model)
    clock = SimulatedClock(sigma=0.0)
    tables = {"fact": fact, "dim": dim}
    r_nl, _ = execute(forced(p, join=NESTED_LOOP), tables, BASELINE, Thresholds(),
                      clock, seed=1)
    r_hj, _ = execute(forced(p, join=HASH_JOIN), tables, BASELINE, Thresholds(),
                      clock, seed=1)
    assert r_nl.value == r_hj.value
    assert r_nl.value == brute_force_join_sum(fact.column("fk"), dim.column("pk"),
                                              fact.column("v"))


def brute_force_join_pairs(probe_key, build_key) -> tuple[np.ndarray, np.ndarray]:
    """(probe row, build row) of every matching pair, probe-major and
    build-ascending, from a plain double loop."""
    pairs = [(i, j) for i, p in enumerate(probe_key.tolist())
             for j, b in enumerate(build_key.tolist()) if p == b]
    return (np.array([i for i, _ in pairs], dtype=np.int64),
            np.array([j for _, j in pairs], dtype=np.int64))


def wrapped_int64(value: int) -> int:
    """A Python integer reduced to int64 the way int64 addition wraps."""
    return (value + 2**63) % 2**64 - 2**63


def check_join_kernels(probe_key, build_key, pair_cap, block=16, carried=None,
                       build_carried=None) -> None:
    """Hash kernel, the kernel join_kernel dispatches a nested-loop variant to,
    and a prebuilt hash build all give the brute-force pairs' row count and,
    per carried column, how many pairs each of its rows is in; the weighted
    sum is the column's int64 sum over the pairs."""
    n_probe, n_build = probe_key.size, build_key.size
    if carried is None:
        carried = {"v": np.arange(n_probe, dtype=np.int64) * 7 + 3,
                   "u": np.arange(n_probe, dtype=np.int64)[::-1].copy()}
    if build_carried is None:
        build_carried = {"w": np.arange(n_build, dtype=np.int64) * 11 + 1000}
    p_idx, b_idx = brute_force_join_pairs(probe_key, build_key)
    pair_columns = {**{name: col[p_idx] for name, col in carried.items()},
                    **{name: col[b_idx] for name, col in build_carried.items()}}
    expected = {name: wrapped_int64(sum(col.tolist())) for name, col in pair_columns.items()}
    # the sum of the materialized join output that the aggregate used to take
    assert expected == {name: int(col.sum(dtype=np.int64))
                        for name, col in pair_columns.items()}
    kernels = {
        HASH_JOIN: lambda: _hash_join(probe_key, build_key, carried, build_carried),
        NESTED_LOOP: lambda: _nested_loop_join(probe_key, build_key, carried,
                                               build_carried, block=block),
    }
    kernel = join_kernel(NESTED_LOOP, n_probe * n_build, pair_cap)
    assert kernel == (HASH_JOIN if n_probe * n_build > pair_cap else NESTED_LOOP)
    outputs = {"hash": kernels[HASH_JOIN](), "nested_loop": kernels[kernel](),
               "prebuilt": _hash_join(probe_key, build_key, carried, build_carried,
                                      _hash_build(build_key))}
    multiplicity = {**dict.fromkeys(carried, np.bincount(p_idx, minlength=n_probe)),
                    **dict.fromkeys(build_carried, np.bincount(b_idx, minlength=n_build))}
    columns = {**carried, **build_carried}
    for label, (rows, weights) in outputs.items():
        assert type(rows) is int and rows == p_idx.size, label
        assert weights.keys() == multiplicity.keys(), label
        for name, weight in weights.items():
            assert weight.dtype == np.int64, label
            np.testing.assert_array_equal(weight, multiplicity[name], err_msg=label)
        sums = {name: _output_sum(col, weights[name]) for name, col in columns.items()}
        assert sums == expected, label
        assert all(type(value) is int for value in sums.values()), label


@pytest.mark.parametrize("n_probe,n_build", [(0, 40), (40, 0), (37, 23), (150, 90)])
@pytest.mark.parametrize("pair_cap", [10**9, 0], ids=["literal", "above_cap"])
def test_join_kernels_match_brute_force_pairs(n_probe, n_build, pair_cap):
    # keys repeat on both sides; probe keys 0..4 have no build match; 16
    # divides neither probe length
    probe_key = stream_integers(17 + n_probe, 0, n_probe, 0, 14)
    build_key = stream_integers(17 + n_probe, n_probe, n_build, 5, 19)
    check_join_kernels(probe_key, build_key, pair_cap)


def straddling(seed: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Probe and build keys drawn from both limits of dtype and one step past
    each, with -1 and 0: every key fits only the next wider type."""
    info = np.iinfo(dtype)
    keys = np.array([info.min - 1, info.min, -1, 0, info.max, info.max + 1], dtype=np.int64)
    return keys[stream_integers(seed, 0, 40, 0, 5)], keys[stream_integers(seed, 40, 30, 0, 5)]


# (probe keys, build keys) per case, drawn from the stream of a seed: the
# probe keys from position 0 and the build keys after them.  The hash kernel
# probes a dense build key (span <= probe + build rows) by direct address, a
# sparse one by searching the distinct probe keys; the nested loop compares
# the keys as given.
JOIN_KEY_CASES = {
    "negative": lambda seed: (stream_integers(seed, 0, 70, -30, -10),
                              stream_integers(seed, 70, 40, -25, -12)),
    "probe_outside_build": lambda seed: (
        np.concatenate([stream_integers(seed, 0, 60, -50, 200),
                        np.array([-2**63, 2**63 - 1, 9, 21])]),
        stream_integers(seed, 60, 30, 10, 20)),
    "single_key_build": lambda seed: (stream_integers(seed, 0, 50, 3, 7),
                                      np.full(6, 5, dtype=np.int64)),
    "single_row_build": lambda seed: (stream_integers(seed, 0, 50, -2, 2),
                                      np.array([-1], dtype=np.int64)),
    "sparse_build": lambda seed: (
        np.concatenate([stream_integers(seed, 0, 40, 0, 10**6),
                        np.array([0, 10**6, 77, 10**9])]),
        np.array([10**6, 77, 0, 77, 5 * 10**5, 10**6, 0], dtype=np.int64)),
    "dense_int8_limits": lambda seed: (stream_integers(seed, 0, 40, -130, -126),
                                       stream_integers(seed, 40, 300, -129, 127)),
    "uint8_limits": lambda seed: (stream_integers(seed, 0, 40, 250, 260),
                                  stream_integers(seed, 40, 30, 254, 257)),
    "int8_limits": lambda seed: straddling(seed, np.int8),
    "int16_limits": lambda seed: straddling(seed, np.int16),
    "int32_limits": lambda seed: straddling(seed, np.int32),
    "int64_limits": lambda seed: (
        np.array([-2**63, -1, 0, 2**63 - 1, 2**62, -2**63, 2**63 - 1], dtype=np.int64),
        np.array([2**63 - 1, -2**63, 0, 2**62 + 1, -2**63], dtype=np.int64)),
    # dense build keys at either end of int64; the probe keys at the other
    # end wrap around when offset from the build key's minimum
    "dense_int64_min": lambda seed: (
        np.concatenate([-2**63 + stream_integers(seed, 0, 40, 0, 8),
                        np.array([2**63 - 1, 2**63 - 6, -1, 0], dtype=np.int64)]),
        -2**63 + stream_integers(seed, 40, 20, 0, 5)),
    "dense_int64_max": lambda seed: (
        np.concatenate([2**63 - 1 - stream_integers(seed, 0, 40, 0, 8),
                        np.array([-2**63, -2**63 + 1, -2**63 + 7, 0], dtype=np.int64)]),
        2**63 - 1 - stream_integers(seed, 40, 20, 0, 5)),
}


@pytest.mark.parametrize("case", sorted(JOIN_KEY_CASES))
@pytest.mark.parametrize("pair_cap", [10**9, 0], ids=["literal", "above_cap"])
def test_join_kernels_match_brute_force_pairs_key_shapes(case, pair_cap):
    probe_key, build_key = JOIN_KEY_CASES[case](fnv1a64(case))
    check_join_kernels(probe_key, build_key, pair_cap, block=7)


@pytest.mark.parametrize("pair_cap", [10**9, 0], ids=["literal", "above_cap"])
def test_join_kernel_sums_wrap_like_int64(pair_cap):
    # values near +-2**62 matched several times each: the true sums leave the
    # int64 range, and the kernels must wrap them as an int64 sum of the
    # materialized output does
    probe_key = stream_integers(4062, 0, 60, 0, 3)
    build_key = stream_integers(4062, 60, 25, 0, 3)
    carried = {"v": 2**62 + stream_integers(4062, 85, 60, 0, 1000),
               "neg": -(2**62) - stream_integers(4062, 145, 60, 0, 1000)}
    build_carried = {"w": 2**62 - 1 - stream_integers(4062, 205, 25, 0, 1000)}
    p_idx, b_idx = brute_force_join_pairs(probe_key, build_key)
    for col, idx in ((carried["v"], p_idx), (carried["neg"], p_idx),
                     (build_carried["w"], b_idx)):
        assert not -2**63 <= sum(col[idx].tolist()) < 2**63
    check_join_kernels(probe_key, build_key, pair_cap, block=7, carried=carried,
                       build_carried=build_carried)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
@pytest.mark.parametrize("build", ["dense", "sparse"])
@pytest.mark.parametrize("pair_cap", [10**9, 0], ids=["literal", "above_cap"])
def test_join_kernels_take_narrow_columns(dtype, build, pair_cap):
    # keys at both limits of the type, so key offsets leave its range, and
    # carried values at its maximum, so the sums do; a dense build key sits
    # at the type's maximum and the probe keys reach its minimum
    info = np.iinfo(dtype)
    seed = fnv1a64(f"{np.dtype(dtype)}/{build}")
    keys = np.array([info.min, info.min + 1, -1, 0, info.max - 1, info.max], dtype=dtype)
    probe_key = keys[stream_integers(seed, 0, 40, 0, 5)]
    build_key = (stream_integers(seed, 40, 30, info.max - 3, info.max, dtype) if build == "dense"
                 else keys[stream_integers(seed, 40, 30, 1, 5)])
    carried = {"v": np.full(40, info.max, dtype=dtype),
               "u": stream_integers(seed, 70, 40, info.min, info.max, dtype)}
    build_carried = {"w": stream_integers(seed, 110, 30, info.min, info.max, dtype)}
    check_join_kernels(probe_key, build_key, pair_cap, block=7, carried=carried,
                       build_carried=build_carried)

    def wide(cols: dict) -> dict:
        return {name: col.astype(np.int64) for name, col in cols.items()}

    for kernel in (_hash_join, lambda *args: _nested_loop_join(*args, block=7)):
        rows, weights = kernel(probe_key, build_key, carried, build_carried)
        wide_rows, wide_weights = kernel(probe_key.astype(np.int64), build_key.astype(np.int64),
                                         wide(carried), wide(build_carried))
        assert rows == wide_rows
        for name, col in {**carried, **build_carried}.items():
            np.testing.assert_array_equal(weights[name], wide_weights[name])
            assert _output_sum(col, weights[name]) == \
                _output_sum(col.astype(np.int64), wide_weights[name])


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
@pytest.mark.parametrize("density", ["none", "partial", "all"])
def test_filter_gathers_the_rows_a_boolean_mask_selects(dtype, density):
    info = np.iinfo(dtype)
    seed = fnv1a64(f"filter/{np.dtype(dtype)}")
    a = stream_integers(seed, 0, 1000, int(info.min), int(info.max), dtype=np.dtype(dtype))
    cols = {"a": a, "fk": stream_integers(seed, 1000, a.size, 0, 999, dtype=np.dtype(np.int16)),
            "v": stream_integers(seed, 2000, a.size, -2**40, 2**40)}
    ordered = np.sort(a)
    pred = {"none": Predicate("a", ">", int(ordered[-1])),
            "partial": Predicate("a", ">=", int(ordered[a.size // 3])),
            "all": Predicate("a", ">=", int(ordered[0]))}[density]
    got = engine._filter(cols, pred)
    if density == "all":
        # the very input dict: the table-set store keys joins by array identity
        assert got is cols
        return
    mask = pred.mask(a)
    assert 0 <= mask.sum() < a.size and (density == "none") == (mask.sum() == 0)
    assert list(got) == list(cols)
    for name, col in cols.items():
        assert got[name].dtype == col.dtype
        assert np.array_equal(got[name], col[mask])


def test_filter_of_an_empty_table_returns_its_input():
    cols = {"a": np.empty(0, dtype=np.int8), "v": np.empty(0, dtype=np.int16)}
    assert engine._filter(cols, Predicate("a", ">=", 0)) is cols


@pytest.mark.parametrize("block", [1, 7, 255])
def test_nested_loop_counts_past_a_uint8_block(block):
    # the nested loop adds each block's matches per probe row as uint8.  At
    # block 255 the first block is 255 rows of key 1, the most a uint8 count
    # holds, and key 2's 600 rows span three blocks, so its probe rows match
    # more often than one block's count can say
    build_key = np.concatenate([np.full(255, 1), np.full(600, 2),
                                np.arange(3, 40)]).astype(np.int64)
    probe_key = np.array([1, 2, 0, 2, 1, 5, 39, 40, 1], dtype=np.int64)
    check_join_kernels(probe_key, build_key, 10**9, block=block)


@pytest.mark.parametrize("block", [0, -1, 256, 1024])
def test_nested_loop_block_outside_uint8_count_rejected(block):
    key = np.zeros(300, dtype=np.int64)
    with pytest.raises(ValidationError, match="block"):
        _nested_loop_join(key[:3], key, {}, {}, block)


@pytest.mark.parametrize("cap_offset,kernel", [(-1, HASH_JOIN), (0, NESTED_LOOP)],
                         ids=["above_cap", "at_cap"])
def test_nested_loop_variant_records_kernel_that_ran(small_plan, small_tables, cap_offset,
                                                     kernel):
    pairs = small_tables["l"].row_count * small_tables["r"].row_count
    config = EngineConfig(nl_pair_cap=pairs + cap_offset)
    result, trace = execute(forced(small_plan, join=NESTED_LOOP), small_tables, BASELINE,
                            Thresholds(), SimulatedClock(sigma=0.0), seed=1, config=config)
    join = next(r for r in trace.records if r.kind == "join")
    assert join.executed_variant == NESTED_LOOP
    assert join.kernel == kernel
    assert {r.kernel for r in trace.records if r.kind != "join"} == {CPU}
    assert result.value == brute_force_join_sum(small_tables["l"].column("k"),
                                                small_tables["r"].column("k"),
                                                small_tables["l"].column("v"))
