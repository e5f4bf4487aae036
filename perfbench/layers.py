"""The traced run: which latebind attributes get spans, and the per-layer
metrics computed from those spans and from the returned ExecutionTraces.

Every wrapped attribute is looked up by its callers at call time (module
globals, ``bench.<name>`` from the CLI, class attributes), so replacing it
from outside puts a span around every call without touching the program.
"""

from __future__ import annotations

import contextlib
import math
from collections import defaultdict
from dataclasses import dataclass

from latebind import bench, engine, planner, policy
from latebind.clock import SimulatedClock
from latebind.datagen import Table
from latebind.policy import BASELINE, MODES
from latebind.stats import Predicate

from spans import Recorder, Span

EXECUTE = "engine.execute"
NESTED_LOOP = "engine.nested_loop"
HASH_JOIN = "engine.hash_join"
DECIDING_MODES = tuple(m for m in MODES if m != BASELINE)


@dataclass
class Execution:
    """One bench.execute call: what the oracle and decision counts need."""

    query: object
    tables: dict
    mode: str
    seed: int
    result: object
    trace: object


def _execution(args, out, _pre) -> Execution:
    plan, tables, mode, _thresholds, _clock, seed = args[:6]
    return Execution(plan.query, tables, mode, seed, out[0], out[1])


@contextlib.contextmanager
def captured_executions():
    """Keep each bench.execute call's query, tables and result, untimed, so
    that the untraced run can be checked against the oracle too."""
    runs: list[Execution] = []
    original = bench.execute

    def execute(*args, **kwargs):
        out = original(*args, **kwargs)
        runs.append(_execution(args, out, None))
        return out

    bench.execute = execute
    try:
        yield runs
    finally:
        bench.execute = original


def _rows(_args, table, _pre) -> int:
    return table.row_count


def install(rec: Recorder) -> None:
    def join_input_key(args):
        # A hash join opened by the nested-loop kernel is its fallback above
        # nl_pair_cap: same inputs, already keyed by the enclosing call.
        if rec.caller_name() != EXECUTE:
            return None
        probe, build, carried, build_carried = args[:4]
        return rec.digest([probe, build, *carried.values(), *build_carried.values()])

    def join_sizes(args, out, key):
        return args[0].size, args[1].size, out[0], key

    rec.wrap(bench, "execute", EXECUTE, observe=_execution, new_execution=True)
    rec.wrap(engine, "_nested_loop_join", NESTED_LOOP, observe=join_sizes,
             before=join_input_key)
    rec.wrap(engine, "_hash_join", HASH_JOIN, observe=join_sizes, before=join_input_key)
    rec.wrap(bench, "generate_table", "datagen.generate_table", observe=_rows)
    rec.wrap(bench, "apply_drift", "datagen.apply_drift", observe=_rows)
    for owner, attr, name in (
            (bench, "capture_statistics", "stats.capture_statistics"),
            (bench, "_roundtrip", "stats.roundtrip"),
            (bench, "build_plan", "planner.plan"),
            (bench, "calibrate_break_evens", "accel.calibrate_break_evens"),
            (bench, "scenario_queries", "bench.scenario_queries"),
            (bench, "report_emit", "bench.report_emit"),
            (engine, "decision_hook", "engine.decision_hook"),
            (engine, "observe", "engine.observe"),
            (engine, "model_cost", "engine.model_cost"),
            (engine, "predicted_cost", "engine.predicted_cost"),
            (planner, "cost", "planner.cost"),
            (policy, "decide", "policy.decide"),
            (SimulatedClock, "noise", "clock.noise"),
            (Predicate, "mask", "stats.predicate_mask"),
            (Table, "column", "datagen.table_column")):
        rec.wrap(owner, attr, name)


def executions(spans: list[Span]) -> list[Execution]:
    return [s.payload for s in spans if s.name == EXECUTE]


def nearest_rank(values: list[float], p: float) -> float:
    """Nearest-rank percentile, as the reports compute it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, each as (value, unit).

    Times are inclusive span times without the recorder's digests, except
    engine.self.s (execute minus its child spans) and engine.nested_loop.s
    (self time: its fallback hash join is counted under engine.hash_join)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def seconds(name: str) -> float:
        return sum(s.net_ns for s in by_name[name]) / 1e9

    def calls(name: str) -> int:
        return len(by_name[name])

    def called_by(span: Span, name: str) -> bool:
        return span.parent >= 0 and spans[span.parent].name == name

    m: dict[str, tuple[float, str]] = {}
    fallbacks = {s.parent for s in by_name[HASH_JOIN] if called_by(s, NESTED_LOOP)}
    literal = [s.payload for i, s in enumerate(spans)
               if s.name == NESTED_LOOP and i not in fallbacks]
    pairs = sum(p * b for p, b, _, _ in literal)
    matches = sum(out for _, _, out, _ in literal)
    m["engine.nested_loop.s"] = (sum(s.self_ns for s in by_name[NESTED_LOOP]) / 1e9, "s")
    m["engine.nested_loop.calls"] = (calls(NESTED_LOOP), "count")
    m["engine.nested_loop.pairs"] = (pairs, "count")
    m["engine.nested_loop.matches"] = (matches, "count")
    m["engine.nested_loop.useful_share"] = (_share(matches, pairs), "share")
    m["engine.nl_fallback.calls"] = (len(fallbacks), "count")
    hashed = [s.payload for s in by_name[HASH_JOIN]]
    m["engine.hash_join.s"] = (seconds(HASH_JOIN), "s")
    m["engine.hash_join.calls"] = (len(hashed), "count")
    m["engine.hash_join.probe_rows"] = (sum(p for p, _, _, _ in hashed), "count")
    m["engine.hash_join.build_rows"] = (sum(b for _, b, _, _ in hashed), "count")
    m["engine.hash_join.out_rows"] = (sum(o for _, _, o, _ in hashed), "count")

    # join calls made by execute itself, in run order (fallbacks excluded)
    joins = [(spans[s.parent].payload.seed, s.payload[3]) for s in spans
             if s.name in (NESTED_LOOP, HASH_JOIN) and called_by(s, EXECUTE)]
    seen_any: set[str] = set()
    seen_query: set[tuple[int, str]] = set()
    again_query = again_any = 0
    for query_seed, key in joins:
        again_query += (query_seed, key) in seen_query
        again_any += key in seen_any
        seen_query.add((query_seed, key))
        seen_any.add(key)
    m["engine.join_repeat_in_query_share"] = (_share(again_query, len(joins)), "share")
    m["engine.join_repeat_any_share"] = (_share(again_any, len(joins)), "share")

    m["datagen.generate_table.s"] = (seconds("datagen.generate_table"), "s")
    m["datagen.generate_table.calls"] = (calls("datagen.generate_table"), "count")
    m["datagen.apply_drift.s"] = (seconds("datagen.apply_drift"), "s")
    m["datagen.rows_generated"] = (sum(s.payload for s in by_name["datagen.generate_table"])
                                   + sum(s.payload for s in by_name["datagen.apply_drift"]),
                                   "count")
    m["stats.capture_statistics.s"] = (seconds("stats.capture_statistics"), "s")
    m["stats.capture_statistics.calls"] = (calls("stats.capture_statistics"), "count")
    m["stats.roundtrip.s"] = (seconds("stats.roundtrip"), "s")
    m["bench.scenario_queries.s"] = (seconds("bench.scenario_queries"), "s")
    m["planner.plan.s"] = (seconds("planner.plan"), "s")
    m["planner.plan.calls"] = (calls("planner.plan"), "count")
    # engine binds planner.cost under its own name; both are the one cost function
    m["planner.cost.calls"] = (calls("planner.cost") + calls("engine.model_cost"), "count")
    m["accel.calibrate_break_evens.s"] = (seconds("accel.calibrate_break_evens"), "s")
    m["policy.decide.s"] = (seconds("policy.decide"), "s")
    m["policy.decide.calls"] = (calls("policy.decide"), "count")
    m["engine.decision_hook.s"] = (seconds("engine.decision_hook"), "s")
    m["engine.observe.s"] = (seconds("engine.observe"), "s")
    m["clock.noise.s"] = (seconds("clock.noise"), "s")
    m["clock.noise.calls"] = (calls("clock.noise"), "count")
    m["stats.predicate_mask.s"] = (seconds("stats.predicate_mask"), "s")
    m["datagen.table_column.s"] = (seconds("datagen.table_column"), "s")
    m["engine.self.s"] = (sum(s.self_ns for s in by_name[EXECUTE]) / 1e9, "s")
    m["bench.report_emit.s"] = (seconds("bench.report_emit"), "s")
    exec_ms = [s.net_ns / 1e6 for s in by_name[EXECUTE]]
    m["engine.execute.p50_ms"] = (nearest_rank(exec_ms, 50), "ms")
    m["engine.execute.p98_ms"] = (nearest_rank(exec_ms, 98), "ms")
    m["engine.execute.calls"] = (len(exec_ms), "count")
    m.update(decision_counts(executions(spans)))
    return m


def decision_counts(runs: list[Execution]) -> dict[str, tuple[float, str]]:
    """Per-mode switch, re-evaluate, spill and failure counts from the
    ExecutionTraces the engine returned."""
    switches: dict[str, int] = defaultdict(int)
    reevaluations: dict[str, int] = defaultdict(int)
    spills: dict[str, int] = defaultdict(int)
    failures: dict[str, int] = defaultdict(int)
    reevaluated_nodes = reevaluated_changed = 0
    for run in runs:
        failures[run.mode] += run.trace.failed
        for record in run.trace.records:
            switches[run.mode] += sum(d.startswith("switch:") for d in record.decisions)
            reevaluations[run.mode] += record.decisions.count(policy.REEVALUATE)
            spills[run.mode] += record.spilled
            if policy.REEVALUATE in record.decisions:
                reevaluated_nodes += 1
                reevaluated_changed += record.executed_variant != record.planned_variant
    m: dict[str, tuple[float, str]] = {}
    for mode in DECIDING_MODES:
        m[f"policy.switch.count.{mode}"] = (switches[mode], "count")
        m[f"policy.reevaluate.count.{mode}"] = (reevaluations[mode], "count")
    m["policy.reevaluate_changed_share"] = (_share(reevaluated_changed, reevaluated_nodes),
                                            "share")
    for mode in MODES:
        m[f"engine.spills.{mode}"] = (spills[mode], "count")
        m[f"engine.failures.{mode}"] = (failures[mode], "count")
    return m
