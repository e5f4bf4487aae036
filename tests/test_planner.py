from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from latebind.datagen import ColumnSpec, TableSpec, generate_table
from latebind.errors import ValidationError
from latebind.planner import (ACCELERATOR, AGGREGATE, AcceleratorCost, AggSpec, CPU,
                              CostModel, FILTER, HASH_JOIN, JOIN, JoinCost,
                              NESTED_LOOP, PlanNode, Query, SCAN, VARIANTS, cost,
                              model_break_even, plan)
from latebind.rng import stream_unit
from latebind.stats import Predicate, capture_statistics
from conftest import plan_nodes, table_from_arrays


def make_stats(left_rows=2000, right_rows=2000, seed=50):
    left = generate_table(TableSpec("fact", left_rows, (
        ColumnSpec("fk", 0, 1999), ColumnSpec("v", 0, 999), ColumnSpec("a", 0, 99))), seed)
    right = generate_table(TableSpec("dim", right_rows, (ColumnSpec("pk", 0, 1999),)), seed + 1)
    return {"fact": capture_statistics(left), "dim": capture_statistics(right)}


def variants(node: PlanNode) -> tuple[str, ...]:
    """The variants a node's kind has (planner.VARIANTS); none for a scan."""
    return VARIANTS.get(node.kind, ())


def late_bind(node: PlanNode) -> bool:
    """Whether the node is a late-bind candidate: its kind has variants."""
    return node.kind in VARIANTS


def default_query(**kwargs) -> Query:
    base = dict(left_table="fact", right_table="dim", left_key="fk", right_key="pk",
                aggregate=AggSpec("sum", "v"))
    base.update(kwargs)
    return Query(**base)


# ── cost() ─────────────────────────────────────────────────────────────────


def test_cost_cpu_filter_linear(default_model):
    model = dataclasses.replace(default_model, cpu={**default_model.cpu, FILTER: 1.0})
    assert cost(FILTER, CPU, (5000.0,), model) == 5000.0


def test_cost_accelerator_at_break_even(default_model):
    # setup 8000 + 0.2/item at N=10000 equals the cpu line at a=1.0
    assert cost(FILTER, ACCELERATOR, (10000.0,), default_model) == pytest.approx(10000.0)
    assert cost(FILTER, CPU, (10000.0,), default_model) == pytest.approx(10000.0)


def test_cost_nested_loop_quadratic():
    model = CostModel(cpu=CostModel.default().cpu, accel=CostModel.default().accel,
                      join=JoinCost(nl_a=0.01, hash_build=1.0, hash_probe=1.0, hash_b=0.0))
    assert cost(JOIN, NESTED_LOOP, (100.0, 100.0), model) == pytest.approx(100.0)


def test_cost_zero_input_zero_fixed_costs():
    model = CostModel(
        cpu={SCAN: 1.0, FILTER: 1.0, AGGREGATE: 1.0},
        accel={FILTER: AcceleratorCost(0.0, 0.2), AGGREGATE: AcceleratorCost(0.0, 0.2)},
        join=JoinCost(0.5, 1.0, 1.0, 0.0))
    assert cost(FILTER, CPU, (0.0,), model) == 0.0
    assert cost(FILTER, ACCELERATOR, (0.0,), model) == 0.0
    assert cost(JOIN, NESTED_LOOP, (0.0, 0.0), model) == 0.0
    assert cost(JOIN, HASH_JOIN, (0.0, 0.0), model) == 0.0


def test_cost_negative_cardinality_rejected(default_model):
    with pytest.raises(ValidationError):
        cost(FILTER, CPU, (-1.0,), default_model)


def test_negative_coefficients_rejected(default_model):
    with pytest.raises(ValidationError):
        dataclasses.replace(default_model, cpu={**default_model.cpu, FILTER: -0.1})
    with pytest.raises(ValidationError):
        dataclasses.replace(default_model, accel={FILTER: AcceleratorCost(-1.0, 0.0)})
    with pytest.raises(ValidationError):
        dataclasses.replace(default_model, join=JoinCost(-0.1, 0, 0, 0))


def test_infinite_coefficient_rejected(default_model):
    with pytest.raises(ValidationError, match="finite"):
        dataclasses.replace(default_model, cpu={**default_model.cpu, FILTER: math.inf})


def test_model_break_even_analytic(default_model):
    assert model_break_even(default_model, FILTER) == pytest.approx(10000.0)
    flat = dataclasses.replace(
        default_model, accel={FILTER: AcceleratorCost(0.0, 1.0),
                              AGGREGATE: AcceleratorCost(0.0, 1.0)})
    assert model_break_even(flat, FILTER) is None  # equal slopes never cross


def test_model_break_even_without_setup_cost_is_none(default_model):
    # the lines meet at n = 0, and a threshold takes no N* of 0
    free = dataclasses.replace(
        default_model, accel={**default_model.accel, FILTER: AcceleratorCost(0.0, 0.2)})
    assert model_break_even(free, FILTER) is None


# ── plan() ─────────────────────────────────────────────────────────────────


def test_query_with_a_right_filter_rejected():
    # the dim (right) table is scanned whole; only the fact side takes a filter
    with pytest.raises(ValidationError, match="only the fact"):
        default_query(right_filter=Predicate("pk", "<", 10))


def test_plan_chooses_argmin_join(default_model):
    stats = make_stats()
    p = plan(default_query(), stats, default_model)
    probe = p.join.est_input
    build = p.join.est_build
    nl = cost(JOIN, NESTED_LOOP, (probe, build), default_model)
    hj = cost(JOIN, HASH_JOIN, (probe, build), default_model)
    assert p.join.chosen == (NESTED_LOOP if nl < hj else HASH_JOIN)
    assert nl < hj  # defaults put the small-estimate plan on the quadratic side


def test_plan_tiny_inputs_choose_nested_loop(default_model):
    # 10x10: quadratic term costs 0.002*100 against the hash join's fixed 6000
    stats = make_stats(left_rows=10, right_rows=10)
    p = plan(default_query(), stats, default_model)
    assert p.join.chosen == NESTED_LOOP


def test_plan_device_cpu_below_break_even(default_model):
    stats = make_stats()
    p = plan(default_query(left_filter=Predicate("a", "<", 50)), stats, default_model)
    n_est = p.left_filter.est_input
    assert cost(FILTER, CPU, (n_est,), default_model) < \
        cost(FILTER, ACCELERATOR, (n_est,), default_model)
    assert p.left_filter.chosen == CPU


def test_plan_tie_breaks_lexicographically():
    # join cost tie at the estimates: hash_join sorts before nested_loop
    stats = make_stats(left_rows=100, right_rows=100)
    probe = stats["fact"].row_count
    build = stats["dim"].row_count
    tie = JoinCost(nl_a=1.0, hash_build=0.0, hash_probe=0.0, hash_b=float(probe * build))
    model = CostModel(cpu=CostModel.default().cpu, accel=CostModel.default().accel, join=tie)
    p = plan(default_query(), stats, model)
    assert cost(JOIN, NESTED_LOOP, (float(probe), float(build)), model) == \
        cost(JOIN, HASH_JOIN, (float(probe), float(build)), model)
    assert p.join.chosen == HASH_JOIN


def test_plan_argmin_property_random_models():
    stats = make_stats()
    for trial in range(25):
        coeffs = stream_unit(77, 8 * trial, 8)
        model = CostModel(
            cpu={SCAN: coeffs[0], FILTER: coeffs[1] * 2, AGGREGATE: coeffs[3] * 2},
            accel={FILTER: AcceleratorCost(coeffs[4] * 10000, coeffs[5] * 2),
                   AGGREGATE: AcceleratorCost(coeffs[6] * 10000, coeffs[7] * 2)},
            join=JoinCost(coeffs[0] * 0.01, 1.0, 1.0, coeffs[1] * 10000))
        p = plan(default_query(left_filter=Predicate("a", ">=", 10)), stats, model)
        for node in plan_nodes(p):
            if not late_bind(node):
                continue
            cards = ((node.est_input, node.est_build)
                     if node.kind == JOIN else (node.est_input,))
            chosen_cost = cost(node.kind, node.chosen, cards, model)
            for variant in variants(node):
                assert chosen_cost <= cost(node.kind, variant, cards, model) + 1e-12


def test_annotation_completeness(default_model):
    stats = make_stats()
    p = plan(default_query(left_filter=Predicate("a", "<", 30)), stats, default_model)
    late = {n.node_id: n for n in plan_nodes(p) if late_bind(n)}
    assert set(late) == {"filter_left", "join", "aggregate"}
    assert set(variants(late["join"])) == {HASH_JOIN, NESTED_LOOP}
    assert set(variants(late["filter_left"])) == {CPU, ACCELERATOR}
    assert set(variants(late["aggregate"])) == {CPU, ACCELERATOR}
    assert not late_bind(p.left_scan) and not late_bind(p.right_scan)
    for node in late.values():
        assert node.chosen in variants(node)
        assert len(variants(node)) >= 2


def test_plan_deterministic(default_model):
    stats = make_stats()
    q = default_query(left_filter=Predicate("a", ">", 10))
    p1 = plan(q, stats, default_model)
    p2 = plan(q, stats, default_model)
    assert p1 == p2


def test_plan_missing_stats_rejected(default_model):
    stats = make_stats()
    del stats["dim"]
    with pytest.raises(ValidationError):
        plan(default_query(), stats, default_model)


def test_join_output_estimate_formula(default_model):
    left = table_from_arrays("fact", fk=np.arange(1000), v=np.arange(1000))
    right = table_from_arrays("dim", pk=np.arange(500))
    stats = {"fact": capture_statistics(left), "dim": capture_statistics(right)}
    p = plan(default_query(), stats, default_model)
    # ndv(fk)=1000, ndv(pk)=500: |join| = 1000*500/max(1000,500), the
    # aggregate's input
    assert p.aggregate.est_input == pytest.approx(1000 * 500 / 1000)
