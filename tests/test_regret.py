"""Device regret: each filter and aggregate that a default run executed,
priced with planner.cost at TRUE_COST_MODEL (the model that charges it) and
its observed input.  A node's regret is its executed variant's cost less the
cheaper variant's.  The device rules are exact but for the margin: the
orchestrated mode offloads at offload_margin x N*, so it keeps the CPU on
inputs in [N*, offload_margin x N*) and nowhere else, while baseline keeps
the planner's choice and independent gates read the planner's own N*."""

from __future__ import annotations

import pytest

from latebind.bench import BREAK_EVEN, INPUT_SCALE_SHIFT, STALE_STATS
from latebind.engine import TRUE_COST_MODEL
from latebind.planner import (ACCELERATOR, AGGREGATE, CPU, OFFLOADABLE_KINDS, cost,
                              model_break_even)
from latebind.policy import BASELINE, INDEPENDENT_GATES, ORCHESTRATED, Thresholds

# aggregates that run the costlier device variant at seed 1, per mode; no
# filter does in any mode
SEED1_REGRET_AGGREGATES = {
    INPUT_SCALE_SHIFT: {BASELINE: 25, INDEPENDENT_GATES: 0, ORCHESTRATED: 0},
    STALE_STATS: {BASELINE: 97, INDEPENDENT_GATES: 10, ORCHESTRATED: 10},
    BREAK_EVEN: {BASELINE: 30, INDEPENDENT_GATES: 30, ORCHESTRATED: 0},
}


def device_regret(executions, mode: str) -> dict[tuple[int, str], tuple[str, int, float]]:
    """(query seed, node id) -> (kind, observed input, regret) of each filter
    and aggregate that `mode` ran at a positive regret."""
    regret = {}
    for seed, run_mode, nodes in executions:
        if run_mode != mode:
            continue
        for node_id, variant, _, kind, n_obs in nodes:
            if kind not in OFFLOADABLE_KINDS:
                continue
            costs = {v: cost(kind, v, (n_obs,), TRUE_COST_MODEL) for v in (CPU, ACCELERATOR)}
            gap = costs[variant] - min(costs.values())
            if gap > 0:
                regret[seed, node_id] = (kind, n_obs, gap)
    return regret


@pytest.mark.parametrize("name", sorted(SEED1_REGRET_AGGREGATES))
def test_device_regret_at_seed1(default_run, name):
    executions = default_run(name).executions
    regret = {mode: device_regret(executions, mode) for mode in SEED1_REGRET_AGGREGATES[name]}
    assert {mode: len(nodes) for mode, nodes in regret.items()} == SEED1_REGRET_AGGREGATES[name]
    assert {kind for nodes in regret.values() for kind, _, _ in nodes.values()} <= {AGGREGATE}
    # orchestrated offloads at the true N* times the margin, so its regret is
    # the margin's band alone: stale_stats' aggregates at 1.016-1.093 x N*
    margin = Thresholds().offload_margin
    for kind, n_obs, _ in regret[ORCHESTRATED].values():
        n_star = model_break_even(TRUE_COST_MODEL, kind)
        assert n_star <= n_obs < margin * n_star
    if name == BREAK_EVEN:
        # the ablation: gates at the planner's halved N* keep all of
        # baseline's regret, and the orchestrated mode none of it
        assert regret[INDEPENDENT_GATES] == regret[BASELINE]
        assert sum(r for _, _, r in regret[BASELINE].values()) == pytest.approx(67_099.2)
