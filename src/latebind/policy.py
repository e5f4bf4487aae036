"""Unified risk signal and the runtime decision rules.

The risk vector stays componentwise: the executor-side runtime signals
(the observed input and its ratio to the estimate) and accelerator
amortization risk (none for joins) are carried as separate components,
built once per late-bind boundary by ``engine.observe``, and consulted by
an ordered rule table.  Nothing here folds them into one scalar; the
components exist at different points in time and a scalar blend would
erase exactly the information the runtime decision needs.
Unlike the paper's signal, the vector has no optimizer-risk component: the
optimizer enters through its estimates, which the estimate ratio divides by.
Nor does the executor's resource state feed a decision: a memory backoff
from hash join to nested loop only ever raised tail latency under this cost
model, so memory is cost accounting (spills, the hard cap) in the engine.

A kind offloads at an observed input of offload_margin x N*, its break-even
size.  The orchestrated mode runs the rule table against the true device
model's N*, as a noise-free calibration measures them, or a calibrated file's;
the independent-gates mode, against N* read off the planner's own cost model
(no measured calibration).  A thresholds file is the JSON form of Thresholds,
written as errors.json_text and read by errors.load_json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .accel import BreakEven
from .errors import ValidationError
from .planner import (ACCELERATOR, CPU, CostModel, HASH_JOIN, JOIN, NESTED_LOOP,
                      OFFLOADABLE_KINDS, PlanNode, model_break_even)

BASELINE = "baseline"
INDEPENDENT_GATES = "independent_gates"
ORCHESTRATED = "orchestrated"
MODES = (BASELINE, INDEPENDENT_GATES, ORCHESTRATED)

KEEP = "keep"
SWITCH = "switch"
REEVALUATE = "reevaluate"  # no rule emits it; perfbench/layers.py decision_counts reads it

UNCALIBRATED = "uncalibrated"


@dataclass(frozen=True)
class RiskVector:
    """Componentwise risk; r_acc is None for a kind without an N* (joins).

    Deliberately exposes no scalar fold of its components.
    """

    observed_input_cardinality: int
    estimate_ratio: float
    r_acc: Optional[float] = None


@dataclass(frozen=True)
class Thresholds:
    rho_join: float = 10.0        # estimate-ratio trigger for join re-selection
    offload_margin: float = 1.1   # safety multiplier on the break-even size
    n_star: dict[str, float] = field(default_factory=dict)  # kind -> N*
    # calibrated (calibrate, scenario_thresholds), static (static_thresholds),
    # or, from a thresholds file, any name; only uncalibrated leaves them so
    source: str = UNCALIBRATED

    def __post_init__(self):
        if not (self.rho_join > 1):
            raise ValidationError(f"rho_join must be > 1, got {self.rho_join}")
        if not (self.offload_margin >= 1):
            raise ValidationError(f"offload_margin must be >= 1, got {self.offload_margin}")
        for kind, n_star in self.n_star.items():
            if kind not in OFFLOADABLE_KINDS:
                raise ValidationError(f"n_star key {kind!r} is no offloadable kind "
                                      f"{OFFLOADABLE_KINDS}")
            # inf is a kind that never amortizes; NaN fails here too
            if not n_star > 0:
                raise ValidationError(f"n_star[{kind!r}] must be > 0 or inf, got {n_star}")

    @property
    def calibrated(self) -> bool:
        return self.source != UNCALIBRATED


def decide(urs: RiskVector, node: PlanNode, thresholds: Thresholds) -> str:
    """The variant to run: the first matching rule's target, else node.chosen."""
    # join_blowup: join inputs far above estimate while on the quadratic strategy
    if (node.kind == JOIN and node.chosen == NESTED_LOOP
            and urs.estimate_ratio >= thresholds.rho_join):
        return HASH_JOIN

    if node.kind in OFFLOADABLE_KINDS:
        offload_at = thresholds.offload_margin * thresholds.n_star.get(node.kind, math.inf)
        # offload: input large enough that up-front costs amortize with margin
        if node.chosen == CPU and urs.observed_input_cardinality >= offload_at:
            return ACCELERATOR
        # return_cpu: bound to the accelerator but the input will not amortize it
        if node.chosen == ACCELERATOR and urs.r_acc is not None and urs.r_acc > 1.0:
            return CPU

    return node.chosen


def calibrate(break_evens: dict[str, Optional[BreakEven]],
              base: Optional[Thresholds] = None) -> Thresholds:
    """Turn measured break-evens into runtime thresholds.

    Kinds whose benchmark found no break-even get an unreachable threshold:
    offloading is disabled for them rather than guessed at.
    """
    n_star = {kind: math.inf if be is None else be.n_star_estimated
              for kind, be in sorted(break_evens.items())}
    return replace(base or Thresholds(), n_star=n_star, source="calibrated")


def static_thresholds(model: CostModel, base: Optional[Thresholds] = None) -> Thresholds:
    """Thresholds for the independent-gates ablation: break-evens read off
    the planner's cost model coefficients instead of measurements."""
    n_star = {kind: model_break_even(model, kind) or math.inf for kind in sorted(model.accel)}
    return replace(base or Thresholds(), n_star=n_star, source="static")


def calibration_report(thresholds: Thresholds) -> str:
    lines = [f"thresholds (source={thresholds.source})",
             f"  rho_join          {thresholds.rho_join}",
             f"  offload_margin    {thresholds.offload_margin}"]
    for kind, n_star in sorted(thresholds.n_star.items()):
        at = thresholds.offload_margin * n_star
        if math.isfinite(at):
            lines.append(f"  offload[{kind}]  n*={n_star:.2f}  threshold={at:.2f}")
        else:
            lines.append(f"  offload[{kind}]  disabled (no break-even)")
    return "\n".join(lines) + "\n"

