from __future__ import annotations

import io
import math

import pytest

from latebind.accel import BreakEven
from latebind.errors import ValidationError, json_text, load_json
from latebind.planner import (ACCELERATOR, AGGREGATE, CPU, CostModel, FILTER,
                              HASH_JOIN, JOIN, NESTED_LOOP, PlanNode)
from latebind.policy import (RiskVector, Thresholds, calibrate, calibration_report, decide,
                             static_thresholds)
from conftest import disabled_thresholds


def risk(n_obs=1000, ratio=1.0, r_acc=None) -> RiskVector:
    return RiskVector(observed_input_cardinality=n_obs, estimate_ratio=ratio, r_acc=r_acc)


def calibrated(**overrides) -> Thresholds:
    base = Thresholds(**overrides)
    return calibrate({FILTER: BreakEven(FILTER, 10000.0, 10000.0),
                      AGGREGATE: BreakEven(AGGREGATE, 10000.0, 10000.0)}, base)


def node(kind: str, chosen: str) -> PlanNode:
    return PlanNode(node_id=f"{kind}0", kind=kind, chosen=chosen, est_input=1000.0)


JOIN_NL = node(JOIN, NESTED_LOOP)
JOIN_HASH = node(JOIN, HASH_JOIN)
FILTER_CPU = node(FILTER, CPU)
FILTER_ACC = node(FILTER, ACCELERATOR)


def test_nominal_signals_keep():
    urs = risk(r_acc=0.5)
    assert decide(urs, JOIN_NL, calibrated()) == JOIN_NL.chosen
    assert decide(urs, FILTER_ACC, calibrated()) == FILTER_ACC.chosen


def test_rule1_ratio_triggers_hash_join():
    urs = risk(ratio=12.0)
    assert decide(urs, JOIN_NL, calibrated()) == HASH_JOIN


def test_rule1_needs_nested_loop_current():
    urs = risk(ratio=12.0)
    assert decide(urs, JOIN_HASH, calibrated()) == JOIN_HASH.chosen


def test_rule3_offload_at_margin():
    thr = calibrated()  # offload threshold = 1.1 * 10000 = 11000
    at = risk(n_obs=11000, r_acc=10000 / 11000)
    assert decide(at, FILTER_CPU, thr) == ACCELERATOR


def test_rule3_just_below_margin_keep_or_reevaluate():
    thr = calibrated()
    below_trusted = risk(n_obs=10999, r_acc=10000 / 10999)
    assert decide(below_trusted, FILTER_CPU, thr) == FILTER_CPU.chosen


def test_rule4_unamortized_returns_to_cpu():
    urs = risk(n_obs=5000, r_acc=2.0)
    assert decide(urs, FILTER_ACC, calibrated()) == CPU


def test_rule4_amortized_at_break_even_keeps_accelerator():
    at_break_even = risk(n_obs=10000, r_acc=1.0)
    assert decide(at_break_even, FILTER_ACC, calibrated()) == ACCELERATOR


def test_rule4_sentinel_forces_cpu():
    urs = risk(n_obs=50000, r_acc=math.inf)
    assert decide(urs, FILTER_ACC, calibrated()) == CPU


def test_independent_gates_run_local_rules_only():
    thr = static_thresholds(CostModel.default())
    # rule 1 still fires: the ratio is an executor-local quantity
    hot = risk(ratio=12.0)
    assert decide(hot, JOIN_NL, thr) == HASH_JOIN


def test_decision_monotone_in_ratio():
    thr = calibrated()
    rank = {NESTED_LOOP: 0, HASH_JOIN: 1}  # keep, then switch
    last = -1
    for ratio in [r / 10 for r in range(10, 250, 5)]:
        urs = risk(ratio=ratio)
        variant = decide(urs, JOIN_NL, thr)
        assert rank[variant] >= last
        last = rank[variant]
    assert last == rank[HASH_JOIN]


def test_decide_is_pure():
    urs = risk(ratio=9.5, r_acc=0.9)
    thr = calibrated()
    assert decide(urs, JOIN_NL, thr) == \
        decide(urs, JOIN_NL, thr)


# ── calibration ────────────────────────────────────────────────────────────


def test_calibrate_applies_margin():
    thr = calibrate({FILTER: BreakEven(FILTER, 10000.0, 10100.0)})
    assert thr.n_star[FILTER] == pytest.approx(10000.0)
    assert "threshold=11000.00" in calibration_report(thr)
    assert thr.calibrated


def test_calibrate_disables_missing_break_even():
    thr = calibrate({FILTER: None})
    assert thr.n_star[FILTER] == math.inf


def test_calibrate_distinct_kinds_distinct_thresholds():
    thr = calibrate({FILTER: BreakEven(FILTER, 10000.0, 10000.0),
                     AGGREGATE: BreakEven(AGGREGATE, 4000.0, 4000.0)})
    assert thr.n_star[FILTER] != thr.n_star[AGGREGATE]
    assert "offload[aggregate]  n*=4000.00  threshold=4400.00" in calibration_report(thr)


def test_calibrate_without_break_evens_never_offloads():
    thr = calibrate({})
    assert thr.n_star == {} and thr.calibrated
    assert decide(risk(n_obs=10**9), FILTER_CPU, thr) == FILTER_CPU.chosen


def test_static_thresholds_from_model():
    thr = static_thresholds(CostModel.default())
    assert thr.source == "static"
    assert thr.n_star[FILTER] == pytest.approx(10000.0)
    miscal = static_thresholds(CostModel.default().scaled_accel_setup(0.5))
    assert miscal.n_star[FILTER] == pytest.approx(5000.0)


def test_threshold_validation():
    with pytest.raises(ValidationError):
        Thresholds(rho_join=1.0)
    with pytest.raises(ValidationError):
        Thresholds(offload_margin=0.9)


def test_offload_margin_of_exactly_one_accepted():
    # a margin of 1 offloads at the break-even size itself
    assert Thresholds(offload_margin=1.0).offload_margin == 1.0


@pytest.mark.parametrize("n_star", [0, 0.0, -0.0, -1, -1e-300, -math.inf, math.nan])
def test_break_even_neither_positive_nor_inf_rejected(n_star):
    with pytest.raises(ValidationError, match=r"n_star\['filter'\] must be > 0 or inf"):
        Thresholds(n_star={FILTER: n_star})


@pytest.mark.parametrize("kind", [JOIN, "scan", ""])
def test_break_even_of_no_offloadable_kind_rejected(kind):
    with pytest.raises(ValidationError, match="is no offloadable kind"):
        Thresholds(n_star={kind: 10000.0})


def test_break_evens_that_calibrate_writes_accepted():
    # the smallest float, an integer, and inf for a kind that never amortizes
    thr = Thresholds(n_star={FILTER: 5e-324, AGGREGATE: math.inf})
    assert Thresholds(n_star={FILTER: 1}).n_star == {FILTER: 1}
    assert thr.n_star[AGGREGATE] == math.inf


def test_disabled_thresholds_never_fire():
    thr = disabled_thresholds()
    extreme = risk(n_obs=10**9, ratio=1e9)
    assert decide(extreme, JOIN_NL, thr) == JOIN_NL.chosen
    assert decide(extreme, FILTER_CPU, thr) == FILTER_CPU.chosen


def test_thresholds_roundtrip_including_disabled():
    for thr in (calibrated(rho_join=7.5), disabled_thresholds()):
        assert load_json(Thresholds, io.StringIO(json_text(thr)), "threshold") == thr


def test_thresholds_unknown_keys_rejected():
    buf = io.StringIO('{"rho_join": 5.0, "bogus": 1}')
    with pytest.raises(ValidationError):
        load_json(Thresholds, buf, "threshold")


def test_calibration_report_mentions_kinds():
    text = calibration_report(calibrate({FILTER: BreakEven(FILTER, 10000.0, 10000.0),
                                         AGGREGATE: None}))
    assert "offload[filter]" in text
    assert "disabled" in text


# ── componentwise integrity ────────────────────────────────────────────────


def test_risk_vector_exposes_no_scalar_fold():
    fields = {"observed_input_cardinality", "estimate_ratio", "r_acc"}
    public = {name for name in vars(RiskVector)
              if not name.startswith("_") and name not in ("__doc__",)}
    # dataclass adds no public methods; the only public surface is the components
    assert public <= fields | {"__dataclass_fields__", "__dataclass_params__"}
    assert not hasattr(RiskVector, "__float__")
    assert not hasattr(RiskVector, "__int__")
    for forbidden in ("total", "scalar", "combined", "fold", "magnitude", "score"):
        assert not hasattr(RiskVector, forbidden)


def test_risk_vector_r_acc_optional():
    assert RiskVector(observed_input_cardinality=1000, estimate_ratio=1.0).r_acc is None
    with pytest.raises(TypeError):
        RiskVector()  # the engine always observes the input
