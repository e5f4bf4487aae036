from __future__ import annotations

import io
import math

import pytest

from latebind.accel import BreakEven
from latebind.engine import RuntimeSignals
from latebind.errors import ConfigurationError, ValidationError
from latebind.planner import (ACCELERATOR, AGGREGATE, CPU, CostModel, FILTER,
                              HASH_JOIN, JOIN, NESTED_LOOP, PlanNode)
from latebind.policy import (BASELINE, INDEPENDENT_GATES, ORCHESTRATED, RiskVector,
                             Thresholds, calibrate, calibration_report, decide,
                             dump_thresholds, load_thresholds, static_thresholds)
from conftest import disabled_thresholds


def signals(n_obs=1000, ratio=1.0) -> RuntimeSignals:
    return RuntimeSignals(observed_input_cardinality=n_obs, estimate_ratio=ratio)


def calibrated(**overrides) -> Thresholds:
    base = Thresholds(**overrides)
    return calibrate({FILTER: BreakEven(FILTER, 10000.0, 10000.0),
                      AGGREGATE: BreakEven(AGGREGATE, 10000.0, 10000.0)}, base)


def node(kind: str, chosen: str, variants: tuple[str, ...], late_bind=True) -> PlanNode:
    return PlanNode(node_id=f"{kind}0", kind=kind, chosen=chosen, est_input=1000.0,
                    est_output=1000.0, late_bind=late_bind, variants=variants)


JOIN_NL = node(JOIN, NESTED_LOOP, (HASH_JOIN, NESTED_LOOP))
JOIN_HASH = node(JOIN, HASH_JOIN, (HASH_JOIN, NESTED_LOOP))
FILTER_CPU = node(FILTER, CPU, (ACCELERATOR, CPU))
FILTER_ACC = node(FILTER, ACCELERATOR, (ACCELERATOR, CPU))


def test_nominal_signals_keep():
    urs = RiskVector(r_exec=signals(), r_acc=0.5)
    assert decide(urs, JOIN_NL, calibrated(), ORCHESTRATED) == JOIN_NL.chosen
    assert decide(urs, FILTER_ACC, calibrated(), ORCHESTRATED) == FILTER_ACC.chosen


def test_rule1_ratio_triggers_hash_join():
    urs = RiskVector(r_exec=signals(ratio=12.0), r_acc=None)
    assert decide(urs, JOIN_NL, calibrated(), ORCHESTRATED) == HASH_JOIN


def test_rule1_needs_nested_loop_current():
    urs = RiskVector(r_exec=signals(ratio=12.0), r_acc=None)
    assert decide(urs, JOIN_HASH, calibrated(), ORCHESTRATED) == JOIN_HASH.chosen


def test_rule3_offload_at_margin():
    thr = calibrated()  # offload threshold = 1.1 * 10000 = 11000
    at = RiskVector(r_exec=signals(n_obs=11000), r_acc=10000 / 11000)
    assert decide(at, FILTER_CPU, thr, ORCHESTRATED) == ACCELERATOR


def test_rule3_just_below_margin_keep_or_reevaluate():
    thr = calibrated()
    below_trusted = RiskVector(r_exec=signals(n_obs=10999), r_acc=10000 / 10999)
    assert decide(below_trusted, FILTER_CPU, thr, ORCHESTRATED) == FILTER_CPU.chosen


def test_rule4_unamortized_returns_to_cpu():
    urs = RiskVector(r_exec=signals(n_obs=5000), r_acc=2.0)
    assert decide(urs, FILTER_ACC, calibrated(), ORCHESTRATED) == CPU


def test_rule4_sentinel_forces_cpu():
    urs = RiskVector(r_exec=signals(n_obs=50000), r_acc=math.inf)
    assert decide(urs, FILTER_ACC, calibrated(), ORCHESTRATED) == CPU


def test_independent_gates_run_local_rules_only():
    thr = static_thresholds(CostModel.default())
    # rule 1 still fires: the ratio is an executor-local quantity
    hot = RiskVector(r_exec=signals(ratio=12.0), r_acc=None)
    assert decide(hot, JOIN_NL, thr, INDEPENDENT_GATES) == HASH_JOIN


def test_baseline_mode_rejected():
    urs = RiskVector(r_exec=signals(), r_acc=None)
    with pytest.raises(ConfigurationError):
        decide(urs, JOIN_NL, calibrated(), BASELINE)


def test_uncalibrated_orchestrated_rejected():
    urs = RiskVector(r_exec=signals(), r_acc=None)
    with pytest.raises(ConfigurationError):
        decide(urs, JOIN_NL, Thresholds(), ORCHESTRATED)


def test_switch_target_must_be_variant():
    urs = RiskVector(r_exec=signals(ratio=12.0), r_acc=None)
    nl_only = node(JOIN, NESTED_LOOP, (NESTED_LOOP,), late_bind=False)
    with pytest.raises(ValidationError):
        decide(urs, nl_only, calibrated(), ORCHESTRATED)


def test_decision_monotone_in_ratio():
    thr = calibrated()
    rank = {NESTED_LOOP: 0, HASH_JOIN: 1}  # keep, then switch
    last = -1
    for ratio in [r / 10 for r in range(10, 250, 5)]:
        urs = RiskVector(r_exec=signals(ratio=ratio), r_acc=None)
        variant = decide(urs, JOIN_NL, thr, ORCHESTRATED)
        assert rank[variant] >= last
        last = rank[variant]
    assert last == rank[HASH_JOIN]


def test_decide_is_pure():
    urs = RiskVector(r_exec=signals(ratio=9.5), r_acc=0.9)
    thr = calibrated()
    assert decide(urs, JOIN_NL, thr, ORCHESTRATED) == \
        decide(urs, JOIN_NL, thr, ORCHESTRATED)


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


def test_calibrate_requires_input():
    with pytest.raises(ValidationError):
        calibrate({})


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


def test_disabled_thresholds_never_fire():
    thr = disabled_thresholds()
    extreme = RiskVector(r_exec=signals(n_obs=10**9, ratio=1e9),
                         r_acc=None)
    assert decide(extreme, JOIN_NL, thr, ORCHESTRATED) == JOIN_NL.chosen
    assert decide(extreme, FILTER_CPU, thr, ORCHESTRATED) == FILTER_CPU.chosen


def test_thresholds_roundtrip_including_disabled():
    for thr in (calibrated(rho_join=7.5), disabled_thresholds()):
        buf = io.StringIO()
        dump_thresholds(thr, buf)
        buf.seek(0)
        assert load_thresholds(buf) == thr


def test_thresholds_unknown_keys_rejected():
    buf = io.StringIO('{"rho_join": 5.0, "bogus": 1}')
    with pytest.raises(ValidationError):
        load_thresholds(buf)


def test_calibration_report_mentions_kinds():
    text = calibration_report(calibrate({FILTER: BreakEven(FILTER, 10000.0, 10000.0),
                                         AGGREGATE: None}))
    assert "offload[filter]" in text
    assert "disabled" in text


# ── componentwise integrity ────────────────────────────────────────────────


def test_risk_vector_exposes_no_scalar_fold():
    fields = {"r_exec", "r_acc"}
    public = {name for name in vars(RiskVector)
              if not name.startswith("_") and name not in ("__doc__",)}
    # dataclass adds no public methods; the only public surface is the components
    assert public <= fields | {"__dataclass_fields__", "__dataclass_params__"}
    assert not hasattr(RiskVector, "__float__")
    assert not hasattr(RiskVector, "__int__")
    for forbidden in ("total", "scalar", "combined", "fold", "magnitude", "score"):
        assert not hasattr(RiskVector, forbidden)


def test_risk_vector_r_acc_optional():
    assert RiskVector(r_exec=signals()).r_acc is None
    with pytest.raises(TypeError):
        RiskVector()  # the engine always observes the input
