from __future__ import annotations

import math

import numpy as np
import pytest

from latebind import clock as clock_module
from latebind.accel import (GRID_COUNT, GRID_SPAN, MAX_MEASUREMENTS, MAX_SIZE, LineFit,
                            Measurement,
                            accelerator_risk, break_even, calibrate_break_evens,
                            default_size_grid, fit_linear, run_microbenchmark)
from latebind.clock import MAX_SIGMA, SimulatedClock
from latebind.errors import ValidationError
from latebind.planner import ACCELERATOR, CPU, AcceleratorCost, CostModel, cost
from latebind.rng import derive_seed

# filter costs n on the cpu and 8000 + 0.2 n on the accelerator
MODEL = CostModel.default()


def test_noise_free_repetitions_identical():
    clock = SimulatedClock(sigma=0.0)
    ms = run_microbenchmark("filter", [1000], MODEL, CPU, clock, repetitions=3, seed=1)
    assert len(ms) == 3
    assert all(m.cost == 1000.0 for m in ms)


def test_cpu_costs_linear_in_size():
    clock = SimulatedClock(sigma=0.0)
    ms = run_microbenchmark("filter", [1000, 10000], MODEL, CPU, clock, 1, seed=1)
    assert [m.cost for m in ms] == [1000.0, 10000.0]


def test_accelerator_cost_at_break_even_size():
    clock = SimulatedClock(sigma=0.0)
    ms = run_microbenchmark("filter", [10000], MODEL, ACCELERATOR, clock, 1, seed=1)
    assert ms[0].cost == pytest.approx(8000.0 + 0.2 * 10000)


def test_microbenchmark_validation():
    clock = SimulatedClock(sigma=0.0)
    with pytest.raises(ValidationError):
        run_microbenchmark("filter", [], MODEL, CPU, clock, 1, seed=1)
    with pytest.raises(ValidationError):
        run_microbenchmark("filter", [10, 10], MODEL, CPU, clock, 1, seed=1)
    with pytest.raises(ValidationError):
        run_microbenchmark("filter", [10, 5], MODEL, CPU, clock, 1, seed=1)
    with pytest.raises(ValidationError):
        run_microbenchmark("filter", [10], MODEL, CPU, clock, 0, seed=1)


class Charged(Exception):
    """The first charge of a microbenchmark: its checks have all passed."""


class GuardClock(SimulatedClock):
    def charge(self, *args, **kwargs):
        raise Charged


@pytest.mark.parametrize("sizes,repetitions", [
    ([1000], MAX_MEASUREMENTS), ([1, 2], MAX_MEASUREMENTS // 2),
    (list(range(1, MAX_MEASUREMENTS + 1)), 1)])
def test_measurement_count_checked_before_the_first_charge(sizes, repetitions):
    with pytest.raises(Charged):   # at the limit
        run_microbenchmark("filter", sizes, MODEL, CPU, GuardClock(), repetitions, seed=1)
    with pytest.raises(ValidationError, match=f"exceed {MAX_MEASUREMENTS} measurements"):
        run_microbenchmark("filter", sizes, MODEL, CPU, GuardClock(), repetitions + 1, seed=1)


def test_sizes_above_limit_rejected():
    # a float holds every size up to MAX_SIZE, and the model prices sizes
    # as floats
    with pytest.raises(Charged):
        run_microbenchmark("filter", [1, MAX_SIZE], MODEL, CPU, GuardClock(), 1, seed=1)
    with pytest.raises(ValidationError, match="sizes must be in"):
        run_microbenchmark("filter", [1, MAX_SIZE + 1], MODEL, CPU, GuardClock(), 1, seed=1)
    with pytest.raises(ValidationError, match="break-even hint"):
        default_size_grid(MAX_SIZE)
    with pytest.raises(ValidationError, match="break-even hint"):
        default_size_grid(math.nan)


def test_sizes_from_zero_rejected():
    with pytest.raises(ValidationError, match="sizes must be in"):
        run_microbenchmark("filter", [0, 10], MODEL, CPU, GuardClock(), 1, seed=1)


def test_size_grid_hint_of_one_passes_the_range_check():
    # in range, but its grid rounds to fewer than GRID_COUNT distinct sizes
    with pytest.raises(ValidationError, match="size grid collapsed"):
        default_size_grid(1)


def test_size_grid_hint_at_its_limit_accepted():
    assert len(default_size_grid(MAX_SIZE / GRID_SPAN)) == GRID_COUNT


def test_noise_is_finite_at_the_sigma_limit(monkeypatch):
    # every unit draw 0: u1 is 2**-54 and cos(2 pi u2) is 1, the largest z
    monkeypatch.setattr(clock_module, "unit_at", lambda seed, counter: 0.0)
    clock = SimulatedClock(sigma=MAX_SIGMA)
    assert math.isfinite(clock.noise(1, 0))
    clock.sigma = MAX_SIGMA + 0.1   # past the constructor's check
    with pytest.raises(OverflowError):
        clock.noise(1, 0)
    with pytest.raises(ValidationError, match="at most"):
        SimulatedClock(sigma=MAX_SIGMA + 0.1)


def test_microbenchmark_deterministic_per_seed():
    clock = SimulatedClock(sigma=0.05)
    a = run_microbenchmark("filter", [100, 1000], MODEL, CPU, clock, 4, seed=9)
    b = run_microbenchmark("filter", [100, 1000], MODEL, CPU, clock, 4, seed=9)
    c = run_microbenchmark("filter", [100, 1000], MODEL, CPU, clock, 4, seed=10)
    assert [m.cost for m in a] == [m.cost for m in b]
    assert [m.cost for m in a] != [m.cost for m in c]


def test_fit_exact_proportional_line():
    ms = [Measurement("filter", CPU, 1000, 1000.0),
          Measurement("filter", CPU, 2000, 2000.0)]
    fit = fit_linear(ms)
    assert fit.slope == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.residual_score == pytest.approx(0.0, abs=1e-12)


def test_fit_exact_affine_line():
    # two points from setup=8000, slope=0.2: solved by hand, a=0.2, b=8000
    ms = [Measurement("filter", ACCELERATOR, 1000, 8200.0),
          Measurement("filter", ACCELERATOR, 10000, 10000.0)]
    fit = fit_linear(ms)
    assert fit.slope == pytest.approx(0.2)
    assert fit.intercept == pytest.approx(8000.0)


def test_fit_rank_deficiency_rejected():
    ms = [Measurement("filter", CPU, 500, 490.0),
          Measurement("filter", CPU, 500, 510.0)]
    with pytest.raises(ValidationError):
        fit_linear(ms)
    with pytest.raises(ValidationError):
        fit_linear([])


def test_fit_mixed_devices_rejected():
    ms = [Measurement("filter", CPU, 500, 500.0),
          Measurement("filter", ACCELERATOR, 1000, 8200.0)]
    with pytest.raises(ValidationError):
        fit_linear(ms)


def test_fit_matches_independent_least_squares_oracle():
    # oracle: numpy's lstsq on the design matrix, coded independently of fit_linear
    clock = SimulatedClock(sigma=0.05)
    sizes = [1000, 2000, 4000, 8000, 16000]
    ms = run_microbenchmark("filter", sizes, MODEL, ACCELERATOR, clock, 5, seed=21)
    fit = fit_linear(ms)
    x = np.array([m.n for m in ms], dtype=float)
    y = np.array([m.cost for m in ms])
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9)


def test_break_even_analytic_crossover():
    clock = SimulatedClock(sigma=0.0)
    sizes = default_size_grid(10000.0)
    cpu_ms = run_microbenchmark("filter", sizes, MODEL, CPU, clock, 1, seed=1)
    acc_ms = run_microbenchmark("filter", sizes, MODEL, ACCELERATOR, clock, 1, seed=1)
    be = break_even(fit_linear(cpu_ms), fit_linear(acc_ms), cpu_ms + acc_ms)
    # (8000 - 0) / (1.0 - 0.2) = 10000
    assert be.n_star_estimated == pytest.approx(10000.0, rel=1e-9)
    assert be.n_star_observed == pytest.approx(10000.0, rel=1e-9)
    assert be.relative_error <= 1e-9


def test_break_even_identical_profiles_rejected():
    fit = LineFit(CPU, "filter", 1.0, 0.0, 0.0)
    same = LineFit(ACCELERATOR, "filter", 1.0, 0.0, 0.0)
    assert break_even(fit, same, []) is None


def test_break_even_never_amortizing_rejected():
    cpu = LineFit(CPU, "filter", 0.2, 0.0, 0.0)
    acc = LineFit(ACCELERATOR, "filter", 1.0, 8000.0, 0.0)
    assert break_even(cpu, acc, []) is None


def test_break_even_at_a_negative_size_is_none():
    # the cpu line lies above the accelerator's at every size n >= 0
    cpu = LineFit(CPU, "filter", 1.0, 100.0, 0.0)
    acc = LineFit(ACCELERATOR, "filter", 0.2, 0.0, 0.0)
    assert break_even(cpu, acc, []) is None


def test_break_even_at_size_zero_is_none():
    # the fitted lines meet at n = 0, though the measured costs cross
    cpu = LineFit(CPU, "filter", 1.0, 0.0, 0.0)
    acc = LineFit(ACCELERATOR, "filter", 0.2, 0.0, 0.0)
    measured = [Measurement("filter", CPU, 1, 1.0), Measurement("filter", ACCELERATOR, 1, 2.0),
                Measurement("filter", CPU, 2, 4.0), Measurement("filter", ACCELERATOR, 2, 2.0)]
    assert break_even(cpu, acc, measured) is None


def test_break_even_without_measured_crossover_is_none():
    # the fitted lines cross at 10000, but every measured size lies above it,
    # so the accelerator is cheaper at each one and no crossover is observed
    clock = SimulatedClock(sigma=0.0)
    cpu_ms = run_microbenchmark("filter", [20000, 40000], MODEL, CPU, clock, 1, seed=1)
    acc_ms = run_microbenchmark("filter", [20000, 40000], MODEL, ACCELERATOR, clock, 1, seed=1)
    cpu_fit, acc_fit = fit_linear(cpu_ms), fit_linear(acc_ms)
    assert (acc_fit.intercept - cpu_fit.intercept) / (cpu_fit.slope - acc_fit.slope) > 0
    assert break_even(cpu_fit, acc_fit, cpu_ms + acc_ms) is None


def measured_differences(cpu_costs: list[list[float]]) -> list[Measurement]:
    """Measurements at sizes 100, 200, ...: the given cpu costs at each size,
    and an accelerator cost of 10 per measurement."""
    out = []
    for i, costs in enumerate(cpu_costs):
        n = 100 * (i + 1)
        out += [Measurement("filter", CPU, n, c) for c in costs]
        out += [Measurement("filter", ACCELERATOR, n, 10.0) for _ in costs]
    return out


# fitted lines that cross at n = 10000, so only the measured crossover decides
CROSSING_FITS = (LineFit(CPU, "filter", 1.0, 0.0, 0.0),
                 LineFit(ACCELERATOR, "filter", 0.2, 8000.0, 0.0))


def test_observed_crossover_at_a_size_of_equal_means():
    # cpu minus accelerator means: -1 at 100, 0 at 200, +1 at 300; the
    # measured costs cross at 200, where the means are equal
    measured = measured_differences([[9.0, 9.0], [8.0, 12.0], [11.0, 11.0]])
    assert break_even(*CROSSING_FITS, measured).n_star_observed == 200.0


def test_equal_means_at_the_first_size_are_no_crossover():
    # differences 0, +1, +2: the cpu never costs less, so nothing crosses
    measured = measured_differences([[8.0, 12.0], [11.0, 11.0], [12.0, 12.0]])
    assert break_even(*CROSSING_FITS, measured) is None


def test_sign_property_around_crossover():
    n_star = 10000.0
    for n in np.linspace(100, 100000, 100):
        cpu_cost = cost("filter", CPU, (n,), MODEL)
        acc_cost = cost("filter", ACCELERATOR, (n,), MODEL)
        if n < n_star:
            assert cpu_cost < acc_cost
        elif n > n_star:
            assert acc_cost < cpu_cost


@pytest.mark.parametrize("n_star,n_obs,expected", [
    (10000.0, 20000, 0.5),
    (10000.0, 5000, 2.0),
    (10000.0, 0, 10000.0),
])
def test_accelerator_risk_ratio(n_star, n_obs, expected):
    assert accelerator_risk(n_star, n_obs) == pytest.approx(expected)


def test_accelerator_risk_sentinel_without_break_even():
    assert accelerator_risk(math.inf, 500) == math.inf


def test_calibrate_break_evens_covers_model_kinds(default_model):
    clock = SimulatedClock(sigma=0.0)
    break_evens, measurements, fits = calibrate_break_evens(default_model, clock, seed=5)
    assert set(break_evens) == {"filter", "aggregate"}
    assert all(be is not None for be in break_evens.values())
    assert len(fits) == 4
    assert all(m.cost > 0 for m in measurements)


def test_calibrate_break_evens_flags_degenerate():
    model = CostModel(
        cpu=CostModel.default().cpu,
        accel={"filter": AcceleratorCost(0.0, 1.0),
               "aggregate": AcceleratorCost(0.0, 1.0)},
        join=CostModel.default().join)
    clock = SimulatedClock(sigma=0.0)
    break_evens, _, _ = calibrate_break_evens(model, clock, seed=5)
    assert all(be is None for be in break_evens.values())


def test_noise_robustness_sampled():
    # acceptance runs 100 trials; keep a fast 20-trial version in the unit suite
    clock = SimulatedClock(sigma=0.05)
    grid = default_size_grid(10000.0)
    good = 0
    for seed in range(20):
        cpu_ms = run_microbenchmark("filter", grid, MODEL, CPU, clock, 5,
                                    derive_seed(seed, "robust/cpu"))
        acc_ms = run_microbenchmark("filter", grid, MODEL, ACCELERATOR, clock, 5,
                                    derive_seed(seed, "robust/accel"))
        be = break_even(fit_linear(cpu_ms), fit_linear(acc_ms), cpu_ms + acc_ms)
        if be.relative_error <= 0.05:
            good += 1
    assert good >= 18
