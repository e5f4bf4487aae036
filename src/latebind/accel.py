"""Accelerator cost modeling: microbenchmarks, line fitting, break-even.

The accelerator is a calibrated cost-model device.  Microbenchmarks charge
each device's modeled per-size cost, priced by ``planner.cost``, through the
clock (so they inherit the clock's noise and determinism): n rows cost
cpu * n on the CPU and setup + per_row * n on the accelerator.  Ordinary
least squares fits one affine cost line per device, and the fitted lines
yield the estimated break-even size alongside the observed one, interpolated
where the two devices' per-size mean costs, paired on their one size grid,
cross; there is none where the lines or the means do not cross.  The ratio
of break-even size to observed input size is the accelerator-side risk
signal: above 1, offloading has not amortized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .clock import SimulatedClock
from .errors import ValidationError
from .planner import ACCELERATOR, CPU, CostModel, cost, model_break_even
from .rng import derive_seed


@dataclass(frozen=True)
class Measurement:
    op_kind: str
    device: str
    n: int
    cost: float


@dataclass(frozen=True)
class LineFit:
    device: str
    op_kind: str
    slope: float
    intercept: float
    residual_score: float  # RMS residual / mean cost


@dataclass(frozen=True)
class BreakEven:
    op_kind: str
    n_star_estimated: float
    n_star_observed: float

    @property
    def relative_error(self) -> float:
        return abs(self.n_star_estimated - self.n_star_observed) / self.n_star_observed


GRID_COUNT = 8    # sizes in the default measurement grid
GRID_SPAN = 5.0   # which covers [hint / GRID_SPAN, hint * GRID_SPAN]
MAX_SIZE = 2**53  # input rows of a measurement; a float holds every count up to it
# measurements per microbenchmark, all held until calibration ends (a
# Measurement takes ~170 bytes, so one microbenchmark holds at most ~16 MiB)
MAX_MEASUREMENTS = 100_000


def default_size_grid(n_star_hint: float) -> list[int]:
    """Log-spaced measurement sizes centered on the expected break-even N* > 0.

    Tight spans localize the crossover far better than wide ones: with
    multiplicative noise the cost lines are pinned near the design center, so
    centering the grid on the expected crossover is what makes the fitted and
    observed break-even agree.
    """
    if not 1 <= n_star_hint <= MAX_SIZE / GRID_SPAN:
        raise ValidationError(f"break-even hint {n_star_hint} is outside "
                              f"[1, {MAX_SIZE / GRID_SPAN:g}]")
    lo = math.log(n_star_hint / GRID_SPAN)
    hi = math.log(n_star_hint * GRID_SPAN)
    sizes = sorted({max(1, round(math.exp(lo + (hi - lo) * i / (GRID_COUNT - 1))))
                    for i in range(GRID_COUNT)})
    if len(sizes) < GRID_COUNT:
        raise ValidationError("size grid collapsed; the break-even hint is too small")
    return sizes


def run_microbenchmark(op_kind: str, sizes: list[int], model: CostModel, device: str,
                       clock: SimulatedClock, repetitions: int, seed: int,
                       ) -> list[Measurement]:
    """One charged measurement per (size, repetition), deterministic per seed."""
    if not sizes:
        raise ValidationError("microbenchmark needs at least one size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("sizes must be strictly increasing")
    if not (0 < sizes[0] and sizes[-1] <= MAX_SIZE):
        raise ValidationError(f"sizes must be in 1..{MAX_SIZE}")
    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")
    if len(sizes) * repetitions > MAX_MEASUREMENTS:
        raise ValidationError(f"{len(sizes)} sizes x {repetitions} repetitions exceed "
                              f"{MAX_MEASUREMENTS} measurements")
    noise_seed = derive_seed(seed, f"micro/{device}/{op_kind}")
    out = []
    counter = 0
    for n in sizes:
        model_cost = cost(op_kind, device, (n,), model)
        for _ in range(repetitions):
            charged = clock.charge(model_cost, noise_seed, counter)
            counter += 1
            out.append(Measurement(op_kind=op_kind, device=device, n=n, cost=charged))
    return out


def fit_linear(measurements: list[Measurement]) -> LineFit:
    """Ordinary least squares cost = slope * n + intercept for one device+op."""
    if not measurements:
        raise ValidationError("no measurements to fit")
    xs = [float(m.n) for m in measurements]
    ys = [m.cost for m in measurements]
    n = len(xs)
    if len(set(xs)) < 2:
        raise ValidationError("need at least two distinct sizes to fit a line")
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    # r * r overflows to inf, where r ** 2 raises
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    rms = math.sqrt(sum(r * r for r in residuals) / n)
    mean_cost = sy / n
    return LineFit(device=measurements[0].device, op_kind=measurements[0].op_kind, slope=slope,
                   intercept=intercept, residual_score=rms / mean_cost if mean_cost else 0.0)


def mean_costs(measurements: list[Measurement]) -> dict[int, float]:
    """Each size's mean cost in one microbenchmark's measurements, the sizes
    in their measured (ascending) order."""
    costs: dict[int, list[float]] = {}
    for m in measurements:
        costs.setdefault(m.n, []).append(m.cost)
    return {n: sum(c) / len(c) for n, c in costs.items()}


def break_even(cpu_fit: LineFit, accel_fit: LineFit, cpu_ms: list[Measurement],
               accel_ms: list[Measurement]) -> Optional[BreakEven]:
    """Estimated (fitted-line crossover) and observed (interpolated
    empirical crossover) break-even sizes for one op kind, from the two
    devices' run_microbenchmark lists on one size grid, whose per-size means
    the observed crossover pairs in order; None when the accelerator never
    amortizes: the fitted lines do not cross at a positive size, or the
    measured costs do not cross inside the grid."""
    if cpu_fit.slope <= accel_fit.slope:
        return None
    n_est = (accel_fit.intercept - cpu_fit.intercept) / (cpu_fit.slope - accel_fit.slope)
    if n_est <= 0:
        return None

    cpu_means = mean_costs(cpu_ms)
    sizes = list(cpu_means)
    diffs = [c - a for c, a in zip(cpu_means.values(), mean_costs(accel_ms).values())]
    cross = next((i for i in range(1, len(diffs)) if diffs[i - 1] < 0 <= diffs[i]), None)
    if cross is None:
        return None
    n_lo, n_hi = sizes[cross - 1], sizes[cross]
    d_lo, d_hi = diffs[cross - 1], diffs[cross]
    n_obs = n_lo + (n_hi - n_lo) * (-d_lo) / (d_hi - d_lo)
    return BreakEven(op_kind=cpu_fit.op_kind, n_star_estimated=n_est, n_star_observed=n_obs)


def accelerator_risk(n_star: float, n_obs: int) -> float:
    """Amortization risk: break-even size over observed size; > 1 means the
    up-front costs do not pay off at this input (an infinite n_star, a kind
    that never amortizes, gives infinite risk)."""
    return n_star / max(1, n_obs)


def calibrate_break_evens(model: CostModel, clock: SimulatedClock, seed: int,
                          sizes: Optional[list[int]] = None, repetitions: int = 5,
                          ) -> tuple[dict[str, Optional[BreakEven]], list[Measurement], list[LineFit]]:
    """Microbenchmark every offloadable op kind of the model and derive its
    break-even; kinds that never amortize map to None."""
    results: dict[str, Optional[BreakEven]] = {}
    all_measurements: list[Measurement] = []
    fits: list[LineFit] = []
    for kind in sorted(model.accel):
        if sizes is None:
            hint = model_break_even(model, kind)
            if hint is None:
                results[kind] = None
                continue
            grid = default_size_grid(hint)
        else:
            grid = sizes
        cpu_ms = run_microbenchmark(kind, grid, model, CPU, clock, repetitions,
                                    derive_seed(seed, f"calib/{kind}/cpu"))
        acc_ms = run_microbenchmark(kind, grid, model, ACCELERATOR, clock, repetitions,
                                    derive_seed(seed, f"calib/{kind}/accel"))
        all_measurements.extend(cpu_ms + acc_ms)
        cpu_fit = fit_linear(cpu_ms)
        acc_fit = fit_linear(acc_ms)
        fits.extend([cpu_fit, acc_fit])
        results[kind] = break_even(cpu_fit, acc_fit, cpu_ms, acc_ms)
    return results, all_measurements, fits
