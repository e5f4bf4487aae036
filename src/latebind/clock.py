"""Pluggable execution clocks.

The simulated clock charges modeled operator costs inflated by seeded
lognormal noise; charges are a pure function of (noise seed, event counter),
so two runs with the same seed agree bitwise and runs that differ only in
decision outcomes still draw identical noise per event.  Noise never
depends on the mode, so a query's modes share it: the clock keeps the
draws of the last seed it charged, and each (seed, counter) is drawn once
while its seed is charged back to back.  The wall clock measures real
elapsed time of the supplied kernel and exists for sanity checks only.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional, TypeVar

from .errors import ValidationError
from .rng import unit_at

T = TypeVar("T")

SIMULATED = "simulated"
WALL = "wall"


class SimulatedClock:
    mode = SIMULATED

    def __init__(self, sigma: float = 0.05):
        if not 0 <= sigma < math.inf:
            raise ValidationError(f"sigma must be >= 0 and finite, got {sigma}")
        self.sigma = sigma
        # (seed, {counter: noise(seed, counter)}) of the last seed charged;
        # replaced whole, so threads sharing the clock never mix two seeds.
        # Two threads on one seed may both draw a counter; they store the
        # same value, since noise is a pure function
        self._drawn: tuple[Optional[int], dict[int, float]] = (None, {})

    def noise(self, seed: int, counter: int) -> float:
        """Lognormal multiplier exp(sigma * z), z standard normal."""
        if self.sigma == 0.0:
            return 1.0
        u1 = min(unit_at(seed, 2 * counter) + 2.0**-54, 1.0)
        u2 = unit_at(seed, 2 * counter + 1)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return math.exp(self.sigma * z)

    def charge(self, model_cost: float, seed: int, counter: int,
               work: Callable[[], T] = lambda: None,
               modeled_only: bool = False) -> tuple[T, float]:
        result = work()
        drawn_seed, drawn = self._drawn
        if drawn_seed != seed:
            drawn = {}
            self._drawn = (seed, drawn)
        if counter not in drawn:
            drawn[counter] = self.noise(seed, counter)
        return result, model_cost * drawn[counter]


class WallClock:
    """Charges real elapsed microseconds of the kernel; modeled-only events
    (the accelerator is a cost-model device, there is nothing to time) fall
    back to the model cost."""

    mode = WALL

    def charge(self, model_cost: float, seed: int, counter: int,
               work: Callable[[], T] = lambda: None,
               modeled_only: bool = False) -> tuple[T, float]:
        if modeled_only:
            return work(), model_cost
        t0 = time.perf_counter()
        result = work()
        return result, (time.perf_counter() - t0) * 1e6
