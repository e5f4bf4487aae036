"""The simulated execution clock.

It charges modeled operator costs inflated by seeded lognormal noise;
charges are a pure function of (noise seed, event counter), so two runs
with the same seed agree bitwise and runs that differ only in decision
outcomes still draw identical noise per event.  Noise never depends on
the mode, so a query's modes share it: the clock keeps the draws of the
last seed it charged, and each (seed, counter) is drawn once while its
seed is charged back to back.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import ValidationError
from .rng import unit_at

# exp(sigma * z) overflows a float once sigma * |z| > 709.78, and a draw
# reaches |z| = sqrt(-2 ln 2**-54) = 8.65, so no sigma above 82 is safe
MAX_SIGMA = 82.0


class SimulatedClock:
    def __init__(self, sigma: float = 0.05):
        if not 0 <= sigma <= MAX_SIGMA:
            raise ValidationError(f"sigma must be >= 0 and finite, at most {MAX_SIGMA}, "
                                  f"got {sigma}")
        self.sigma = sigma
        # (seed, {counter: noise(seed, counter)}) of the last seed charged
        self._drawn: tuple[Optional[int], dict[int, float]] = (None, {})

    def noise(self, seed: int, counter: int) -> float:
        """Lognormal multiplier exp(sigma * z), z standard normal; exactly 1.0
        at sigma 0, since z is finite."""
        u1 = min(unit_at(seed, 2 * counter) + 2.0**-54, 1.0)
        u2 = unit_at(seed, 2 * counter + 1)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return math.exp(self.sigma * z)

    def charge(self, model_cost: float, seed: int, counter: int) -> float:
        """model_cost times the noise of event (seed, counter)."""
        drawn_seed, drawn = self._drawn
        if drawn_seed != seed:
            drawn = {}
            self._drawn = (seed, drawn)
        if counter not in drawn:
            drawn[counter] = self.noise(seed, counter)
        return model_cost * drawn[counter]

