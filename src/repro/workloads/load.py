"""Client-load functions: how many emulated clients are active over time.

The Figure 3 experiment drives TPC-W with a sinusoid client population plus
random noise; other experiments use constant or bursty populations.  A load
function maps simulated time to an integer client count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.rng import RandomStream

__all__ = ["LoadFunction", "ConstantLoad", "SineLoad", "BurstLoad"]


class LoadFunction:
    """Interface: client count at a simulated time."""

    def clients_at(self, timestamp: float) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLoad(LoadFunction):
    """A fixed client population."""

    clients: int

    def __post_init__(self) -> None:
        if self.clients < 0:
            raise ValueError(f"client count must be non-negative: {self.clients}")

    def clients_at(self, timestamp: float) -> int:
        return self.clients


@dataclass(frozen=True)
class BurstLoad(LoadFunction):
    """A baseline population with one multiplicative burst window.

    Models a flash crowd: ``base`` clients everywhere except during
    ``[start, start + duration)``, where the population jumps to
    ``round(base * multiplier)``.  The step up and down is instantaneous,
    matching the zoo's interval-aligned ground-truth labels.
    """

    base: int
    start: float
    duration: float
    multiplier: float

    def __post_init__(self) -> None:
        # Written ``not x >= bound`` so that NaN fails each check too.
        if not self.base >= 0:
            raise ValueError(f"base client count must be non-negative: {self.base}")
        if not self.start >= 0:
            raise ValueError(f"burst start must be non-negative: {self.start}")
        if not self.duration > 0:
            raise ValueError(f"burst duration must be positive: {self.duration}")
        if not self.multiplier >= 1.0:
            raise ValueError(
                f"burst multiplier must be >= 1: {self.multiplier}"
            )

    def clients_at(self, timestamp: float) -> int:
        if self.start <= timestamp < self.start + self.duration:
            return int(round(self.base * self.multiplier))
        return self.base


class SineLoad(LoadFunction):
    """The paper's sinusoid load with random noise (Figure 3a).

    ``clients(t) = base + amplitude * sin(2*pi*t / period)`` plus uniform
    noise of ±``noise`` clients, clamped at zero.  The noise draw is keyed
    deterministically off the timestamp so repeated queries at the same time
    agree.
    """

    def __init__(
        self,
        base: int,
        amplitude: int,
        period: float,
        noise: int = 0,
        stream: RandomStream | None = None,
    ) -> None:
        if base < 0 or amplitude < 0 or noise < 0:
            raise ValueError("base, amplitude and noise must be non-negative")
        if period <= 0:
            raise ValueError(f"period must be positive: {period}")
        self.base = base
        self.amplitude = amplitude
        self.period = period
        self.noise = noise
        self._stream = stream

    def clients_at(self, timestamp: float) -> int:
        value = self.base + self.amplitude * math.sin(
            2.0 * math.pi * timestamp / self.period
        )
        if self.noise and self._stream is not None:
            value += self._stream.uniform(-self.noise, self.noise)
        return max(0, int(round(value)))
