"""Latency models for the simulated network.

The paper's analysis counts messages rather than wall-clock time, so the
default model is a constant one-unit delay: with it, "synchronization delay in
messages" and "synchronization delay in time units" coincide, which makes the
Chapter 6 numbers directly readable off the metrics.  Other models are
provided for robustness experiments (the algorithm's correctness must not
depend on timing, only on per-sender FIFO order, which the network enforces
regardless of the model).
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from repro.sim.rng import SeededRNG

#: The floor under every :class:`ExponentialLatency` draw.
MINIMUM_DELAY = 1e-6


class LatencyModel(abc.ABC):
    """Strategy interface producing a delivery delay for each message."""

    @abc.abstractmethod
    def delay(self, sender: int, receiver: int) -> float:
        """Return the transmission delay for a message ``sender -> receiver``.

        The returned value must be positive; zero-delay messages would allow a
        reply to arrive at the same instant the original send happened, which
        complicates FIFO reasoning without modelling anything real.
        """

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` time units (default 1.0)."""

    def __init__(self, value: float = 1.0) -> None:
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"latency must be positive and finite, got {value}")
        self.value = float(value)

    def delay(self, sender: int, receiver: int) -> float:
        return self.value

    def describe(self) -> str:
        return f"ConstantLatency({self.value})"


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` for every message."""

    def __init__(self, low: float, high: float, *, rng: Optional[SeededRNG] = None) -> None:
        if not (0 < low <= high and math.isfinite(high)):
            raise ValueError(f"require 0 < low <= high < inf, got low={low}, high={high}")
        self.low = float(low)
        self.high = float(high)
        self._rng = rng if rng is not None else SeededRNG(0, label="uniform-latency")

    def delay(self, sender: int, receiver: int) -> float:
        return self._rng.uniform(self.low, self.high)

    def describe(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Exponentially distributed delay with the given mean, floored at :data:`MINIMUM_DELAY`.

    The floor prevents pathologically small delays from collapsing the event
    ordering into near-simultaneity, which makes traces hard to read without
    changing any measured message count.
    """

    def __init__(self, mean: float, *, rng: Optional[SeededRNG] = None) -> None:
        if not (mean > 0 and math.isfinite(mean)):
            raise ValueError(f"mean must be positive and finite, got {mean}")
        self.mean = float(mean)
        self._rng = rng if rng is not None else SeededRNG(0, label="exp-latency")

    def delay(self, sender: int, receiver: int) -> float:
        return max(MINIMUM_DELAY, self._rng.exponential(self.mean))

    def describe(self) -> str:
        return f"ExponentialLatency(mean={self.mean})"
