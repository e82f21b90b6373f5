"""The metrics registry: gauges and fixed-bucket histograms.

Design constraints, in order:

1. **Near-zero cost while disabled.**  Instrumented code asks the registry
   for its instruments once (construction time) and calls ``set``/
   ``observe`` unconditionally on the hot path.  A disabled registry hands
   out the shared *null* instruments, whose methods are empty — one Python
   call, no branches, no allocation.  Code that would pay extra to *prepare*
   an observation (a clock read, a queue walk) additionally guards on
   ``registry.enabled``.
2. **Determinism where it matters.**  Sampling is stride-based (every Nth
   observation), not random: two replays of a deterministic workload observe
   the same sample set, so snapshot documents can be compared byte-for-byte.
3. **Plain data out.**  :meth:`MetricsRegistry.snapshot` returns a sorted,
   JSON-ready dict; canonical serialization lives in
   :mod:`repro.obs.snapshot`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ExperimentError

#: Default histogram bounds for acquire-latency observations, in
#: milliseconds.  Roughly logarithmic from sub-millisecond (uncontended
#: unix-socket round trip) to tens of seconds (deadline territory).
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)


class Gauge:
    """A point-in-time value: set directly, or read through a callback.

    Callback gauges (:meth:`set_function`) are how the engine and the shard
    register without paying anything on their hot paths — the value is
    computed only when a snapshot is taken.
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Any = 0
        self._fn: Optional[Callable[[], Any]] = None

    def set(self, value: Any) -> None:
        self._value = value
        self._fn = None

    def set_function(self, fn: Callable[[], Any]) -> None:
        """Read the gauge through ``fn`` at snapshot time (lazy gauge)."""
        self._fn = fn

    def update_max(self, value: Any) -> None:
        """Keep the running maximum (a high-watermark gauge)."""
        if self._fn is None and value > self._value:
            self._value = value

    @property
    def value(self) -> Any:
        return self._fn() if self._fn is not None else self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A fixed-bucket histogram with stride sampling.

    ``bounds`` are :data:`DEFAULT_LATENCY_BUCKETS_MS`, ascending upper edges;
    an observation lands in the first bucket whose bound it does not exceed,
    or in the overflow bucket.  With ``sample_every=N`` only every Nth
    observation is recorded (the first is always recorded, so short runs
    still produce data); ``observed`` counts every call either way, so the
    sampled fraction is visible in snapshots.
    """

    __slots__ = ("name", "counts", "overflow", "observed", "recorded",
                 "total", "max", "_stride", "_tick")

    bounds = DEFAULT_LATENCY_BUCKETS_MS

    def __init__(self, name: str, *, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ExperimentError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.name = name
        self.counts: List[int] = [0] * len(self.bounds)
        self.overflow = 0
        self.observed = 0
        self.recorded = 0
        self.total = 0.0
        self.max = 0.0
        self._stride = sample_every
        self._tick = 0

    def observe(self, value: float) -> None:
        self.observed += 1
        tick = self._tick
        self._tick = tick + 1
        if tick % self._stride:
            return
        self.recorded += 1
        self.total += value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "buckets": [
                [bound, count] for bound, count in zip(self.bounds, self.counts)
            ],
            "overflow": self.overflow,
            "observed": self.observed,
            "recorded": self.recorded,
            "sum": round(self.total, 6),
            "max": round(self.max, 6),
            "mean": round(self.total / self.recorded, 6) if self.recorded else 0.0,
        }


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: Any) -> None:
        pass

    def set_function(self, fn: Callable[[], Any]) -> None:
        pass

    def update_max(self, value: Any) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: The shared disabled instruments: every disabled registry hands these out,
#: so an instrumented hot path holds exactly one no-op call while obs is off.
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """A named collection of instruments with an on/off switch.

    ``enabled=False`` (the default posture for production hot paths) makes
    every factory return the shared null instrument — callers keep their
    code shape, pay one empty call, and :meth:`snapshot` reports only the
    disabled marker.  ``sample_every`` is the sampling knob, applied to
    histograms (gauges are O(1) and stay exact).
    """

    def __init__(self, *, enabled: bool = True, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ExperimentError(f"sample_every must be >= 1, got {sample_every}")
        self.enabled = enabled
        self.sample_every = sample_every
        self._instruments: Dict[str, Any] = {}

    def _register(self, name: str, factory: Callable[[], Any]) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self._register(name, lambda: Gauge(name))

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._register(
            name, lambda: Histogram(name, sample_every=self.sample_every)
        )

    def snapshot(self) -> Dict[str, Any]:
        """All instruments, sorted by name, as plain JSON-ready data."""
        return {
            "enabled": self.enabled,
            "sample_every": self.sample_every,
            "metrics": {
                name: instrument.snapshot()
                for name, instrument in sorted(self._instruments.items())
            },
        }


#: A process-wide disabled registry for callers that were handed no registry
#: at all: ``(spec.obs or NULL_REGISTRY)``-style defaults.
NULL_REGISTRY = MetricsRegistry(enabled=False)


__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
]
