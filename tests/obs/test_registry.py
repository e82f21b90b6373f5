"""Unit tests for the metrics registry: instruments, sampling, null path."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
)


def test_gauge_set_and_watermark():
    gauge = Gauge("depth")
    gauge.set(3)
    gauge.update_max(1)
    assert gauge.value == 3
    gauge.update_max(7)
    assert gauge.value == 7
    assert gauge.snapshot() == {"type": "gauge", "value": 7}


def test_callback_gauge_reads_lazily():
    box = {"n": 0}
    gauge = Gauge("pending")
    gauge.set_function(lambda: box["n"])
    box["n"] = 42
    assert gauge.value == 42
    # update_max must not clobber a callback gauge
    gauge.update_max(10_000)
    assert gauge.value == 42


def test_histogram_buckets_and_overflow():
    histogram = Histogram("wait")
    for value in (0.5, 5.0, 50.0, 50_000.0):
        histogram.observe(value)
    snap = histogram.snapshot()
    counts = dict(snap["buckets"])
    assert list(counts) == list(DEFAULT_LATENCY_BUCKETS_MS)
    assert (counts[1.0], counts[5.0], counts[50.0]) == (1, 1, 1)
    assert sum(counts.values()) == 3
    assert snap["overflow"] == 1
    assert snap["observed"] == 4
    assert snap["recorded"] == 4
    assert snap["max"] == 50_000.0


def test_histogram_stride_sampling_is_deterministic():
    def run() -> dict:
        histogram = Histogram("wait", sample_every=3)
        for value in range(1, 8):  # 7 observations
            histogram.observe(float(value))
        return histogram.snapshot()

    first, second = run(), run()
    # Every call is counted; only every 3rd (starting with the 1st) recorded.
    assert first["observed"] == 7
    assert first["recorded"] == 3
    # Stride sampling, not random sampling: replays agree byte-for-byte.
    assert first == second


def test_histogram_rejects_a_bad_stride():
    with pytest.raises(ExperimentError):
        Histogram("bad", sample_every=0)
    with pytest.raises(ExperimentError):
        MetricsRegistry(sample_every=0)


def test_enabled_registry_registers_once_by_name():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    assert registry.gauge("depth") is gauge
    histogram = registry.histogram("wait")
    assert registry.histogram("wait") is histogram
    assert histogram.bounds == DEFAULT_LATENCY_BUCKETS_MS
    gauge.set(1)
    snap = registry.snapshot()
    assert snap["enabled"] is True
    assert sorted(snap["metrics"]) == ["depth", "wait"]
    assert snap["metrics"]["depth"]["value"] == 1


def test_disabled_registry_hands_out_shared_null_instruments():
    registry = MetricsRegistry(enabled=False)
    assert registry.gauge("depth") is NULL_GAUGE
    assert registry.histogram("wait") is NULL_HISTOGRAM
    # The null instruments swallow everything without recording.
    NULL_GAUGE.set(9)
    NULL_GAUGE.update_max(9)
    NULL_HISTOGRAM.observe(1.0)
    assert NULL_GAUGE.value == 0
    assert NULL_HISTOGRAM.observed == 0
    assert registry.snapshot() == {
        "enabled": False,
        "sample_every": 1,
        "metrics": {},
    }


def test_null_registry_is_disabled():
    assert NULL_REGISTRY.enabled is False
    assert NULL_REGISTRY.gauge("anything") is NULL_GAUGE


def test_registry_sampling_knob_reaches_histograms():
    registry = MetricsRegistry(sample_every=2)
    histogram = registry.histogram("wait")
    for value in (1.0, 2.0, 3.0):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["observed"] == 3
    assert snap["recorded"] == 2
