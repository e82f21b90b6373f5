"""Unit tests for latency models."""

from __future__ import annotations

import pytest

from repro.sim.latency import (
    MINIMUM_DELAY,
    ConstantLatency,
    ExponentialLatency,
    UniformLatency,
)
from repro.sim.rng import SeededRNG


def test_constant_latency_value():
    model = ConstantLatency(2.5)
    assert model.delay(1, 2) == 2.5
    assert model.delay(5, 9) == 2.5


def test_constant_latency_rejects_non_positive():
    with pytest.raises(ValueError):
        ConstantLatency(0.0)
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_constant_latency_rejects_non_finite(value):
    # ``nan <= 0`` is false, so a bare sign check let NaN through.
    with pytest.raises(ValueError, match="positive and finite"):
        ConstantLatency(value)


def test_uniform_latency_within_bounds():
    model = UniformLatency(1.0, 3.0, rng=SeededRNG(1))
    for _ in range(100):
        value = model.delay(1, 2)
        assert 1.0 <= value <= 3.0


def test_uniform_latency_validates_bounds():
    with pytest.raises(ValueError):
        UniformLatency(0.0, 1.0)
    with pytest.raises(ValueError):
        UniformLatency(3.0, 2.0)
    with pytest.raises(ValueError):
        UniformLatency(float("nan"), 2.0)
    with pytest.raises(ValueError):
        UniformLatency(1.0, float("nan"))
    with pytest.raises(ValueError):
        UniformLatency(1.0, float("inf"))


def test_uniform_latency_reproducible_with_seed():
    first = UniformLatency(1.0, 2.0, rng=SeededRNG(7))
    second = UniformLatency(1.0, 2.0, rng=SeededRNG(7))
    assert [first.delay(1, 2) for _ in range(10)] == [second.delay(1, 2) for _ in range(10)]


def test_exponential_latency_respects_minimum():
    model = ExponentialLatency(1e-9, rng=SeededRNG(3))
    delays = [model.delay(1, 2) for _ in range(50)]
    assert MINIMUM_DELAY == 1e-6
    assert all(delay >= MINIMUM_DELAY for delay in delays)
    assert MINIMUM_DELAY in delays


def test_exponential_latency_validates_parameters():
    for mean in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExponentialLatency(mean)


def test_exponential_latency_mean_roughly_matches():
    model = ExponentialLatency(4.0, rng=SeededRNG(11))
    samples = [model.delay(1, 2) for _ in range(5000)]
    mean = sum(samples) / len(samples)
    assert 3.5 < mean < 4.5


def test_describe_strings_mention_parameters():
    assert "2.5" in ConstantLatency(2.5).describe()
    assert "Uniform" in UniformLatency(1, 2).describe()
    assert "mean" in ExponentialLatency(3.0).describe()
