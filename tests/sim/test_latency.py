"""Unit tests for latency models."""

from __future__ import annotations

import pytest

from repro.sim.latency import (
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


def test_uniform_latency_reproducible_with_seed():
    first = UniformLatency(1.0, 2.0, rng=SeededRNG(7))
    second = UniformLatency(1.0, 2.0, rng=SeededRNG(7))
    assert [first.delay(1, 2) for _ in range(10)] == [second.delay(1, 2) for _ in range(10)]


def test_exponential_latency_respects_minimum():
    model = ExponentialLatency(0.001, minimum=0.5, rng=SeededRNG(3))
    assert all(model.delay(1, 2) >= 0.5 for _ in range(50))


def test_exponential_latency_validates_parameters():
    with pytest.raises(ValueError):
        ExponentialLatency(0.0)
    with pytest.raises(ValueError):
        ExponentialLatency(1.0, minimum=0.0)


def test_exponential_latency_mean_roughly_matches():
    model = ExponentialLatency(4.0, rng=SeededRNG(11))
    samples = [model.delay(1, 2) for _ in range(5000)]
    mean = sum(samples) / len(samples)
    assert 3.5 < mean < 4.5


def test_describe_strings_mention_parameters():
    assert "2.5" in ConstantLatency(2.5).describe()
    assert "Uniform" in UniformLatency(1, 2).describe()
    assert "mean" in ExponentialLatency(3.0).describe()
