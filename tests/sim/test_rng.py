"""Unit tests for the seeded RNG helpers."""

from __future__ import annotations

import pytest

from repro.sim.rng import SeededRNG


def test_same_seed_same_stream():
    first = SeededRNG(42)
    second = SeededRNG(42)
    assert [first.random() for _ in range(10)] == [second.random() for _ in range(10)]


def test_different_seeds_differ():
    assert [SeededRNG(1).random() for _ in range(5)] != [
        SeededRNG(2).random() for _ in range(5)
    ]


def test_child_streams_are_independent():
    root = SeededRNG(7)
    a_first = root.child("a").random()
    # Drawing from stream "b" must not change what stream "a" produces.
    root.child("b").random()
    a_second = SeededRNG(7).child("a").random()
    assert a_first == a_second


def test_child_streams_with_different_labels_differ():
    root = SeededRNG(7)
    assert root.child("x").random() != root.child("y").random()


def test_nested_children_are_deterministic():
    first = SeededRNG(3).child("level1").child("level2").random()
    second = SeededRNG(3).child("level1").child("level2").random()
    assert first == second


def test_uniform_bounds():
    rng = SeededRNG(5)
    assert all(1.0 <= rng.uniform(1.0, 2.0) <= 2.0 for _ in range(100))


def test_exponential_positive_and_validates_mean():
    rng = SeededRNG(5)
    assert all(rng.exponential(2.0) >= 0.0 for _ in range(100))
    with pytest.raises(ValueError):
        rng.exponential(0.0)


def test_randint_inclusive_bounds():
    rng = SeededRNG(9)
    values = {rng.randint(1, 3) for _ in range(200)}
    assert values == {1, 2, 3}


def test_choice_and_sample():
    rng = SeededRNG(11)
    items = ["a", "b", "c", "d"]
    assert rng.choice(items) in items


def test_seed_and_label_exposed():
    rng = SeededRNG(21, label="root")
    child = rng.child("latency")
    assert rng.seed == 21
    assert child.seed == 21
    assert child.label == "root/latency"
