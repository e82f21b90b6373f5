"""Tests for the sweep scenario matrix and per-scenario seeding."""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.sweep import (
    LARGE_TIER_ALGORITHMS,
    SWEEP_ALGORITHMS,
    SweepScenario,
    build_sweep_topology,
    build_sweep_workload,
    default_sweep_matrix,
    large_sweep_matrix,
    scenario_seed,
    smoke_sweep_matrix,
)


def test_sweep_covers_all_nine_algorithms():
    assert len(SWEEP_ALGORITHMS) == 9
    assert "dag" in SWEEP_ALGORITHMS
    for matrix in (smoke_sweep_matrix(), default_sweep_matrix()):
        assert {spec.algorithm for spec in matrix} == set(SWEEP_ALGORITHMS)


def test_default_matrix_shape():
    matrix = default_sweep_matrix()
    assert len(matrix) == 9 * 3 * 2 * 4  # algorithms x kinds x sizes x tiers
    assert {spec.kind for spec in matrix} == {"line", "star", "tree"}
    assert {spec.workload for spec in matrix} == {
        "light", "heavy", "bursty", "hotspot"
    }
    names = [spec.name for spec in matrix]
    assert len(set(names)) == len(names)


def test_large_matrix_adds_10k_tier_for_scalable_algorithms():
    matrix = large_sweep_matrix()
    large = [spec for spec in matrix if spec.n == 10000]
    assert {spec.algorithm for spec in large} == set(LARGE_TIER_ALGORITHMS)
    assert all(not spec.collect_metrics for spec in large)
    assert all(spec.collect_metrics for spec in matrix if spec.n < 10000)


def test_algorithm_subset_filters_every_tier():
    matrix = large_sweep_matrix(algorithms=["dag", "lamport"])
    assert {spec.algorithm for spec in matrix} == {"dag", "lamport"}
    assert any(spec.n == 10000 and spec.algorithm == "dag" for spec in matrix)
    assert not any(spec.n == 10000 and spec.algorithm == "lamport" for spec in matrix)


def test_scenario_seed_is_a_pure_function_of_the_name():
    spec = SweepScenario("dag", "star", 9, "heavy")
    assert spec.seed == scenario_seed("dag-star-n9-heavy")
    assert scenario_seed("a") != scenario_seed("b")
    # Round-tripping through the picklable dict form preserves identity.
    clone = SweepScenario.from_dict(spec.as_dict())
    assert clone == spec and clone.seed == spec.seed


def test_sweep_workloads_are_deterministic_per_scenario():
    topology = build_sweep_topology("star", 9)
    for tier in ("light", "heavy", "bursty", "hotspot"):
        seed = scenario_seed(f"x-star-n9-{tier}")
        first = build_sweep_workload(topology, tier, seed=seed)
        second = build_sweep_workload(topology, tier, seed=seed)
        assert first.requests == second.requests, tier
        assert len(first) > 0, tier


def test_unknown_workload_tier_is_rejected():
    topology = build_sweep_topology("star", 9)
    with pytest.raises(WorkloadError):
        build_sweep_workload(topology, "tsunami", seed=1)


def test_xlarge_sweep_matrix_adds_100k_scalable_cells():
    from repro.sweep import large_sweep_matrix, xlarge_sweep_matrix
    from repro.sweep.matrix import LARGE_TIER_ALGORITHMS

    large = large_sweep_matrix()
    xlarge = xlarge_sweep_matrix()
    assert xlarge[: len(large)] == large
    extra = xlarge[len(large):]
    assert all(spec.n == 100000 and spec.workload == "heavy" for spec in extra)
    assert {spec.algorithm for spec in extra} == set(LARGE_TIER_ALGORITHMS)
    assert all(not spec.collect_metrics for spec in extra)


def test_xxlarge_sweep_matrix_adds_1m_o1_state_cells():
    from repro.sweep import xlarge_sweep_matrix, xxlarge_sweep_matrix
    from repro.sweep.matrix import XXLARGE_TIER_ALGORITHMS

    xlarge = xlarge_sweep_matrix()
    xxlarge = xxlarge_sweep_matrix()
    assert xxlarge[: len(xlarge)] == xlarge  # additive
    extra = xxlarge[len(xlarge):]
    assert all(spec.n == 1_000_000 and spec.workload == "heavy" for spec in extra)
    assert {spec.algorithm for spec in extra} == set(XXLARGE_TIER_ALGORITHMS)
    # Raymond's per-node queues price it out of the 1M tier's memory budget.
    assert "raymond" not in {spec.algorithm for spec in extra}
    assert all(not spec.collect_metrics for spec in extra)
    filtered = xxlarge_sweep_matrix(algorithms=["dag"])
    assert {spec.algorithm for spec in filtered} == {"dag"}


def test_sweep_heavy_tier_streams_at_the_node_threshold(monkeypatch):
    from repro.sweep import matrix as matrix_module
    from repro.workload import StreamingWorkload, Workload

    topology = build_sweep_topology("star", 30)
    materialised = build_sweep_workload(topology, "heavy", seed=1)
    assert isinstance(materialised, Workload)
    assert len(materialised) == 150  # 5 rounds, frozen definition
    monkeypatch.setattr(matrix_module, "STREAMING_NODE_THRESHOLD", 30)
    streamed = build_sweep_workload(topology, "heavy", seed=1)
    assert isinstance(streamed, StreamingWorkload)
    assert len(streamed) == matrix_module.XXLARGE_HEAVY_ROUNDS * 30
