"""Tests for the sweep scenario matrix and per-scenario seeding."""

from __future__ import annotations

import pytest

from repro import cells
from repro import spec as spec_module
from repro.baselines import registry
from repro.cells import tier_workload
from repro.exceptions import ExperimentError
from repro.spec import ExperimentSpec, TopologySpec
from repro.sweep import (
    SWEEP_ALGORITHMS,
    Cell,
    scenario_seed,
    sweep_cell,
    sweep_matrix,
)


def algorithm(cell):
    return cell.experiment.algorithm


def size(cell):
    return cell.experiment.topology.n


def demand(cell):
    return cell.experiment.workload.tier


def sweep_workload(topology, tier, *, seed):
    return tier_workload(tier, len(topology.nodes), heavy_rounds=5).build(
        topology, seed=seed
    )


def test_sweep_covers_all_nine_algorithms():
    assert len(SWEEP_ALGORITHMS) == 9
    assert "dag" in SWEEP_ALGORITHMS
    for matrix in (sweep_matrix("smoke"), sweep_matrix()):
        assert {algorithm(cell) for cell in matrix} == set(SWEEP_ALGORITHMS)


def test_default_matrix_shape():
    matrix = sweep_matrix()
    assert len(matrix) == 9 * 3 * 2 * 4  # algorithms x kinds x sizes x tiers
    assert {cell.experiment.topology.kind for cell in matrix} == {"line", "star", "tree"}
    assert {demand(cell) for cell in matrix} == {
        "light", "heavy", "bursty", "hotspot"
    }
    names = [cell.name for cell in matrix]
    assert len(set(names)) == len(names)


def test_large_matrix_adds_10k_tier_for_scalable_algorithms():
    matrix = sweep_matrix("large")
    large = [cell for cell in matrix if size(cell) == 10000]
    assert {algorithm(cell) for cell in large} == set(registry.names_for_scale(10_000))
    assert all(not cell.experiment.collect_metrics for cell in large)
    assert all(cell.experiment.collect_metrics for cell in matrix if size(cell) < 10000)


def test_algorithm_subset_filters_every_tier():
    matrix = sweep_matrix("large", algorithms=["dag", "lamport"])
    assert {algorithm(cell) for cell in matrix} == {"dag", "lamport"}
    assert any(size(cell) == 10000 and algorithm(cell) == "dag" for cell in matrix)
    assert not any(size(cell) == 10000 and algorithm(cell) == "lamport" for cell in matrix)


def test_scenario_seed_is_a_pure_function_of_the_name():
    cell = sweep_cell("dag", "star", 9, "heavy")
    assert cell.name == "dag-star-n9-heavy"
    assert cell.experiment.seed == scenario_seed("dag-star-n9-heavy")
    assert scenario_seed("a") != scenario_seed("b")
    # Round-tripping through the child-process payload preserves identity.
    payload = {"name": cell.name, "experiment": cell.experiment.to_dict()}
    clone = Cell(payload["name"], ExperimentSpec.from_dict(payload["experiment"]))
    assert clone == cell


def test_sweep_workloads_are_deterministic_per_scenario():
    topology = TopologySpec(kind="star", n=9).build()
    for tier in ("light", "heavy", "bursty", "hotspot"):
        seed = scenario_seed(f"x-star-n9-{tier}")
        first = sweep_workload(topology, tier, seed=seed)
        second = sweep_workload(topology, tier, seed=seed)
        assert first.requests == second.requests, tier
        assert len(first) > 0, tier


def test_unknown_workload_tier_is_rejected():
    # The refusal is WorkloadSpec's own (an ExperimentError naming the tiers).
    with pytest.raises(ExperimentError, match="unknown workload tier"):
        tier_workload("tsunami", 9, heavy_rounds=5)
    with pytest.raises(ExperimentError, match="unknown workload tier"):
        sweep_cell("dag", "star", 9, "tsunami")


def test_xlarge_sweep_matrix_adds_100k_scalable_cells():
    large = sweep_matrix("large")
    xlarge = sweep_matrix("xlarge")
    assert xlarge[: len(large)] == large
    extra = xlarge[len(large):]
    assert all(size(cell) == 100000 and demand(cell) == "heavy" for cell in extra)
    assert {algorithm(cell) for cell in extra} == set(registry.names_for_scale(100_000))
    assert all(not cell.experiment.collect_metrics for cell in extra)


def test_xxlarge_sweep_matrix_adds_1m_o1_state_cells():
    xlarge = sweep_matrix("xlarge")
    xxlarge = sweep_matrix("xxlarge")
    assert xxlarge[: len(xlarge)] == xlarge  # additive
    extra = xxlarge[len(xlarge):]
    assert all(size(cell) == 1_000_000 and demand(cell) == "heavy" for cell in extra)
    assert {algorithm(cell) for cell in extra} == set(registry.names_for_scale(1_000_000))
    # Raymond's per-node queues price it out of the 1M tier's memory budget.
    assert "raymond" not in {algorithm(cell) for cell in extra}
    assert all(not cell.experiment.collect_metrics for cell in extra)
    filtered = sweep_matrix("xxlarge", algorithms=["dag"])
    assert {algorithm(cell) for cell in filtered} == {"dag"}


def test_sweep_heavy_tier_switches_its_rounds_at_the_node_threshold(monkeypatch):
    topology = TopologySpec(kind="star", n=30).build()
    below = sweep_workload(topology, "heavy", seed=1)
    assert len(below) == 150  # 5 rounds, frozen definition
    monkeypatch.setattr(spec_module, "STREAMING_NODE_THRESHOLD", 30)
    at = sweep_workload(topology, "heavy", seed=1)
    assert len(at) == cells.XXLARGE_HEAVY_ROUNDS * 30
    assert list(at) == list(below)[: len(at)]


def test_a_document_without_a_tier_refuses_it():
    from repro.exceptions import WorkloadError

    with pytest.raises(WorkloadError, match="no 'large' tier"):
        cells.baseline_matrix("large")
    with pytest.raises(WorkloadError, match="no 'xxxlarge' tier"):
        sweep_matrix("xxxlarge")
    with pytest.raises(WorkloadError, match="no 'nope' tier"):
        cells.bench_matrix("nope")
