"""Unit tests for the MutexSystem interface and the algorithm registry."""

from __future__ import annotations

import pytest

from repro.baselines import registry
from repro.baselines.base import QUIESCENCE_BUDGET, AlgorithmRegistry, MutexSystem
from repro.baselines.centralized import CentralizedSystem
from repro.exceptions import ExperimentError, ProtocolError
from repro.topology import star

EXPECTED_ALGORITHMS = {
    "centralized",
    "lamport",
    "ricart-agrawala",
    "carvalho-roucairol",
    "suzuki-kasami",
    "singhal",
    "maekawa",
    "raymond",
    "dag",
}


def test_registry_contains_every_algorithm_of_the_paper():
    assert set(registry.names()) == EXPECTED_ALGORITHMS


def test_registry_lookup_by_name_and_error_for_unknown():
    assert registry.get("centralized") is CentralizedSystem
    with pytest.raises(KeyError):
        registry.get("no-such-algorithm")


def test_registry_rejects_duplicate_names():
    local = AlgorithmRegistry()

    class First(MutexSystem):
        algorithm_name = "dup"

        def _create_nodes(self):
            return {}

    local.register(First)
    with pytest.raises(ValueError):
        local.register(First)


def test_every_registered_system_declares_storage_description():
    for name, system_class in registry.items():
        assert system_class.storage_description, f"{name} lacks a storage description"


def test_system_construction_and_basic_accessors():
    system = CentralizedSystem(star(5))
    assert system.node_ids == [1, 2, 3, 4, 5]
    assert system.node(3).node_id == 3
    with pytest.raises(ProtocolError):
        system.node(42)
    assert "centralized" in system.describe()
    assert system.nodes_in_critical_section() == []


def test_request_release_and_cs_queries():
    system = CentralizedSystem(star(5))
    system.request(2)
    system.run_until_quiescent()
    assert system.in_critical_section(2)
    assert system.nodes_in_critical_section() == [2]
    system.release(2)
    system.run_until_quiescent()
    assert not system.in_critical_section(2)


def test_run_until_quiescent_raises_when_budget_exhausted():
    system = CentralizedSystem(star(5))
    engine = system.engine

    def livelock(_):  # every event schedules the next
        engine.schedule_lite(engine.now + 1.0, livelock)

    livelock(None)
    with pytest.raises(ExperimentError, match="within 1000000 events"):
        system.run_until_quiescent()
    assert engine.processed_events == QUIESCENCE_BUDGET


def test_double_request_guard_is_shared_by_all_algorithms():
    for name, system_class in registry.items():
        system = system_class(star(4))
        system.request(2)
        with pytest.raises(ProtocolError):
            system.request(2)


def test_release_without_entry_guard_is_shared_by_all_algorithms():
    for name, system_class in registry.items():
        system = system_class(star(4))
        with pytest.raises(ProtocolError):
            system.release(3)
