"""Tests for the package-level public API and the exception hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"


def test_quickstart_snippet_from_readme_works():
    protocol = repro.DagMutexProtocol(repro.star(5))
    protocol.request(3)
    protocol.run_until_quiescent()
    assert protocol.node(3).in_critical_section
    protocol.release(3)
    assert protocol.metrics.completed_entries == 1


def test_topology_builders_exported_at_top_level():
    assert repro.line(4).size == 4
    assert repro.star(4).size == 4
    assert repro.balanced_tree(2, 1).size == 3
    assert repro.random_tree(5, seed=1).size == 5
    assert repro.radiating_star(2, 2).size == 5
    assert repro.Topology.from_edges([(1, 2)], token_holder=1).size == 2


def test_every_library_exception_derives_from_repro_error():
    exception_classes = [
        exceptions.SimulationError,
        exceptions.SchedulingError,
        exceptions.NetworkError,
        exceptions.TopologyError,
        exceptions.ProtocolError,
        exceptions.InvariantViolation,
        exceptions.WorkloadError,
        exceptions.ExperimentError,
        exceptions.RuntimeTransportError,
        exceptions.LockError,
    ]
    for exception_class in exception_classes:
        assert issubclass(exception_class, exceptions.ReproError)


def test_scheduling_error_is_a_simulation_error():
    assert issubclass(exceptions.SchedulingError, exceptions.SimulationError)
    assert issubclass(exceptions.NetworkError, exceptions.SimulationError)


def test_catching_repro_error_catches_library_failures():
    with pytest.raises(exceptions.ReproError):
        repro.line(0)  # TopologyError
    with pytest.raises(exceptions.ReproError):
        repro.DagMutexProtocol(repro.star(3)).request(99)  # ProtocolError
