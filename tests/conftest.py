"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from unittest import mock

import pytest

from repro.core import compact_state
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.trace import TraceRecorder
from repro.topology import (
    balanced_tree,
    line,
    paper_figure2_topology,
    paper_figure6_topology,
    random_tree,
    star,
)


def forced_node_backend(backend: str):
    """``with forced_node_backend("compact"):`` — every ``DagSystem`` built
    inside stands on that backend, whatever its size.

    The backend is a fact of the topology's size (one comparison against
    ``COMPACT_NODE_BACKEND_THRESHOLD``); patching the threshold is the one
    seam that forces it, and it is out of reach of a spec file or the CLI.
    """
    threshold = {"compact": 0, "object": sys.maxsize}[backend]
    return mock.patch.object(compact_state, "COMPACT_NODE_BACKEND_THRESHOLD", threshold)


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh simulation engine."""
    return SimulationEngine()


@pytest.fixture
def network(engine: SimulationEngine) -> Network:
    """A network attached to the fresh engine, with metrics and tracing."""
    return Network(engine, metrics=MetricsCollector(), trace=TraceRecorder())


@pytest.fixture
def star_topology():
    """A 7-node star (the paper's best topology), token at the centre."""
    return star(7)


@pytest.fixture
def line_topology():
    """A 6-node line (the paper's worst topology), token at node 5 (Figure 2)."""
    return paper_figure2_topology()


@pytest.fixture
def figure6_topology():
    """The 6-node tree of the paper's complete example (Figure 6)."""
    return paper_figure6_topology()


@pytest.fixture(params=["line", "star", "balanced", "random"])
def any_topology(request):
    """A parametrised selection of representative 9-node topologies."""
    if request.param == "line":
        return line(9, token_holder=5)
    if request.param == "star":
        return star(9)
    if request.param == "balanced":
        return balanced_tree(2, 3)
    return random_tree(9, seed=7, token_holder=3)
