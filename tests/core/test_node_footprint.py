"""What an object node costs: its protocol state, not its wiring.

Measured the way ``perf/`` reads ``core.state_bytes_per_node``: the bytes a
system build allocates and keeps, under ``tracemalloc``, after a warm-up build
has paid for imports and caches.  Before the delivery wiring moved to the
class, a line(5000) DAG node kept ~950 B: a two-entry dispatch dict of bound
methods (352 B), a ``partial(network.send, node_id)`` (256 B) and a bound
``on_message`` (64 B) beside its fields.  The compact columns' ceiling is
read the same way.  Nothing here reads a clock.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.baselines.base import registry
from repro.baselines.dag_adapter import DagMutexNode
from repro.core.messages import Privilege, Request
from repro.spec import TopologySpec
from repro.topology import line, star


def kept_bytes_per_node(algorithm, topology):
    system_class = registry.get(algorithm)
    system_class(topology, collect_metrics=False)  # warm-up: imports, caches
    tracemalloc.start()
    try:
        system = system_class(topology, collect_metrics=False)
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system.nodes) == topology.size
    return kept / topology.size


def test_a_line5000_dag_object_system_keeps_at_most_350_bytes_per_node():
    # ~196 B on CPython 3.11: the 128 B slotted node, its entries in the
    # system's and the network's dicts, and the id list.
    assert kept_bytes_per_node("dag", line(5000)) <= 350


def test_a_dag_node_has_no_dict_and_the_network_holds_no_callable_for_it():
    system = registry.get("dag")(star(50), collect_metrics=False)
    assert system.node_backend == "object"
    receivers = system.network._receivers
    for node_id, node in system.nodes.items():
        assert not hasattr(node, "__dict__")
        assert receivers[node_id] is node  # the process itself, nothing bound
    assert DagMutexNode.dispatch_table == {
        Request: DagMutexNode._handle_request,
        Privilege: DagMutexNode._handle_privilege,
    }
    # The kernel sends through its ``network`` slot: no per-node send callable.
    assert "send" not in DagMutexNode.__slots__ and not hasattr(DagMutexNode, "send")


def test_a_baseline_node_keeps_under_half_of_its_old_bytes():
    # The centralized scheme's nodes are nearly all wiring: 1075 B per node
    # on star(1000) before (CPython 3.11), 286 B after.  Raymond's shed the
    # same ~700 B but keep a FIFO deque each, so they only fall 1763 -> 1029.
    assert kept_bytes_per_node("centralized", star(1000)) < 1075 / 2


@pytest.mark.parametrize("kind", ["star", "tree"])
def test_the_columns_keep_at_most_52_bytes_per_node(kind):
    # 48.0 B per node on both (CPython 3.11): six list columns, 8 B a slot,
    # each filled with one shared small int, bool or ``None``, and NEXT
    # reads through to the topology's parent array until a node writes its
    # own.  The array/bytearray columns kept 13.5 B; a NEXT column copied
    # with ``list(parent)`` would add 32 B on the tree, an int per node.
    topology = TopologySpec(kind=kind, n=100_000).build()  # the tree: 131 071 nodes
    assert registry.get("dag")(topology, collect_metrics=False).node_backend == "compact"
    assert kept_bytes_per_node("dag", topology) <= 52
