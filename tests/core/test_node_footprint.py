"""What an object node costs: its protocol state, not its wiring.

Measured the way ``perf/`` reads ``core.state_bytes_per_node``: the bytes a
system build allocates and keeps, under ``tracemalloc``, after a warm-up build
has paid for imports and caches.  Before the delivery wiring moved to the
class, a line(5000) DAG node kept ~950 B: a two-entry dispatch dict of bound
methods (352 B), a ``partial(network.send, node_id)`` (256 B) and a bound
``on_message`` (64 B) beside its fields.  Nothing here reads a clock.
"""

from __future__ import annotations

import tracemalloc

from repro.baselines.base import registry
from repro.core.messages import Privilege, Request
from repro.core.node import DagMutexNode
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
