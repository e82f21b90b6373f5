"""The paper's DAG algorithm as a system: nodes wired to the substrate.

:class:`DagSystem` is the one place the DAG nodes are built onto an engine,
network, metrics and trace, behind the :class:`~repro.baselines.base
.MutexSystem` interface every comparison experiment iterates over.
:class:`~repro.core.protocol.DagMutexProtocol` — the entry point of the
examples and the paper-walkthrough tests — is this class plus invariant
checking and system-wide introspection, nothing else.

The DAG algorithm is the one system with two node backends, and which one a
system stands on is a fact of its topology's size, not an option:

* ``"object"`` — one :class:`~repro.core.node.DagMutexNode` per participant:
  the protocol kernel (:class:`~repro.core.node.DagNodeCore`) on the
  simulator, the always-tested reference implementation;
* ``"compact"`` — the whole node population as flat list columns
  (:class:`~repro.core.compact_state.CompactDagState`), which is what makes
  the ten-million-node tier constructible in seconds within about a
  gigabyte.  ``system.nodes`` then serves lazy
  :class:`~repro.core.compact_state.DagNodeView` proxies, so code written
  against node objects keeps working unchanged.

The columns serve :data:`~repro.core.compact_state
.COMPACT_NODE_BACKEND_THRESHOLD` nodes and above.  Replays are byte-identical
across backends: ``tests/properties/test_backend_identity.py`` forces each
backend onto the same cells by patching that threshold — the one seam, out of
reach of a spec file or the CLI.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import MutexSystem, registry
from repro.core import compact_state
from repro.core.compact_state import CompactDagState, CompactNodeMap
from repro.core.node import DagMutexNode


@registry.register
class DagSystem(MutexSystem):
    """The paper's DAG-based algorithm behind the common comparison interface."""

    algorithm_name = "dag"
    uses_topology_edges = True
    #: Three scalars per node: the paper's headline storage result.  Unbounded.
    max_recommended_nodes = None
    storage_class = "constant"
    token_based = True
    storage_description = (
        "per node: HOLDING flag, NEXT pointer, FOLLOW pointer (three scalars); "
        "token carries nothing"
    )

    def _create_nodes(self) -> Dict[int, DagMutexNode]:
        # len(topology.nodes) is O(1) for every built-in topology; the
        # threshold is read through its module so the identity tests can
        # patch it.
        if len(self.topology.nodes) >= compact_state.COMPACT_NODE_BACKEND_THRESHOLD:
            state = CompactDagState(
                self.topology,
                self.network,
                metrics=self.metrics,
                trace=self.trace if self.trace.enabled else None,
                on_enter=self._on_enter,
            )
            self.compact_state = state
            self.node_backend = "compact"
            self.network.attach_columnar(state)
            return CompactNodeMap(state)
        pointers = self.topology.next_pointers()
        return {
            node_id: DagMutexNode(
                node_id,
                self.network,
                holding=(node_id == self.topology.token_holder),
                next_node=pointers[node_id],
                metrics=self.metrics,
                trace=self.trace if self.trace.enabled else None,
                on_enter=self._on_enter,
            )
            for node_id in self.topology.nodes
        }
