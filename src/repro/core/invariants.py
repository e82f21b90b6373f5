"""Runtime checks for the safety properties proved in Chapter 5.

The checker inspects a running :class:`~repro.baselines.dag_adapter
.DagMutexProtocol` (it reads only ``nodes``, ``topology.edges`` and
``network.messages_in_flight``) and raises
:class:`~repro.exceptions.InvariantViolation` on the first breach.  Checked
after every simulation event during stress tests, these correspond to the
paper's claims:

* **Mutual exclusion** (Theorem, §5.1): at most one node has the token and at
  most one node is inside its critical section.
* **Structure preservation** (assumption 2, §5.2): a node's ``NEXT`` pointer
  always targets a neighbour in the original logical tree, so forwarding
  requests only ever reverses edges and the undirected shape stays a tree.
* **Lemma 2**: the ``NEXT`` graph is acyclic — from any node, following
  ``NEXT`` pointers reaches a sink without revisiting a node.
* **Implicit queue sanity**: ``FOLLOW`` pointers never form a cycle and only
  nodes that are requesting or executing are referenced by someone's
  ``FOLLOW``.
* **Quiescent shape** (checked only when no messages are in flight and nobody
  is requesting): exactly one sink exists, it has the token, and every
  ``FOLLOW`` variable is empty.
"""

from __future__ import annotations

from typing import Any, Set

from repro.exceptions import InvariantViolation


class InvariantChecker:
    """Checks the Chapter 5 safety invariants of a protocol instance."""

    def __init__(self, protocol: Any) -> None:
        self._protocol = protocol
        self._tree_edges: Set[frozenset] = {
            frozenset(edge) for edge in protocol.topology.edges
        }
        self.checks_performed = 0

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def check(self) -> None:
        """Run every invariant that must hold at *all* times."""
        self.checks_performed += 1
        self.check_single_token()
        self.check_mutual_exclusion()
        self.check_edges_stay_in_tree()
        self.check_next_graph_acyclic()
        self.check_follow_chain()
        if self._is_quiescent():
            self.check_quiescent_shape()

    # ------------------------------------------------------------------ #
    # individual invariants
    # ------------------------------------------------------------------ #
    def check_single_token(self) -> None:
        """At most one node has the token (§5.1)."""
        holders = [
            node_id
            for node_id, node in self._protocol.nodes.items()
            if node.has_token()
        ]
        if len(holders) > 1:
            raise InvariantViolation(
                f"mutual exclusion broken: nodes {sorted(holders)} all have the token"
            )

    def check_mutual_exclusion(self) -> None:
        """At most one node is inside its critical section (§5.1)."""
        executing = [
            node_id
            for node_id, node in self._protocol.nodes.items()
            if node.in_critical_section
        ]
        if len(executing) > 1:
            raise InvariantViolation(
                f"mutual exclusion broken: nodes {sorted(executing)} are all in their "
                "critical sections"
            )

    def check_edges_stay_in_tree(self) -> None:
        """Every ``NEXT`` pointer follows an edge of the original tree."""
        for node_id, node in self._protocol.nodes.items():
            target = node.next_node
            if target is None:
                continue
            if frozenset((node_id, target)) not in self._tree_edges:
                raise InvariantViolation(
                    f"node {node_id} points at {target}, which is not adjacent in the "
                    "original logical tree; the acyclic structure is no longer guaranteed"
                )

    def check_next_graph_acyclic(self) -> None:
        """Following ``NEXT`` pointers from any node terminates at a sink (Lemma 2)."""
        nodes = self._protocol.nodes
        for start in nodes:
            seen = set()
            current = start
            while current is not None:
                if current in seen:
                    raise InvariantViolation(
                        f"NEXT pointers form a cycle reachable from node {start}"
                    )
                seen.add(current)
                current = nodes[current].next_node
                if len(seen) > len(nodes):
                    raise InvariantViolation(
                        f"NEXT chain from node {start} exceeds the node count"
                    )

    def check_follow_chain(self) -> None:
        """``FOLLOW`` pointers reference only waiting/executing nodes, acyclically."""
        nodes = self._protocol.nodes
        referenced: Set[int] = set()
        for node_id, node in nodes.items():
            successor = node.follow
            if successor is None:
                continue
            if successor not in nodes:
                raise InvariantViolation(
                    f"node {node_id} FOLLOW points at unknown node {successor}"
                )
            if successor == node_id:
                raise InvariantViolation(f"node {node_id} FOLLOW points at itself")
            if successor in referenced:
                raise InvariantViolation(
                    f"node {successor} is referenced by more than one FOLLOW pointer"
                )
            referenced.add(successor)
            target = nodes[successor]
            if not (target.requesting or target.in_critical_section):
                raise InvariantViolation(
                    f"node {node_id} FOLLOW points at node {successor}, which is neither "
                    "waiting for the token nor executing"
                )
        # Acyclicity: since each node has at most one FOLLOW and no node is
        # referenced twice, a cycle would have to be disjoint from any chain
        # started at an unreferenced node; walk each chain to rule it out.
        for node_id, node in nodes.items():
            seen = {node_id}
            current = node.follow
            while current is not None:
                if current in seen:
                    raise InvariantViolation(
                        f"FOLLOW pointers form a cycle starting from node {node_id}"
                    )
                seen.add(current)
                current = nodes[current].follow

    def check_quiescent_shape(self) -> None:
        """With no traffic and no requests the structure matches Chapter 3."""
        nodes = self._protocol.nodes
        sinks = [node_id for node_id, node in nodes.items() if node.next_node is None]
        if len(sinks) != 1:
            raise InvariantViolation(
                f"quiescent system must have exactly one sink, found {sorted(sinks)}"
            )
        sink = sinks[0]
        if not nodes[sink].has_token():
            raise InvariantViolation(
                f"quiescent sink {sink} does not have the token"
            )
        followers = {
            node_id: node.follow for node_id, node in nodes.items() if node.follow is not None
        }
        if followers:
            raise InvariantViolation(
                f"quiescent system must have empty FOLLOW variables, found {followers}"
            )
        # Every node must reach the sink (Lemma 2 specialised to quiescence).
        for start in nodes:
            current = start
            hops = 0
            while current is not None and hops <= len(nodes):
                current = nodes[current].next_node
                hops += 1
            if hops > len(nodes):
                raise InvariantViolation(
                    f"node {start} cannot reach the sink within {len(nodes)} hops"
                )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _is_quiescent(self) -> bool:
        if self._protocol.network.messages_in_flight > 0:
            return False
        return not any(
            node.requesting or node.in_critical_section
            for node in self._protocol.nodes.values()
        )
