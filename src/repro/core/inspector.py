"""Reconstructing the implicit waiting queue.

A central claim of the paper (Chapter 3 and the abstract) is that no node and
no message carries a queue of pending requests; instead "the queue is
maintained implicitly in a distributed manner and may be deduced by observing
the states of the nodes".  These helpers perform exactly that deduction, and
the property tests check that the deduced queue equals the order in which the
token is subsequently granted.  A ``protocol`` here is anything whose
``nodes`` maps node ids to node-shaped objects, such as a
:class:`~repro.baselines.dag_adapter.DagMutexProtocol`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.exceptions import InvariantViolation


def token_holder(protocol: Any) -> Optional[int]:
    """The node currently having the token, or ``None`` while it is in flight."""
    holders = [
        node_id for node_id, node in protocol.nodes.items() if node.has_token()
    ]
    if len(holders) > 1:
        raise InvariantViolation(
            f"token duplicated: nodes {sorted(holders)} all report having it"
        )
    return holders[0] if holders else None


def implicit_queue(protocol: Any) -> List[int]:
    """The implicit waiting queue, deduced by chasing ``FOLLOW`` pointers.

    Args:
        protocol: the running protocol instance.

    Returns:
        The list of node identifiers that will enter the critical section
        after the current token holder, in order.  Empty when nothing is
        queued or the token is in transit.

    Raises:
        InvariantViolation: if the FOLLOW chain contains a cycle, which would
            mean two nodes each expect to hand the token to the other.
    """
    nodes = protocol.nodes
    start = token_holder(protocol)
    if start is None:
        return []
    queue: List[int] = []
    seen = {start}
    current = nodes[start].follow
    while current is not None:
        if current in seen:
            raise InvariantViolation(
                f"FOLLOW pointers form a cycle: {queue + [current]}"
            )
        queue.append(current)
        seen.add(current)
        current = nodes[current].follow
    return queue


def waiting_nodes(protocol: Any) -> List[int]:
    """Nodes with an outstanding request that have not yet entered the CS."""
    return sorted(
        node_id for node_id, node in protocol.nodes.items() if node.requesting
    )
