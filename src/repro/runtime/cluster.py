"""DAG token trees of live agents, and a local cluster that runs one in one event loop."""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional

from repro.core.inspector import token_holder
from repro.core.recovery import regenerate_token
from repro.exceptions import LockError, RuntimeTransportError
from repro.runtime.lock import DistributedLock
from repro.runtime.node_runtime import AsyncDagNode
from repro.runtime.transport import InMemoryTransport
from repro.topology.base import Topology


class TokenTree:
    """One :class:`AsyncDagNode` agent per node of ``topology``, on ``transport``'s pump.

    The tree is its agents' ``network``: :meth:`send` finds the receiver in
    :attr:`nodes`, counts the message on the transport and appends its
    delivery to the pump as the simulator's lane holds one — the receiver
    class's handler for the message's type, fired as ``handler(agent,
    sender, message)`` (``on_message``, which refuses it, for a type the
    table does not name).  Nothing is registered with the transport, so
    trees can share one (a lock-service shard runs every key's tree on its
    own), and only the transport's owner closes it.
    """

    __slots__ = ("nodes", "transport")

    def __init__(self, topology: Topology, transport: InMemoryTransport) -> None:
        self.transport = transport
        pointers, holder = topology.next_pointers(), topology.token_holder
        self.nodes: Dict[int, AsyncDagNode] = {
            node_id: AsyncDagNode(
                node_id, self, holding=node_id == holder, next_node=pointers[node_id]
            )
            for node_id in topology.nodes
        }

    def send(self, sender: int, receiver: int, message: Any) -> None:
        """Count ``message`` and queue its handler call on ``receiver``'s agent.

        A stopped agent drops it here: no delivery outlives the drain that
        its send started, so dropping at send is dropping at delivery.
        """
        nodes, transport = self.nodes, self.transport
        node = nodes.get(receiver)
        if node is None or sender not in nodes or transport.closed:
            raise RuntimeTransportError(f"cannot send from node {sender} to node {receiver}")
        transport.messages_sent += 1
        if node._stopped:
            return
        transport._queue.append(
            (node.dispatch_table.get(type(message)) or type(node).on_message, node, sender, message)
        )
        if not transport._pumping:
            transport.drain()

    def regenerate_token(self, *, crashed: FrozenSet[int] = frozenset()) -> Dict[str, Any]:
        """Mint a replacement token after ``crashed`` nodes took it down.

        The simulator's recovery path, live: fence first — every undelivered
        message predates the loss, so the transport drops what it still has
        queued for a live agent of this tree — then elect, reorient and
        re-issue through :func:`repro.core.recovery.regenerate_token`, which
        refuses (:class:`~repro.exceptions.ProtocolError`, no node touched)
        while a live node still has the token.  Call it with the event loop quiesced
        (no acquire/release racing the reorientation).
        """
        crashed = frozenset(crashed)
        self.transport.fence(crashed, self.nodes)
        return regenerate_token(self.nodes, crashed=crashed)

    def token_location(self) -> Optional[int]:
        """The node currently having the token, or ``None`` while in transit."""
        return token_holder(self)


class LocalCluster(TokenTree):
    """A token tree on its own in-memory transport, locked through in this process.

    Usable as an async context manager::

        async with LocalCluster(star(5)) as cluster:
            async with cluster.lock(3):
                ...  # critical section protected across all nodes

    Args:
        topology: the logical tree and initial token holder.
    """

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology, InMemoryTransport())
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Open every node for acquires."""
        for node in self.nodes.values():
            node.start()
        self._started = True

    async def stop(self) -> None:
        """Stop all nodes and close the transport."""
        for node in self.nodes.values():
            await node.stop()
        await self.transport.close()
        self._started = False

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> List[int]:
        """All node identifiers."""
        return list(self.nodes)

    def node(self, node_id: int) -> AsyncDagNode:
        """The node object for ``node_id``."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise LockError(f"unknown node {node_id}") from None

    def lock(self, node_id: int) -> DistributedLock:
        """A :class:`DistributedLock` handle bound to ``node_id``."""
        if not self._started:
            raise LockError("cluster is not started; use 'async with LocalCluster(...)'")
        return DistributedLock(self.node(node_id))
