"""A local cluster of live nodes running the DAG algorithm in one event loop."""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro.core.inspector import token_holder
from repro.core.recovery import regenerate_token
from repro.exceptions import LockError
from repro.runtime.lock import DistributedLock
from repro.runtime.node_runtime import AsyncDagNode
from repro.runtime.transport import InMemoryTransport
from repro.topology.base import Topology


class LocalCluster:
    """Spawns one :class:`AsyncDagNode` per topology node in this process.

    Usable as an async context manager::

        async with LocalCluster(star(5)) as cluster:
            async with cluster.lock(3):
                ...  # critical section protected across all nodes

    Args:
        topology: the logical tree and initial token holder.
        delay: optional per-message delay callable ``(sender, receiver) -> seconds``
            passed to the transport, e.g. to exaggerate contention in demos.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        delay: Optional[Callable[[int, int], float]] = None,
    ) -> None:
        self.topology = topology
        self.transport = InMemoryTransport(delay=delay)
        pointers = topology.next_pointers()
        self.nodes: Dict[int, AsyncDagNode] = {
            node_id: AsyncDagNode(
                node_id,
                self.transport,
                holding=(node_id == topology.token_holder),
                next_node=pointers[node_id],
            )
            for node_id in topology.nodes
        }
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

    def regenerate_token(
        self, *, crashed: FrozenSet[int] = frozenset()
    ) -> Dict[str, Any]:
        """Mint a replacement token after ``crashed`` nodes took it down.

        The simulator's recovery path, live: fence first — every undelivered
        envelope predates the loss, so the transport drops what it still has
        for a live node, delayed or queued — then elect, reorient and
        re-issue through :func:`repro.core.recovery.regenerate_token`, which
        refuses (:class:`~repro.exceptions.ProtocolError`, no node touched)
        while a live node still has the token.  Call it with the event loop quiesced
        (no acquire/release racing the reorientation).
        """
        crashed = frozenset(crashed)
        self.transport.fence(crashed)
        return regenerate_token(self.nodes, crashed=crashed)

    def token_location(self) -> Optional[int]:
        """The node currently having the token, or ``None`` while in transit."""
        return token_holder(self)
