"""One asyncio node running the DAG algorithm.

The protocol itself — the three variables of Figure 3 and the REQUEST /
PRIVILEGE handling — is inherited from :class:`repro.core.node.DagNodeCore`,
the same method objects the simulator's nodes run.  This module adds only
the asyncio driver: a background task per node consumes the inbox and feeds
the kernel, ``send`` goes to the transport, and the blocking point of
procedure P1 is an :class:`asyncio.Event` the kernel's entry hook sets.

Because asyncio is cooperatively scheduled and the kernel never yields while
mutating node state, each handler runs atomically with respect to the node's
own variables, which is exactly the "local mutual exclusion" execution model
the paper assumes for P1/P2.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from repro.core.node import DagNodeCore
from repro.exceptions import LockError
from repro.runtime.transport import Envelope


class AsyncDagNode(DagNodeCore):
    """A live protocol participant backed by an asyncio task.

    Args:
        node_id: this node's identifier.
        transport: any transport with the ``register``/``send`` surface —
            :class:`~repro.runtime.transport.InMemoryTransport` within one
            event loop, :class:`~repro.runtime.transport_socket.
            SocketTransport` across processes.
        holding: whether this node starts with the token.
        next_node: initial ``NEXT`` pointer (``None`` iff ``holding``).
    """

    def __init__(
        self,
        node_id: int,
        transport,
        *,
        holding: bool,
        next_node: Optional[int],
    ) -> None:
        super().__init__(node_id, holding=holding, next_node=next_node)
        self._transport = transport
        self._inbox = transport.register(node_id)
        self._entered = asyncio.Event()
        self._consumer: Optional[asyncio.Task] = None
        self._stopped = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the message consumer task (idempotent)."""
        if self._consumer is None:
            self._consumer = asyncio.create_task(
                self._consume(), name=f"dag-node-{self.node_id}"
            )

    async def stop(self) -> None:
        """Cancel the consumer task."""
        self._stopped = True
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None

    # ------------------------------------------------------------------ #
    # the lock operations: the kernel's P1, awaited
    # ------------------------------------------------------------------ #
    async def acquire(self) -> None:
        """Enter the critical section, waiting for the token if necessary."""
        if self.requesting or self.in_critical_section:
            raise LockError(f"node {self.node_id} already holds or awaits the lock")
        if self._consumer is None:
            raise LockError(f"node {self.node_id} is not started")
        self._entered.clear()
        self.request_cs()
        await self._entered.wait()

    async def release(self) -> None:
        """Leave the critical section, passing the token to FOLLOW if set."""
        if not self.in_critical_section:
            raise LockError(f"node {self.node_id} is not in its critical section")
        self.release_cs()

    # ------------------------------------------------------------------ #
    # the kernel's driver surface
    # ------------------------------------------------------------------ #
    def send(self, target: int, message: Any) -> None:
        self._transport.send(self.node_id, target, message)

    def _enter_critical_section(self) -> None:
        super()._enter_critical_section()
        self._entered.set()

    async def _consume(self) -> None:
        while not self._stopped:
            envelope: Envelope = await self._inbox.get()
            self.on_message(envelope.sender, envelope.message)
