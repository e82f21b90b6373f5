"""One live node running the DAG algorithm.

The protocol itself — the three variables of Figure 3 and the REQUEST /
PRIVILEGE handling — is inherited from :class:`repro.core.node.DagNodeCore`,
the same method objects the simulator's nodes run.  This module adds only
the driver: the node registers the kernel's ``on_message`` as its handler on
the transport, ``send`` goes to the transport, and the blocking point of
procedure P1 is a callback — :meth:`AsyncDagNode.acquire_then` stores it and
the kernel's entry hook hands it to the transport's mailbox to be called.
A node at rest is the kernel's fields and nothing else: no task, no queue,
no event.

The transport calls one handler at a time and a handler never yields, so
each one runs atomically with respect to every node's variables, which is
exactly the "local mutual exclusion" execution model the paper assumes for
P1/P2.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.core.node import DagNodeCore
from repro.exceptions import LockError
from repro.runtime.transport import Envelope


class AsyncDagNode(DagNodeCore):
    """A live protocol participant, driven by its transport's deliveries.

    Args:
        node_id: this node's identifier.
        transport: the :class:`~repro.runtime.transport.InMemoryTransport`
            connecting this node to its peers in the same event loop.
        holding: whether this node starts with the token.
        next_node: initial ``NEXT`` pointer (``None`` iff ``holding``).
    """

    #: A warm lock key holds one agent per tree node: slots, no ``__dict__``.
    __slots__ = ("_transport", "_granted", "_started", "_stopped")

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
        transport.register(node_id, self._deliver)
        self._granted: Optional[Callable[[int], None]] = None
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Open the node for acquires (idempotent)."""
        self._started = True

    async def stop(self) -> None:
        """Leave the protocol: whatever is sent here from now on is dropped."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # the lock operations: the kernel's P1, its wait point a callback
    # ------------------------------------------------------------------ #
    def acquire_then(self, granted: Callable[[int], None]) -> None:
        """Ask for the critical section; ``granted(node_id)`` runs once inside it.

        The call comes through the transport's mailbox: at once if the token
        idles here, otherwise from the stack of whoever's send delivers the
        PRIVILEGE.
        """
        self._check_may_ask()
        self._granted = granted
        self.request_cs()

    async def acquire(self) -> None:
        """Enter the critical section, waiting for the token if necessary.

        A REQUEST cannot be recalled, so a cancelled wait (a timeout is one)
        leaves it queued; the grant it earns then has no consumer and hands
        the token straight on — the lock service's rule for a cancelled
        acquire.
        """
        if self.holding:
            self._check_may_ask()
            self.request_cs()  # the token idles here: nothing to wait for
            return
        entered = asyncio.get_running_loop().create_future()

        def granted(_node_id: int) -> None:
            if entered.done():
                self.release_cs()  # the waiter gave up
            else:
                entered.set_result(None)

        self.acquire_then(granted)
        try:
            await entered
        except asyncio.CancelledError:
            if not entered.cancelled():
                self.release_cs()  # the grant raced the cancel
            raise

    def _check_may_ask(self) -> None:
        if self.requesting or self.in_critical_section:
            raise LockError(f"node {self.node_id} already holds or awaits the lock")
        if not self._started:
            raise LockError(f"node {self.node_id} is not started")

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
        granted, self._granted = self._granted, None
        if granted is not None:
            # Through the mailbox, not called: a waiter that hands the token
            # straight on would otherwise nest one frame per hand-off.
            self._transport.post(granted, self.node_id)

    def _deliver(self, envelope: Envelope) -> None:
        if not self._stopped:
            self.on_message(envelope.sender, envelope.message)
