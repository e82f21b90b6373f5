"""In-process message delivery: one pump of handler calls, run to completion.

This is the runtime counterpart of :class:`repro.sim.network.Network`: a
reliable, fully connected message fabric whose only ordering guarantee is the
one the paper assumes — messages from the same sender to the same receiver are
delivered in the order they were sent.

Delivery is synchronous and iterative.  Each delivery is one call in the
transport's one FIFO of handler calls, the *pump*, and whoever posts while no
drain is running drains it: each handler is called in turn and runs to
completion before the next one starts.  A send issued from inside a handler
only appends, so however long a REQUEST/PRIVILEGE chain grows the stack stays
flat, every handler is atomic with respect to the others (the paper's "local
mutual exclusion" of P1/P2), and a whole chain is over by the time the
outermost ``send`` returns.  No task, no queue per node, no timer and no
event-loop pass is involved: latency is the simulator's to model
(:mod:`repro.sim.latency`), not this transport's.  A token tree
(:class:`repro.runtime.cluster.TokenTree`) registers nothing: it routes its
agents' sends itself and posts the deliveries, so many trees share one pump.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from repro.exceptions import RuntimeTransportError


class Envelope(NamedTuple):
    """A message in flight: sender, receiver and the protocol payload."""

    sender: int
    receiver: int
    message: Any


#: What a registrant is called with, once per envelope addressed to it.
Handler = Callable[[Envelope], None]


class InMemoryTransport:
    """Connects the nodes of one event loop through one FIFO of handler calls.

    :meth:`post` is the only way anything is delivered: whoever posts while no
    drain is running becomes the pump and runs every queued call, including
    the ones those calls post, before its own ``post`` returns.  If a handler
    raises, the exception reaches that caller, the pump stops, and what is
    still queued waits for the next ``post`` — one bad message does not make a
    node deaf, nor a tree sharing the pump.  Per-channel FIFO holds because
    the one queue is FIFO.  ``messages_sent`` counts every envelope, a tree's too.
    """

    def __init__(self) -> None:
        self._handlers: Dict[int, Handler] = {}
        self._queue: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        self._pumping = False
        self.messages_sent = 0
        self.closed = False

    @property
    def node_ids(self) -> List[int]:
        """Identifiers of all registered nodes."""
        return list(self._handlers)

    def register(self, node_id: int, handler: Optional[Handler] = None) -> Optional[asyncio.Queue]:
        """Deliver ``node_id``'s envelopes to ``handler(envelope)``.

        Without a handler the registrant gets an inbox instead: a fresh
        :class:`asyncio.Queue`, returned, whose ``put_nowait`` is the handler.
        """
        if node_id in self._handlers:
            raise RuntimeTransportError(f"node {node_id} is already registered")
        inbox = None
        if handler is None:
            inbox = asyncio.Queue()
            handler = inbox.put_nowait
        self._handlers[node_id] = handler
        return inbox

    def send(self, sender: int, receiver: int, message: Any) -> None:
        """Send ``message``: validate both ends, count it, :meth:`post` its delivery."""
        if self.closed:
            raise RuntimeTransportError("transport is closed")
        handler = self._handlers.get(receiver)
        if handler is None:
            raise RuntimeTransportError(f"unknown receiver node {receiver}")
        if sender not in self._handlers:
            raise RuntimeTransportError(f"unknown sender node {sender}")
        self.messages_sent += 1
        self.post(handler, Envelope(sender, receiver, message))

    def post(self, handler: Callable[[Any], None], argument: Any) -> None:
        """Queue the call ``handler(argument)``; drain unless a drain is running."""
        queue = self._queue
        queue.append((handler, argument))
        if self._pumping:
            return
        self._pumping = True
        try:
            while queue:
                handler, argument = queue.popleft()
                handler(argument)
        finally:
            self._pumping = False

    def fence(self, crashed: FrozenSet[int] = frozenset(), nodes: Optional[Mapping] = None) -> None:
        """Drop every queued envelope bound for a node not in ``crashed``.

        The recovery fence: once the token is known lost, whatever is still
        queued predates the loss and must not reach a live node.  Queued
        calls that are not envelopes stay, and so, given a tree's ``nodes``,
        does every envelope that is not for one of those agents.
        """
        kept = [
            (handler, argument)
            for handler, argument in self._queue
            if type(argument) is not Envelope
            or argument.receiver in crashed
            or (nodes is not None
                and getattr(handler, "__self__", None) is not nodes.get(argument.receiver))
        ]
        self._queue.clear()
        self._queue.extend(kept)

    async def close(self) -> None:
        """Refuse every later send; the transport cannot be reused afterwards."""
        self.closed = True
