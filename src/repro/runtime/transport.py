"""In-process message delivery: one mailbox per transport, run to completion.

This is the runtime counterpart of :class:`repro.sim.network.Network`: a
reliable, fully connected message fabric whose only ordering guarantee is the
one the paper assumes — messages from the same sender to the same receiver are
delivered in the order they were sent.

Delivery is synchronous and iterative.  A receiver registers a *handler*;
``send`` appends the envelope to the transport's one FIFO of handler calls
and, unless a drain is already running further up the stack, drains it: each
envelope's handler is called in turn and runs to completion before the next
one starts.  A send issued from inside a handler only appends, so however long
a REQUEST/PRIVILEGE chain grows the stack stays flat, every handler is atomic
with respect to the others (the paper's "local mutual exclusion" of P1/P2),
and a whole chain is over by the time the outermost ``send`` returns.  No task,
no queue per node and no event-loop pass is involved.

An optional per-message delay simulates network latency: a delayed envelope
waits on a loop timer, never earlier than the one sent before it on the same
directed channel, so the FIFO guarantee survives arbitrary delays.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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
    node deaf.

    Args:
        delay: optional callable ``delay(sender, receiver) -> float`` giving a
            per-message delay in seconds; ``None`` delivers immediately.
    """

    def __init__(self, *, delay: Optional[Callable[[int, int], float]] = None) -> None:
        self._handlers: Dict[int, Handler] = {}
        self._queue: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        self._pumping = False
        self._messages_sent = 0
        self._delay = delay
        # Per directed channel: the delayed envelopes still in flight, oldest
        # first, each with the loop time it is due; and the one timer armed
        # for the oldest of them.
        self._channels: Dict[Tuple[int, int], Deque[Tuple[float, Envelope]]] = {}
        self._timers: Dict[Tuple[int, int], asyncio.TimerHandle] = {}
        self._closed = False

    @property
    def messages_sent(self) -> int:
        """Total messages accepted by the transport."""
        return self._messages_sent

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
        """Send ``message``; delivery is immediate or delayed but always FIFO."""
        if self._closed:
            raise RuntimeTransportError("transport is closed")
        handler = self._handlers.get(receiver)
        if handler is None:
            raise RuntimeTransportError(f"unknown receiver node {receiver}")
        if sender not in self._handlers:
            raise RuntimeTransportError(f"unknown sender node {sender}")
        self._messages_sent += 1
        envelope = Envelope(sender, receiver, message)
        if self._delay is None:
            self.post(handler, envelope)
            return
        channel = (sender, receiver)
        in_flight = self._channels.setdefault(channel, deque())
        loop = asyncio.get_running_loop()
        due = loop.time() + self._delay(sender, receiver)
        if in_flight:
            due = max(due, in_flight[-1][0])  # never overtake the one sent before
        else:
            self._timers[channel] = loop.call_at(due, self._deliver_oldest, channel)
        in_flight.append((due, envelope))

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

    def fence(self, crashed: FrozenSet[int] = frozenset()) -> None:
        """Drop every undelivered envelope bound for a node not in ``crashed``.

        The recovery fence: once the token is known lost, whatever is still
        in flight — queued or delayed — predates the loss and must not reach
        a live node.
        """
        kept = [
            (handler, argument)
            for handler, argument in self._queue
            if type(argument) is not Envelope or argument.receiver in crashed
        ]
        self._queue.clear()
        self._queue.extend(kept)
        for channel, in_flight in self._channels.items():
            if channel[1] not in crashed and in_flight:
                self._timers[channel].cancel()
                in_flight.clear()

    async def close(self) -> None:
        """Drop what is still delayed; the transport cannot be reused afterwards."""
        self._closed = True
        for timer in self._timers.values():
            timer.cancel()
        self._channels.clear()

    def _deliver_oldest(self, channel: Tuple[int, int]) -> None:
        """The channel's timer fired: its oldest envelope has waited long enough."""
        in_flight = self._channels[channel]
        _due, envelope = in_flight.popleft()
        if in_flight:
            self._timers[channel] = asyncio.get_running_loop().call_at(
                in_flight[0][0], self._deliver_oldest, channel
            )
        self.post(self._handlers[envelope.receiver], envelope)
