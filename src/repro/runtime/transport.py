"""In-process message delivery: one pump of handler calls, run to completion.

This is the runtime counterpart of :class:`repro.sim.network.Network`: a
reliable, fully connected message fabric whose only ordering guarantee is the
one the paper assumes — messages from the same sender to the same receiver are
delivered in the order they were sent.

Delivery is synchronous and iterative.  The transport's one FIFO, the
*pump*, holds calls on the simulator's lane contract: an entry is
``(handler, agent, sender, message)``, fired as ``handler(agent, sender,
message)``.  A token tree (:class:`repro.runtime.cluster.TokenTree`)
registers nothing: it routes its agents' sends itself and appends each
delivery as the receiver class's handler for the message's type — the
kernel's own ``_handle_request`` / ``_handle_privilege``, the functions the
simulator's lane fires — so a REQUEST or PRIVILEGE is one call, and many
trees share one pump.  Whoever appends while no drain is running drains it
(:meth:`InMemoryTransport.drain`): each entry is fired in turn and runs to
completion before the next one starts.  A send issued from inside a handler
only appends, so however long a REQUEST/PRIVILEGE chain grows the stack
stays flat, every handler is atomic with respect to the others (the paper's
"local mutual exclusion" of P1/P2), and a whole chain is over by the time the
outermost ``send`` returns.  No task, no queue per node, no timer and no
event-loop pass is involved: latency is the simulator's to model
(:mod:`repro.sim.latency`), not this transport's.

A one-argument call — a grant, or an envelope for a node registered with
:meth:`InMemoryTransport.register` — is the entry ``(plain_call, function,
argument, None)``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from repro.exceptions import RuntimeTransportError


class Envelope(NamedTuple):
    """A message for a registered node: sender, receiver and the protocol payload."""

    sender: int
    receiver: int
    message: Any


#: What a registrant is called with, once per envelope addressed to it.
Handler = Callable[[Envelope], None]

#: One pump entry: ``(handler, agent, sender, message)``.
Entry = Tuple[Callable[[Any, Any, Any], None], Any, Any, Any]


def plain_call(function: Callable[[Any], None], argument: Any, _unused: None) -> None:
    """The pump entry's handler for a one-argument call: ``function(argument)``."""
    function(argument)


class InMemoryTransport:
    """Connects the nodes of one event loop through one FIFO of handler calls.

    An entry appended while no drain is running is drained at once: its
    appender runs every queued call, including the ones those calls append,
    before it returns (:meth:`post` for a one-argument call; a token tree
    appends its deliveries itself).  If a handler raises, the exception
    reaches that caller, the pump stops, and what is still queued waits for
    the next drain — one bad message does not make a node deaf, nor a tree
    sharing the pump.  Per-channel FIFO holds because the one queue is FIFO.
    ``messages_sent`` counts every message, a tree's too.
    """

    def __init__(self) -> None:
        self._handlers: Dict[int, Handler] = {}
        self._queue: Deque[Entry] = deque()
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
        """Send ``message`` to a registered node: check both ends, count it, post its envelope."""
        if self.closed:
            raise RuntimeTransportError("transport is closed")
        handler = self._handlers.get(receiver)
        if handler is None:
            raise RuntimeTransportError(f"unknown receiver node {receiver}")
        if sender not in self._handlers:
            raise RuntimeTransportError(f"unknown sender node {sender}")
        self.messages_sent += 1
        self.post(handler, Envelope(sender, receiver, message))

    def post(self, function: Callable[[Any], None], argument: Any) -> None:
        """Queue the call ``function(argument)``; drain unless a drain is running."""
        self._queue.append((plain_call, function, argument, None))
        if not self._pumping:
            self.drain()

    def drain(self) -> None:
        """Fire every queued entry, oldest first, the ones they queue included."""
        queue = self._queue
        self._pumping = True
        try:
            while queue:
                handler, agent, sender, message = queue.popleft()
                handler(agent, sender, message)
        finally:
            self._pumping = False

    def fence(self, crashed: FrozenSet[int] = frozenset(), nodes: Optional[Mapping] = None) -> None:
        """Drop every queued message bound for a node not in ``crashed``.

        The recovery fence: once the token is known lost, whatever is still
        queued predates the loss and must not reach a live node.  A message
        is an agent's delivery or a registered node's envelope; a plain call
        (a grant is one) stays, and so, given a tree's ``nodes``, does every
        message that is not for one of those agents.
        """

        def in_flight(entry: Entry) -> bool:
            handler, agent, sender, message = entry
            if handler is plain_call:
                if type(sender) is not Envelope or nodes is not None:
                    return False  # a plain call, or no agent of the tree's
                receiver = sender.receiver
            else:
                receiver = agent.node_id
                if nodes is not None and nodes.get(receiver) is not agent:
                    return False  # another tree's agent
            return receiver not in crashed

        kept = [entry for entry in self._queue if not in_flight(entry)]
        self._queue.clear()
        self._queue.extend(kept)

    async def close(self) -> None:
        """Refuse every later send; the transport cannot be reused afterwards."""
        self.closed = True
