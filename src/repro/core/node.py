"""One node of the DAG-based mutual exclusion protocol.

:class:`DagNodeCore` is the library's one text of the paper's Figure 3: a
direct, event-driven transcription.  The pseudo-code there is written as two
blocking procedures (P1 makes a request and waits; P2 handles incoming
requests); here P1 is split at its wait point into
:meth:`DagNodeCore.request_cs` (everything before the wait) and the PRIVILEGE
branch of :meth:`DagNodeCore.on_message` (everything after), which is the
standard transformation onto an event loop and does not change the order in
which the variables are read or written.

The kernel blocks on nothing and owns no engine, socket or task, so it can be
stepped by anything that supplies a ``network`` with a ``send(sender,
receiver, message)``: :class:`~repro.baselines.dag_adapter.DagMutexNode`
drives it from the discrete-event simulator's :class:`~repro.sim.network
.Network`, :class:`~repro.runtime.node_runtime.AsyncDagNode` from its token
tree's pump (the same handler calls, fired on the sender's stack, no task and
no queue of its own), and ``tests/core/test_kernel_exhaustive.py`` from plain
FIFO lists.  (The columnar :class:`~repro.core.compact_state.CompactDagState`
is a hand-inlined transcription of the same text, gated against it by
``tests/properties/test_backend_identity.py``.)  The class-level dispatch
table every driver delivers through, :class:`HandlerTable`, is defined here
too, so this module imports nothing outside :mod:`repro.core` but
:mod:`repro.exceptions`.

Variable names follow the paper: ``HOLDING`` (token held while not in the
critical section and with no pending request), ``NEXT`` (the neighbour on the
path toward the current sink, ``None`` when this node *is* a sink — the
paper's 0), and ``FOLLOW`` (the node to hand the token to next, ``None`` when
empty).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.messages import Privilege, Request
from repro.core.state import NodeStateName, classify_state
from repro.exceptions import ProtocolError

# PRIVILEGE carries no payload and compares by type, so a single shared
# instance serves every token pass without per-send allocation.
_PRIVILEGE = Privilege()


class HandlerTable:
    """A class-level message dispatch table, shared by every driver of a handler.

    A subclass declares ``_MESSAGE_HANDLERS`` (message type -> handler method
    name) and gets :attr:`dispatch_table` (message type -> handler function),
    built once per class by resolving each name *on that class*, so a
    subclass's override of a handler is what runs.  A driver calls the entry
    for a message's type as ``handler(process, sender, message)`` and
    ``on_message`` for any other type.  The simulator's :class:`~repro.sim
    .network.Network` does, and so does the runtime's token tree
    (:class:`~repro.runtime.cluster.TokenTree`), for the same kernel.
    """

    __slots__ = ()

    #: Map of message type -> handler method name, declared by subclasses.
    _MESSAGE_HANDLERS: Dict[type, str] = {}
    #: Message type -> handler function, built from ``_MESSAGE_HANDLERS``.
    dispatch_table: Dict[type, Callable[[Any, int, Any], None]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.dispatch_table = {
            message_type: getattr(cls, handler_name)
            for message_type, handler_name in cls._MESSAGE_HANDLERS.items()
        }


class DagNodeCore(HandlerTable):
    """The protocol kernel: the three paper variables and procedures P1 / P2.

    What a driver supplies: ``network``, whose ``send(sender, receiver,
    message)`` is reliable and FIFO per directed channel, and — only if it
    attaches the optional ``_metrics`` / ``_trace`` observers — the ``now``
    clock their records are stamped with.
    A driver that must learn of an entry extends
    :meth:`_enter_critical_section`.  A driver delivers a message as
    ``type(node).dispatch_table[type(message)](node, sender, message)`` —
    one handler call, resolved on the node's own class — and anything else
    through :meth:`on_message`, which refuses it.

    Args:
        node_id: this node's identifier.
        holding: whether this node initially holds the token (exactly one node
            in the system must).
        next_node: initial ``NEXT`` value — the neighbour on the path toward
            the token holder, or ``None`` if this node holds the token.
    """

    #: The paper's three variables plus the request / critical-section
    #: flags and an entry count; a driver adds its own slots.
    __slots__ = (
        "node_id", "holding", "next_node", "follow", "requesting",
        "in_critical_section", "cs_entries",
    )

    _MESSAGE_HANDLERS = {Request: "_handle_request", Privilege: "_handle_privilege"}

    #: Observers (a :class:`~repro.sim.metrics.MetricsCollector` and a
    #: :class:`~repro.sim.trace.TraceRecorder`) default to "none" on the
    #: class, so a driver that never attaches one (the asyncio runtime holds
    #: thousands of live trees) pays no per-instance slot for them.
    _metrics: Any = None
    _trace: Any = None

    # Supplied by the driver, in its own slot: the simulator's Network, the
    # runtime's TokenTree, or anything else with their ``send``.
    network: Any

    def __init__(
        self,
        node_id: int,
        *,
        holding: bool = False,
        next_node: Optional[int] = None,
    ) -> None:
        if holding and next_node is not None:
            raise ProtocolError(
                f"node {node_id}: the initial token holder must be a sink (NEXT = 0)"
            )
        if not holding and next_node is None:
            raise ProtocolError(
                f"node {node_id}: a node that does not hold the token needs an initial "
                "NEXT pointer toward the holder"
            )
        self.node_id = node_id
        self.holding = holding
        self.next_node = next_node
        self.follow: Optional[int] = None
        self.requesting = False
        self.in_critical_section = False
        self.cs_entries = 0

    # ------------------------------------------------------------------ #
    # public protocol actions
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        """Ask to enter the critical section (first half of procedure P1).

        If the node already holds the token it enters immediately without any
        messages; otherwise it sends ``REQUEST(I, I)`` toward the sink and
        becomes a sink itself (``NEXT := 0``), then waits for the PRIVILEGE
        message to arrive.

        Raises:
            ProtocolError: if the node already has an outstanding request or
                is inside its critical section (the paper allows at most one
                outstanding request per node), or is a sink without the token;
                a refused request writes nothing.
        """
        if self.requesting:
            raise ProtocolError(f"node {self.node_id} already has an outstanding request")
        if self.in_critical_section:
            raise ProtocolError(f"node {self.node_id} is already in its critical section")
        if not self.holding and self.next_node is None:
            # Not holding and NEXT = 0 means a request of ours is outstanding
            # (Lemma 1), which the guards above reject.  Refused before any write.
            raise ProtocolError(
                f"node {self.node_id} is a sink without the token and without a request; "
                "the system was initialised inconsistently"
            )

        if self._metrics is not None:
            self._metrics.cs_requested(self.node_id, self.now)
        if self._trace is not None:
            self._trace.record(self.now, "cs_request", self.node_id)

        if self.holding:
            # The node is an idle token holder: P1 skips the request entirely.
            self.holding = False
            self._enter_critical_section()
            return

        self.requesting = True
        target = self.next_node
        self.next_node = None
        self.network.send(self.node_id, target, Request(self.node_id, self.node_id))
        if self._trace is not None:
            self._trace.record(self.now, "state_change", self.node_id,
                               reason="sent own request", next=None)

    def release_cs(self) -> None:
        """Leave the critical section (second half of procedure P1).

        Passes the token to ``FOLLOW`` if a successor was captured while this
        node was executing; otherwise keeps the token by setting ``HOLDING``.

        Raises:
            ProtocolError: if the node is not in its critical section.
        """
        if not self.in_critical_section:
            raise ProtocolError(f"node {self.node_id} is not in its critical section")
        self.in_critical_section = False
        if self._metrics is not None:
            self._metrics.cs_exited(self.node_id, self.now)
        if self._trace is not None:
            self._trace.record(self.now, "cs_exit", self.node_id)

        if self.follow is not None:
            successor = self.follow
            self.follow = None
            self.network.send(self.node_id, successor, _PRIVILEGE)
            if self._trace is not None:
                self._trace.record(self.now, "state_change", self.node_id,
                                   reason="passed token", to=successor)
        else:
            self.holding = True
            if self._trace is not None:
                self._trace.record(self.now, "state_change", self.node_id,
                                   reason="kept token (HOLDING)")

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def on_message(self, sender: int, message: Any) -> None:
        """Dispatch REQUEST to procedure P2 and PRIVILEGE to the P1 wait point."""
        kind = type(message)
        if kind is Request:
            self._handle_request(sender, message)
        elif kind is Privilege:
            self._handle_privilege(sender, message)
        else:
            raise ProtocolError(
                f"node {self.node_id} received unexpected message {message!r} from {sender}"
            )

    def _handle_request(self, sender: int, message: Request) -> None:
        """Procedure P2 of Figure 3 for ``REQUEST(X, Y)``."""
        adjacent = message.sender
        origin = message.origin

        if self.next_node is None:
            # This node is a sink: the request has reached the end of the path.
            if self.holding:
                # Transition 8 (state H): hand the idle token straight to the
                # request's originator.
                self.holding = False
                self.network.send(self.node_id, origin, _PRIVILEGE)
                if self._trace is not None:
                    self._trace.record(self.now, "state_change", self.node_id,
                                       reason="idle holder granted token", to=origin)
            else:
                # The sink is requesting or executing: capture the requester as
                # our successor in the implicit queue.
                self.follow = origin
                if self._trace is not None:
                    self._trace.record(self.now, "state_change", self.node_id,
                                       reason="captured FOLLOW", follow=origin)
        else:
            # Intermediate node: forward the request toward the sink on the
            # originator's behalf.
            self.network.send(self.node_id, self.next_node, Request(self.node_id, origin))
        # In every case the edge to the adjacent sender is reversed so later
        # requests travel toward the new sink.
        self.next_node = adjacent

    def _handle_privilege(self, sender: int, message: Privilege) -> None:
        """The P1 wait point: the token arrived, enter the critical section."""
        if not self.requesting:
            raise ProtocolError(
                f"node {self.node_id} received the PRIVILEGE message without an "
                "outstanding request; the token was duplicated or misrouted"
            )
        self.requesting = False
        self._enter_critical_section()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def state_name(self) -> NodeStateName:
        """This node's symbolic state in the Figure 4 transition graph."""
        return classify_state(
            holding=self.holding,
            in_critical_section=self.in_critical_section,
            requesting=self.requesting,
            follow=self.follow,
        )

    def has_token(self) -> bool:
        """Whether the token currently resides at this node.

        The token is here if the node is idle-holding it or executing its
        critical section.  A node *waiting* for the PRIVILEGE message does not
        have the token even though it is a sink.
        """
        return self.holding or self.in_critical_section

    def snapshot(self) -> Dict[str, Any]:
        """The paper's per-node variable table row (Figure 6 style)."""
        return {
            "HOLDING": self.holding,
            "NEXT": self.next_node,
            "FOLLOW": self.follow,
            "requesting": self.requesting,
            "in_cs": self.in_critical_section,
            "state": self.state_name().value,
        }

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _enter_critical_section(self) -> None:
        self.in_critical_section = True
        self.cs_entries += 1

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.node_id}, HOLDING={self.holding}, "
            f"NEXT={self.next_node}, FOLLOW={self.follow}, state={self.state_name().value})"
        )

