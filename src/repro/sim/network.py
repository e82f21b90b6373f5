"""Reliable, fully connected, per-sender FIFO network.

This implements the paper's communication assumptions (Chapter 2): the nodes
are fully connected by a reliable network and messages sent by the same node
do not overtake each other in transit.  FIFO order is enforced per directed
``(sender, receiver)`` channel regardless of the latency model: if a random
latency draw would deliver a message before an earlier one on the same
channel, its delivery is pushed back to just after the earlier delivery.

A message is queued in one of two forms.  :meth:`Network.send` validates,
counts, notifies the metrics collector and trace recorder if any is attached,
checks the partition table and computes the delivery time.  The network that
owns the scheduler's FIFO lane (constant latency, no trace recorder, the base
:meth:`Network._deliver`) appends the delivery itself, ``(time, sequence,
handler, target, sender, message)`` — the receiver's class-level
``dispatch_table`` entry for the message's type (else an ``on_message``
adapter) and the process, or the columnar handler and the id — which the
drain fires as ``handler(target, sender, message)``; while no metrics
collector is attached and no partition is active, that owner's ``send``
opens with an early exit, where the one receiver lookup that finds the
handler is also the endpoint check, and a columnar id is checked against
the attached range's bounds as an int compare.  A network that watches
deliveries (other latency, a trace's ``receive`` records, a fault injector
fencing on the engine sequence) pushes ``(time, sequence, self._deliver,
(sender, receiver, message, sequence))`` to the heap instead, and
:meth:`Network._deliver` resolves the receiver when it fires.  With a
:class:`~repro.sim.latency.ConstantLatency` model the per-channel FIFO clamp
is skipped: a constant delay added to a non-decreasing clock can never
reorder a channel, so no per-channel state is touched unless a partition is
active.  One engine sequence number is drawn per send whatever is attached,
so a run's ``(time, sequence)`` event order does not depend on the
observers.  ``benchmarks/README.md`` ("Why there are two entry forms") holds
the A/Bs behind both forms.

The network is also the one place a replay is wired: every node built on it
copies its metrics collector and trace recorder, and reports each
critical-section entry to :attr:`Network.on_enter`, the hook the experiment
driver sets for the length of a replay.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import NetworkError
from repro.sim.engine import SimulationEngine
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import TraceRecorder

MessageHandler = Callable[[int, Any], None]
#: ``on_enter(node_id, time)``: told of every critical-section entry on a
#: network (:attr:`Network.on_enter`).
EnterCallback = Callable[[int, float], None]
# Minimal spacing inserted between two deliveries on the same channel when the
# latency draw would otherwise reorder them.
_FIFO_EPSILON = 1e-9

class _ChannelState:
    """Per-directed-channel bookkeeping: the FIFO clamp and the partition flag.

    One record per channel so a send touches at most one hash lookup for
    all of its channel state.
    """

    __slots__ = ("last_delivery_time", "partitioned")

    def __init__(self) -> None:
        self.last_delivery_time = -1.0
        self.partitioned = False


class _Handler:
    """A plain ``handler(sender, message)`` registered in a process's place.

    Its table is empty, so every delivery goes to ``on_message`` — the
    handler itself, held in a slot (a lane entry reaches it through
    :func:`_call_on_message`).
    """

    __slots__ = ("on_message",)
    dispatch_table: Dict[type, Callable[[Any, int, Any], None]] = {}

    def __init__(self, handler: MessageHandler) -> None:
        self.on_message = handler


class Network:
    """Delivers messages between registered nodes through the event engine.

    A registered id maps to the receiving process itself (a plain callable
    is wrapped to look like one); a delivery calls its class-level
    ``dispatch_table`` entry for the message's type as ``handler(process,
    sender, message)`` and ``process.on_message(sender, message)`` otherwise,
    resolved at send for a lane entry and by :meth:`_deliver` for a heap one.

    Args:
        engine: the simulation engine used to schedule deliveries.
        latency: delay model; defaults to a constant one-unit delay so that
            message counts and time-based delays coincide.
        metrics: optional collector notified of every send, and of every
            request, entry and exit of the nodes built on this network.
        trace: optional recorder receiving ``send`` / ``receive`` events,
            and the state changes of the nodes built on this network.

    A network holds one kind of receiver: processes registered per id, or
    one columnar state attached over an id range, never both.

    A node sending to itself is a :class:`~repro.exceptions.NetworkError`: the
    paper's model has no such channel, none of its algorithms ever uses one,
    so a self-send always indicates a protocol bug.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        *,
        latency: Optional[LatencyModel] = None,
        metrics: Optional[MetricsCollector] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self._engine = engine
        self._latency = latency if latency is not None else ConstantLatency(1.0)
        self._metrics = metrics
        self._trace = trace
        #: ``None``, or the :data:`EnterCallback` every node on this network
        #: calls when it enters its critical section (the experiment driver
        #: sets it for the length of a replay).
        self.on_enter: Optional[EnterCallback] = None
        # Registered id -> the process (or wrapped handler) receiving there.
        self._receivers: Dict[int, Any] = {}
        # Columnar node state attached via attach_columnar: its nodes have
        # no per-node handlers — endpoints are the id range and deliveries
        # route to the state object, through its own type-keyed table where
        # it has one.
        self._columnar = None
        self._columnar_table: Dict[type, Callable[[int, int, Any], None]] = {}
        # The attached range as bounds, ``first <= id < stop``: the test
        # ``send``'s early exit makes for a columnar id (an int compare;
        # ``range.__contains__`` costs ~80 ns).  Empty until then.
        self._columnar_first = 0
        self._columnar_stop = 0
        # The container ``send`` tests both endpoints against: the receiver
        # dict, or the columnar range once columns are attached (the two
        # kinds never mix).
        self._endpoints: Any = self._receivers
        self._node_ids: List[int] = []
        self._channels: Dict[Tuple[int, int], _ChannelState] = {}
        self._messages_sent = 0
        self._messages_delivered = 0
        self._partition_count = 0
        self._dropped = 0
        # Constant latency cannot reorder a FIFO channel (a fixed delay added
        # to a non-decreasing clock is monotone), so the clamp is skipped.
        self._constant_delay: Optional[float] = (
            self._latency.value if type(self._latency) is ConstantLatency else None
        )
        # For the same reason every constant-latency delivery is due in send
        # order, network-wide: the first such network on an engine that does
        # not watch deliveries appends ready-to-fire calls to the scheduler's
        # FIFO lane (O(1) in, O(1) out); every other one pushes to the heap.
        watched = trace is not None or type(self)._deliver is not Network._deliver
        lane = None if self._constant_delay is None or watched else engine.scheduler.claim_lane()
        self._lane = lane
        self._enqueue: Callable[[Tuple], None] = engine._push if lane is None else lane.append
        # One test on the send path covers both observers.
        self._observed = metrics is not None or trace is not None
        # ``send``'s early exit is open to the lane's owner while no observer
        # watches sends and no partition is active (``partition``/``heal`` keep it).
        self._direct = lane is not None and not self._observed

    @property
    def engine(self) -> SimulationEngine:
        """The engine this network schedules deliveries on."""
        return self._engine

    @property
    def latency(self) -> LatencyModel:
        """The latency model in use."""
        return self._latency

    @property
    def node_ids(self) -> List[int]:
        """Identifiers of all registered nodes, in registration order."""
        return list(self._node_ids)

    @property
    def messages_sent(self) -> int:
        """Total messages handed to the network so far."""
        return self._messages_sent

    @property
    def messages_in_flight(self) -> int:
        """Messages sent but not yet delivered (and not dropped)."""
        if self._lane is not None:
            return len(self._lane)
        return self._messages_sent - self._messages_delivered - self._dropped

    def register(self, node_id: int, receiver: Any) -> None:
        """Register ``receiver`` to receive messages addressed to ``node_id``.

        ``receiver`` is a process (anything with a ``dispatch_table`` and
        ``on_message``) or a plain callable, called as
        ``receiver(sender, message)``.  A network with columnar state
        attached refuses every registration.
        """
        if self._columnar is not None:
            raise NetworkError(
                f"node {node_id} cannot be registered: columnar state is attached "
                "and a network holds one kind of receiver"
            )
        if node_id in self._receivers:
            raise NetworkError(f"node {node_id} is already registered")
        if not hasattr(receiver, "dispatch_table"):
            receiver = _Handler(receiver)
        self._receivers[node_id] = receiver
        self._node_ids.append(node_id)

    def attach_columnar(self, state) -> None:
        """Route delivery for a whole contiguous id range to columnar state.

        ``state`` is a :class:`~repro.core.compact_state.CompactDagState`
        (or anything with the same ``node_range`` / ``on_message`` surface).
        Instead of registering one handler per node — a dict that would cost
        ~1 GB at ten million nodes and defeat the columnar memory budget —
        the ids are validated against ``state.node_range``, a contiguous
        ``range`` (checked as ``start <= id < stop``), and a delivery
        calls ``handler(receiver, sender, message)`` for them, the handler
        being what ``state.dispatch_table`` (if the state has one) names for
        the message's type and ``state.on_message`` otherwise — the columnar
        counterpart of a process class's ``dispatch_table``, same fallback,
        same errors.

        The columns are the network's one kind of receiver: attaching them
        to a network with any process registered is refused, and so is
        every :meth:`register` after them.
        """
        node_range = state.node_range
        if type(node_range) is not range or node_range.step != 1:
            raise NetworkError(
                f"columnar state must cover a contiguous id range, got {node_range!r}"
            )
        if self._receivers:
            raise NetworkError(
                "columnar state cannot be attached: nodes are already registered "
                "and a network holds one kind of receiver"
            )
        self._columnar = state
        self._columnar_first = node_range.start
        self._columnar_stop = node_range.stop
        self._columnar_table = getattr(state, "dispatch_table", {})
        self._endpoints = node_range

    def send(self, sender: int, receiver: int, message: Any) -> None:
        """Send ``message`` from ``sender`` to ``receiver``.

        Delivery is scheduled on the engine after the latency model's delay,
        clamped so that per-channel FIFO order is preserved.

        Raises:
            NetworkError: if either endpoint is unknown, or on a self-send.
        """
        known = self._endpoints
        if self._direct:
            node = self._receivers.get(receiver)
            if node is not None:
                # A registered receiver: the lookup that resolves the lane
                # entry's handler is also its endpoint check.
                if sender in known and sender != receiver:
                    handler = node.dispatch_table.get(type(message), _call_on_message)
                    self._messages_sent += 1
                    engine = self._engine
                    sequence = engine._sequence + 1
                    engine._sequence = sequence
                    self._enqueue(
                        (engine._now + self._constant_delay, sequence, handler, node, sender, message)
                    )
                    return
            else:
                # A columnar receiver: both ids must be ints within the
                # columns' bounds.  Anything else (a bool or a float among
                # them) takes the full body's exact range test.
                first = self._columnar_first
                stop = self._columnar_stop
                if (
                    type(receiver) is int and type(sender) is int
                    and first <= receiver < stop and first <= sender < stop
                    and sender != receiver
                ):
                    handler = self._columnar_table.get(type(message)) or self._columnar.on_message
                    self._messages_sent += 1
                    engine = self._engine
                    sequence = engine._sequence + 1
                    engine._sequence = sequence
                    self._enqueue(
                        (engine._now + self._constant_delay, sequence, handler, receiver, sender, message)
                    )
                    return
            # Anything refused above goes on to the full body, which accepts
            # it or raises.
        if sender not in known:
            raise NetworkError(f"unknown sender node {sender}")
        if receiver not in known:
            raise NetworkError(f"unknown receiver node {receiver}")
        if sender == receiver:
            raise NetworkError(f"node {sender} attempted to send a message to itself")

        self._messages_sent += 1
        engine = self._engine
        now = engine._now

        if self._observed:
            if self._metrics is not None:
                self._metrics.message_sent(sender, receiver, message, now)
            if self._trace is not None:
                self._trace.record(
                    now,
                    "send",
                    sender,
                    to=receiver,
                    message=_describe_message(message),
                )

        if self._partition_count:
            state = self._channels.get((sender, receiver))
            if state is not None and state.partitioned:
                self._dropped += 1
                return

        delay = self._constant_delay
        if delay is not None:
            # No channel state is touched at all unless a partition is active.
            delivery_time = now + delay
        else:
            state = self._channel_state(sender, receiver)
            delivery_time = now + self._latency.delay(sender, receiver)
            if delivery_time <= state.last_delivery_time:
                delivery_time = state.last_delivery_time + _FIFO_EPSILON
            state.last_delivery_time = delivery_time

        # The entry is built inline — sequence bump plus one append to the
        # lane or push to the heap — because even the schedule_lite frame is
        # measurable at this call rate.
        sequence = engine._sequence + 1
        engine._sequence = sequence
        if self._lane is None:
            # The payload carries the sequence so a fault injector can fence on it.
            payload = (sender, receiver, message, sequence)
            self._enqueue((delivery_time, sequence, self._deliver, payload))
            return
        # The receiver was validated above; an id not registered is columnar.
        node = self._receivers.get(receiver)
        if node is None:
            handler = self._columnar_table.get(type(message)) or self._columnar.on_message
            self._enqueue((delivery_time, sequence, handler, receiver, sender, message))
        else:
            handler = node.dispatch_table.get(type(message), _call_on_message)
            self._enqueue((delivery_time, sequence, handler, node, sender, message))

    def partition(self, sender: int, receiver: int) -> None:
        """Silently drop future messages on the directed channel.

        The paper assumes a reliable network; partitions exist only so tests
        can demonstrate which assumptions the proofs rely on (a partitioned
        channel makes requests starve, which the liveness tests then detect).
        """
        state = self._channel_state(sender, receiver)
        if not state.partitioned:
            state.partitioned = True
            self._partition_count += 1
            self._direct = False

    def heal(self, sender: int, receiver: int) -> None:
        """Stop dropping messages on the directed channel."""
        state = self._channels.get((sender, receiver))
        if state is not None and state.partitioned:
            state.partitioned = False
            self._partition_count -= 1
            self._direct = self._lane is not None and not (self._observed or self._partition_count)

    def _channel_state(self, sender: int, receiver: int) -> _ChannelState:
        channel = (sender, receiver)
        state = self._channels.get(channel)
        if state is None:
            state = _ChannelState()
            self._channels[channel] = state
        return state

    def _deliver(self, payload: Tuple[int, int, Any, int]) -> None:
        """Deliver one ``(sender, receiver, message, sequence)`` queued payload."""
        sender, receiver, message, _sequence = payload
        if self._columnar is None:
            node = self._receivers.get(receiver)
            if node is None:
                raise NetworkError(
                    f"message from {sender} addressed to unregistered node {receiver}"
                )
        else:
            # A columnar id, whose range ``send`` checked.
            node = None
            handler = self._columnar_table.get(type(message)) or self._columnar.on_message
        self._messages_delivered += 1
        if self._trace is not None:
            self._trace.record(
                self._engine._now,
                "receive",
                receiver,
                sender=sender,
                message=_describe_message(message),
            )
        if node is None:
            handler(receiver, sender, message)
            return
        handler = node.dispatch_table.get(type(message))
        if handler is not None:
            handler(node, sender, message)
        else:
            node.on_message(sender, message)


def _call_on_message(node: Any, sender: int, message: Any) -> None:
    """A lane delivery of a type the process's class table does not name."""
    node.on_message(sender, message)


def _describe_message(message: Any) -> str:
    """Short label for a message, preferring an explicit ``describe()``."""
    describe = getattr(message, "describe", None)
    if callable(describe):
        return describe()
    return type(message).__name__
