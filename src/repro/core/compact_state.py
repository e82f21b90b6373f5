"""Columnar (structure-of-arrays) storage for the DAG protocol state.

At a million nodes the object backend's cost is "a million Python objects":
~780 MB of :class:`~repro.core.node.DagMutexNode` instances plus per-node
dispatch tables, and ~12 s just to build them.  This module stores the same
three paper variables — HOLDING, NEXT, FOLLOW — plus the requesting/in-CS
flags and the per-node entry counter as six flat lists indexed by node id,
one per attribute of the object node:

* ``NEXT`` and ``FOLLOW`` — one int per node, ``0`` encoding the paper's "no
  pointer" (node ids start at 1, exactly the topology's convention).  NEXT
  starts as ``None`` throughout and reads through to the topology's
  ``parent`` array, which *is* the initial column, until a node first writes
  its own;
* HOLDING, requesting and in-CS — one bool per node each;
* ``cs_entries`` — one int per node.

Lists, not ``array('i')``/``bytearray``, and a bool per flag, not bits of
one byte: CPython specialises a list subscript, and a list read hands back
the object it holds, where an array read takes the generic subscript path
and boxes a new int for every id above 256, and a bit test is a generic
``&``.  With the network's old endpoint check, that was the ~24 % by which
the columns replayed behind the object nodes (``benchmarks/README.md``,
"Why there are two node backends").  A list slot
is 8 bytes, and every column starts as one repeated small int, bool or
``None``, so the state keeps 48 bytes per node on any topology: ~480 MB at
ten million nodes where the object backend would need tens of gigabytes.
Construction is six ``[x] * (n + 1)`` fills in C, which is what opens the
``--xxxlarge`` 10M-node tier.  The lists are containers the cycle collector
walks; a replay runs with it paused (:meth:`~repro.workload.driver
.ExperimentDriver.run`).

The state machine here is a line-for-line transcription of
:class:`~repro.core.node.DagNodeCore` (Figure 3 of the paper): same variable
reads and writes in the same order, same metrics/trace calls, same error
messages.  It is the one copy of the protocol kept beside the kernel, and it
earns its keep only at scale (build time and bytes per node — the A/B is in
``benchmarks/README.md``, "Why there are two node backends"); a protocol
change goes into the kernel and, in lock-step, here.  The object nodes remain
the always-tested reference implementation; tier-1 holds every compact run
byte-identical against them (``tests/properties/test_backend_identity.py``).

Delivery integration is one table: the network hands a message for any id
in :attr:`CompactDagState.node_range` to the handler
:attr:`CompactDagState.dispatch_table` names for its type — straight into
``_handle_request`` / ``_handle_privilege``, as a registered dispatch table
does for an object node — and to :meth:`CompactDagState.on_message` (which
raises) for any other type, with or without metrics, trace or a fault
injector attached (resolved at send for a lane entry, at delivery for a heap one).

For code that expects node *objects* — the fault controller's token scan,
token regeneration, tests poking at ``system.nodes[i]`` — a lazy
:class:`CompactNodeMap` materialises lightweight :class:`DagNodeView`
proxies on demand; every view reads and writes the columns directly, so
views and columns can never disagree.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterator, Optional

from repro.core.messages import Privilege, Request
from repro.core.state import NodeStateName, classify_state
from repro.exceptions import ProtocolError

EnterCallback = Callable[[int, float], None]

#: A DAG system stands on the compact columns at or above this many nodes
#: (:meth:`~repro.baselines.dag_adapter.DagSystem._create_nodes` holds the one
#: comparison).  Below it the object nodes are kept: they are the reference
#: implementation, and the two replay within a few per cent of each other
#: (``benchmarks/README.md``, "Why there are two node backends").  What the
#: columns save is construction and memory — at 100 000 nodes a system
#: builds in milliseconds instead of ~0.2 s and keeps 48 bytes per node
#: instead of ~270, which is where they start to dominate ``setup_s`` and
#: peak RSS — the same neighbourhood as the streaming workload threshold.
COMPACT_NODE_BACKEND_THRESHOLD = 100_000

# PRIVILEGE carries no payload and compares by type; one shared instance
# serves every token pass (same object the node backend uses).
_PRIVILEGE = Privilege()


class CompactDagState:
    """All DAG protocol state for ``n`` nodes, as flat columns.

    Args:
        topology: the :class:`~repro.topology.base.Topology` to initialise
            from; its ids ``1..n`` index the columns.
        network: the network messages are sent through.  The caller is
            expected to also :meth:`~repro.sim.network.Network
            .attach_columnar` this state so deliveries route back here.
        metrics: optional collector receiving request/enter/exit events.
        trace: optional recorder receiving state-change events.
        on_enter: callback invoked as ``on_enter(node_id, time)`` on every
            critical-section entry; the experiment driver assigns it.
    """

    def __init__(
        self,
        topology,
        network,
        *,
        metrics=None,
        trace=None,
        on_enter: Optional[EnterCallback] = None,
    ) -> None:
        n = topology.size
        self._n = n
        self.node_range = topology.nodes
        holder = topology.token_holder
        # The topology's parent array is exactly the initial NEXT column
        # (index 0 unused, 0 = no pointer), so NEXT reads through to it until
        # a node's first write: ``None`` here means "still the parent", and
        # the column boxes no int at build, whatever the topology.
        self._parent = topology.parent
        self._next = [None] * (n + 1)
        self._follow = [0] * (n + 1)
        holding = [False] * (n + 1)
        holding[holder] = True
        self._holding = holding
        self._requesting = [False] * (n + 1)
        self._in_cs = [False] * (n + 1)
        self._entries = [0] * (n + 1)
        #: Total critical-section entries across all nodes (the metrics-free
        #: result path reads this instead of summing a column).
        self.total_entries = 0
        self._engine = network.engine
        self.network = network
        self._send = network.send
        self._metrics = metrics
        self._trace = trace
        self.on_enter = on_enter
        #: Message type -> handler called as ``handler(receiver, sender,
        #: message)``; :meth:`~repro.sim.network.Network.attach_columnar`
        #: takes it so a delivery skips the ``on_message`` frame.
        self.dispatch_table = {
            Request: self._handle_request,
            Privilege: self._handle_privilege,
        }

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------ #
    # public protocol actions (transcriptions of DagNodeCore)
    # ------------------------------------------------------------------ #
    def request_cs(self, node_id: int) -> None:
        """Procedure P1's first half for ``node_id`` (see ``DagNodeCore``)."""
        if self._requesting[node_id]:
            raise ProtocolError(f"node {node_id} already has an outstanding request")
        if self._in_cs[node_id]:
            raise ProtocolError(f"node {node_id} is already in its critical section")
        target = self._next[node_id]
        if target is None:
            target = self._parent[node_id]
        holding = self._holding
        if not holding[node_id] and target == 0:
            raise ProtocolError(
                f"node {node_id} is a sink without the token and without a request; "
                "the system was initialised inconsistently"
            )

        if self._metrics is not None:
            self._metrics.cs_requested(node_id, self._engine._now)
        if self._trace is not None:
            self._trace.record(self._engine._now, "cs_request", node_id)

        if holding[node_id]:
            # Idle token holder: P1 skips the request entirely.
            holding[node_id] = False
            self._enter_critical_section(node_id)
            return

        self._requesting[node_id] = True
        self._next[node_id] = 0
        self._send(node_id, target, Request(node_id, node_id))
        if self._trace is not None:
            self._trace.record(self._engine._now, "state_change", node_id,
                               reason="sent own request", next=None)

    def release_cs(self, node_id: int) -> None:
        """Procedure P1's second half for ``node_id`` (see ``DagNodeCore``)."""
        in_cs = self._in_cs
        if not in_cs[node_id]:
            raise ProtocolError(f"node {node_id} is not in its critical section")
        in_cs[node_id] = False
        if self._metrics is not None:
            self._metrics.cs_exited(node_id, self._engine._now)
        if self._trace is not None:
            self._trace.record(self._engine._now, "cs_exit", node_id)

        successor = self._follow[node_id]
        if successor:
            self._follow[node_id] = 0
            self._send(node_id, successor, _PRIVILEGE)
            if self._trace is not None:
                self._trace.record(self._engine._now, "state_change", node_id,
                                   reason="passed token", to=successor)
        else:
            self._holding[node_id] = True
            if self._trace is not None:
                self._trace.record(self._engine._now, "state_change", node_id,
                                   reason="kept token (HOLDING)")

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def on_message(self, receiver: int, sender: int, message: Any) -> None:
        """Dispatch one delivery by message type (node views come this way;
        the network reads :attr:`dispatch_table` itself, at send or in
        ``_deliver``, and calls this only for a type the table does not know)."""
        handler = self.dispatch_table.get(type(message))
        if handler is None:
            raise ProtocolError(
                f"node {receiver} received unexpected message {message!r} from {sender}"
            )
        handler(receiver, sender, message)

    def _handle_request(self, node_id: int, sender: int, message: Request) -> None:
        """Procedure P2 of Figure 3 for ``REQUEST(X, Y)``."""
        adjacent = message.sender
        origin = message.origin
        next_col = self._next
        target = next_col[node_id]
        if target is None:
            target = self._parent[node_id]
        if target == 0:
            holding = self._holding
            if holding[node_id]:
                holding[node_id] = False
                self._send(node_id, origin, _PRIVILEGE)
                if self._trace is not None:
                    self._trace.record(self._engine._now, "state_change", node_id,
                                       reason="idle holder granted token", to=origin)
            else:
                self._follow[node_id] = origin
                if self._trace is not None:
                    self._trace.record(self._engine._now, "state_change", node_id,
                                       reason="captured FOLLOW", follow=origin)
        else:
            self._send(node_id, target, Request(node_id, origin))
        next_col[node_id] = adjacent

    def _handle_privilege(self, node_id: int, sender: int, message: Privilege) -> None:
        """The P1 wait point: the token arrived, enter the critical section."""
        requesting = self._requesting
        if not requesting[node_id]:
            raise ProtocolError(
                f"node {node_id} received the PRIVILEGE message without an "
                "outstanding request; the token was duplicated or misrouted"
            )
        requesting[node_id] = False
        self._enter_critical_section(node_id)

    def _enter_critical_section(self, node_id: int) -> None:
        self._in_cs[node_id] = True
        self._entries[node_id] += 1
        self.total_entries += 1
        now = self._engine._now
        if self._metrics is not None:
            self._metrics.cs_entered(node_id, now)
        if self._trace is not None:
            self._trace.record(now, "cs_enter", node_id)
        on_enter = self.on_enter
        if on_enter is not None:
            on_enter(node_id, now)

    # ------------------------------------------------------------------ #
    # bulk introspection
    # ------------------------------------------------------------------ #
    def busy_nodes(self):
        """Ids of nodes currently requesting or executing, ascending.

        The common case — nobody busy at the end of a complete run — is
        answered by a C-level ``any`` over each of the two flag columns; the
        Python scan runs only when someone actually is busy.
        """
        requesting, in_cs = self._requesting, self._in_cs
        if not any(requesting) and not any(in_cs):
            return []
        return [node_id for node_id in self.node_range if requesting[node_id] or in_cs[node_id]]

    def next_pointer(self, node_id: int) -> int:
        """``node_id``'s NEXT, ``0`` for none (the handlers inline this read)."""
        target = self._next[node_id]
        return self._parent[node_id] if target is None else target

    def snapshot(self, node_id: int) -> Dict[str, Any]:
        """The paper's per-node variable table row (Figure 6 style)."""
        return {
            "HOLDING": self._holding[node_id],
            "NEXT": self.next_pointer(node_id) or None,
            "FOLLOW": self._follow[node_id] or None,
            "requesting": self._requesting[node_id],
            "in_cs": self._in_cs[node_id],
            "state": self.state_name(node_id).value,
        }

    def state_name(self, node_id: int) -> NodeStateName:
        """``node_id``'s symbolic state in the Figure 4 transition graph."""
        return classify_state(
            holding=self._holding[node_id],
            in_critical_section=self._in_cs[node_id],
            requesting=self._requesting[node_id],
            follow=self._follow[node_id] or None,
        )


class DagNodeView:
    """A node-shaped window onto one row of :class:`CompactDagState`.

    Reads and writes go straight to the columns, so a view is always
    coherent with the state (and with every other view of the same node).
    Views satisfy everything downstream code asks of a
    :class:`~repro.core.node.DagMutexNode` — the driver's flag probes, the
    fault controller's ``has_token`` scan, token regeneration's pointer
    rewrites — without the per-node object cost: they are materialised
    lazily by :class:`CompactNodeMap` and usually die young.
    """

    __slots__ = ("_state", "node_id")

    def __init__(self, state: CompactDagState, node_id: int) -> None:
        self._state = state
        self.node_id = node_id

    # -- the three paper variables + driver flags ----------------------- #
    @property
    def holding(self) -> bool:
        return self._state._holding[self.node_id]

    @holding.setter
    def holding(self, value: bool) -> None:
        self._state._holding[self.node_id] = bool(value)

    @property
    def next_node(self) -> Optional[int]:
        return self._state.next_pointer(self.node_id) or None

    @next_node.setter
    def next_node(self, value: Optional[int]) -> None:
        self._state._next[self.node_id] = 0 if value is None else value

    @property
    def follow(self) -> Optional[int]:
        return self._state._follow[self.node_id] or None

    @follow.setter
    def follow(self, value: Optional[int]) -> None:
        self._state._follow[self.node_id] = 0 if value is None else value

    @property
    def requesting(self) -> bool:
        return self._state._requesting[self.node_id]

    @requesting.setter
    def requesting(self, value: bool) -> None:
        self._state._requesting[self.node_id] = bool(value)

    @property
    def in_critical_section(self) -> bool:
        return self._state._in_cs[self.node_id]

    @in_critical_section.setter
    def in_critical_section(self, value: bool) -> None:
        self._state._in_cs[self.node_id] = bool(value)

    @property
    def cs_entries(self) -> int:
        return self._state._entries[self.node_id]

    @property
    def network(self):
        return self._state.network

    # -- protocol actions ------------------------------------------------ #
    def request_cs(self) -> None:
        self._state.request_cs(self.node_id)

    def release_cs(self) -> None:
        self._state.release_cs(self.node_id)

    def on_message(self, sender: int, message: Any) -> None:
        self._state.on_message(self.node_id, sender, message)

    def _enter_critical_section(self) -> None:
        self._state._enter_critical_section(self.node_id)

    # -- introspection --------------------------------------------------- #
    def has_token(self) -> bool:
        state = self._state
        return state._holding[self.node_id] or state._in_cs[self.node_id]

    def state_name(self) -> NodeStateName:
        return self._state.state_name(self.node_id)

    def snapshot(self) -> Dict[str, Any]:
        return self._state.snapshot(self.node_id)

    def __repr__(self) -> str:
        return (
            f"DagNodeView(id={self.node_id}, HOLDING={self.holding}, "
            f"NEXT={self.next_node}, FOLLOW={self.follow}, "
            f"state={self.state_name().value})"
        )


class CompactNodeMap(Mapping):
    """Lazy ``{node_id: DagNodeView}`` mapping over a :class:`CompactDagState`.

    Systems on the compact backend expose this as ``system.nodes`` so every
    consumer of the object API keeps working; views are created on access
    and never stored, so the map costs O(1) memory at any node count.
    """

    __slots__ = ("_state",)

    def __init__(self, state: CompactDagState) -> None:
        self._state = state

    def __getitem__(self, node_id: int) -> DagNodeView:
        if node_id not in self._state.node_range:
            raise KeyError(node_id)
        return DagNodeView(self._state, node_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self._state.node_range)

    def __len__(self) -> int:
        return len(self._state.node_range)

    def __contains__(self, node_id) -> bool:
        return node_id in self._state.node_range
