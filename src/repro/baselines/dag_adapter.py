"""The paper's DAG algorithm on the simulator: nodes wired to the substrate.

This module is the one place the protocol kernel
(:class:`~repro.core.node.DagNodeCore`, which imports nothing from the
simulator) is bound to an engine and a network:

* :class:`DagMutexNode` — the kernel as a :class:`~repro.sim.process
  .SimProcess`, reporting entries to its network's ``on_enter`` hook;
* :class:`DagSystem` — builds the DAG nodes onto an engine and a network,
  which hands every node its metrics collector, trace recorder and enter
  hook, behind the :class:`~repro.baselines.base.MutexSystem` interface every
  comparison experiment iterates over;
* :class:`DagMutexProtocol` — the entry point of the examples and the
  paper-walkthrough tests: :class:`DagSystem` plus the
  :class:`~repro.core.invariants.InvariantChecker` (the Chapter 5 safety
  checks after every request, release and simulation event, which is how
  they are checked continuously during stress tests) and the system-wide
  introspection (``snapshot``, ``token_location``);
* :func:`run_initialization` — Figure 5's INIT flood, which sets every
  ``NEXT`` pointer when each node only knows its neighbours.  The pointer map
  it returns equals what :meth:`repro.topology.Topology.next_pointers`
  computes analytically, a fact the tests assert for every generated
  topology.

The DAG algorithm is the one system with two node backends, and which one a
system stands on is a fact of its topology's size, not an option:

* ``"object"`` — one :class:`DagMutexNode` per participant, the
  always-tested reference implementation;
* ``"compact"`` — the whole node population as flat list columns
  (:class:`~repro.core.compact_state.CompactDagState`), which is what makes
  the ten-million-node tier constructible in seconds within about a
  gigabyte.  ``system.nodes`` then serves lazy
  :class:`~repro.core.compact_state.DagNodeView` proxies, so code written
  against node objects keeps working unchanged.

The columns serve :data:`~repro.core.compact_state
.COMPACT_NODE_BACKEND_THRESHOLD` nodes and above.  Replays are byte-identical
across backends: ``tests/properties/test_backend_identity.py`` forces each
backend onto the same cells by patching that threshold — the one seam, out of
reach of a spec file or the CLI.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.baselines.base import QUIESCENCE_BUDGET, MutexSystem, registry
from repro.core import compact_state, inspector
from repro.core.compact_state import CompactDagState, CompactNodeMap
from repro.core.invariants import InvariantChecker
from repro.core.messages import Initialize
from repro.core.node import DagNodeCore
from repro.exceptions import ProtocolError
from repro.sim.engine import SimulationEngine
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.topology.base import Topology


class DagMutexNode(DagNodeCore, SimProcess):
    """The kernel on the simulation substrate.

    An instance is the kernel's slots plus ``network``, ``engine`` and the
    network's two observers: no ``__dict__`` and no per-node table or
    callable.  The metrics collector and trace recorder are copied from the
    network when the node is built; an entry is reported to the network's
    ``on_enter`` hook, which the experiment driver sets for a replay.

    Args:
        node_id: this node's identifier.
        network: the reliable FIFO network shared by all nodes.
        holding: whether this node initially holds the token.
        next_node: initial ``NEXT`` value (``None`` iff ``holding``).
    """

    __slots__ = ("network", "engine", "_metrics", "_trace")

    def __init__(
        self,
        node_id: int,
        network: Network,
        *,
        holding: bool = False,
        next_node: Optional[int] = None,
    ) -> None:
        DagNodeCore.__init__(self, node_id, holding=holding, next_node=next_node)
        SimProcess.__init__(self, node_id, network)

    def _enter_critical_section(self) -> None:
        # The kernel's two lines inlined rather than called: this runs once
        # per entry on the simulator's hot path.
        self.in_critical_section = True
        self.cs_entries += 1
        now = self.engine._now  # the `now` property frame costs at this rate
        if self._metrics is not None:
            self._metrics.cs_entered(self.node_id, now)
        if self._trace is not None:
            self._trace.record(now, "cs_enter", self.node_id)
        on_enter = self.network.on_enter
        if on_enter is not None:
            on_enter(self.node_id, now)


@registry.register
class DagSystem(MutexSystem):
    """The paper's DAG-based algorithm behind the common comparison interface."""

    algorithm_name = "dag"
    uses_topology_edges = True
    #: Three scalars per node: the paper's headline storage result.  Unbounded.
    max_recommended_nodes = None
    storage_class = "constant"
    token_based = True
    storage_description = (
        "per node: HOLDING flag, NEXT pointer, FOLLOW pointer (three scalars); "
        "token carries nothing"
    )

    def _create_nodes(self) -> Dict[int, DagMutexNode]:
        # len(topology.nodes) is O(1) for every built-in topology; the
        # threshold is read through its module so the identity tests can
        # patch it.
        if len(self.topology.nodes) >= compact_state.COMPACT_NODE_BACKEND_THRESHOLD:
            state = CompactDagState(self.topology, self.network)
            self.compact_state = state
            self.node_backend = "compact"
            self.network.attach_columnar(state)
            return CompactNodeMap(state)
        pointers = self.topology.next_pointers()
        return {
            node_id: DagMutexNode(
                node_id,
                self.network,
                holding=(node_id == self.topology.token_holder),
                next_node=pointers[node_id],
            )
            for node_id in self.topology.nodes
        }


class DagMutexProtocol(DagSystem):
    """A complete protocol instance over a given logical topology.

    Messages take one time unit each and metrics are always collected.

    Args:
        topology: the logical tree and initial token holder.
        record_trace: whether to record a full protocol trace.
        check_invariants: run the Chapter 5 safety checks after every event
            step driven through :meth:`run` / :meth:`run_until_quiescent`.

    Example:
        >>> from repro.topology import star
        >>> protocol = DagMutexProtocol(star(5))
        >>> protocol.request(3)
        >>> protocol.run_until_quiescent()
        >>> protocol.node(3).in_critical_section
        True
        >>> protocol.release(3)
        >>> protocol.metrics.completed_entries
        1
    """

    def __init__(
        self,
        topology: Topology,
        *,
        record_trace: bool = False,
        check_invariants: bool = False,
    ) -> None:
        super().__init__(topology, record_trace=record_trace)
        self._checker = InvariantChecker(self) if check_invariants else None

    @property
    def invariant_checker(self) -> Optional[InvariantChecker]:
        """The attached invariant checker, if enabled."""
        return self._checker

    # ------------------------------------------------------------------ #
    # driving the protocol
    # ------------------------------------------------------------------ #
    def request(self, node_id: int) -> None:
        """Issue a critical-section request at ``node_id`` (procedure P1)."""
        super().request(node_id)
        self._check()

    def release(self, node_id: int) -> None:
        """Release the critical section at ``node_id``."""
        super().release(node_id)
        self._check()

    def run(self, *, max_events: Optional[int] = None, until: Optional[float] = None) -> int:
        """Advance the simulation, checking invariants after every event.

        Returns the number of events processed.  Without an attached
        invariant checker the engine runs the whole batch in one call rather
        than being re-entered once per event.
        """
        if self._checker is None:
            return super().run(max_events=max_events, until=until)
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
            stepped = self.engine.run(max_events=1, until=until)
            if stepped == 0:
                break
            processed += stepped
            self._check()
        return processed

    def run_until_quiescent(self) -> int:
        """Run until no events remain (all messages delivered).

        Raises:
            ProtocolError: if :data:`~repro.baselines.base.QUIESCENCE_BUDGET`
                events pass and some remain, which for this protocol can only
                mean a livelock bug.
        """
        processed = self.run(max_events=QUIESCENCE_BUDGET)
        if self.engine.pending_events > 0:
            raise ProtocolError(
                f"simulation did not quiesce within {QUIESCENCE_BUDGET} events"
            )
        return processed

    # ------------------------------------------------------------------ #
    # system-wide introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[int, Dict[str, object]]:
        """Per-node variable tables, Figure 6 style."""
        return {node_id: node.snapshot() for node_id, node in sorted(self.nodes.items())}

    def token_location(self) -> Optional[int]:
        """The node currently having the token, or ``None`` while in transit."""
        return inspector.token_holder(self)

    def _check(self) -> None:
        if self._checker is not None:
            self._checker.check()


class _InitProcess(SimProcess):
    """A node running only the Figure 5 initialisation procedure."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        neighbours: Sequence[int],
        *,
        holds_token: bool,
    ) -> None:
        super().__init__(node_id, network)
        self.neighbours = list(neighbours)
        self.holds_token = holds_token
        self.holding: Optional[bool] = None
        self.next_node: Optional[int] = None
        self.follow: Optional[int] = None
        self.initialized = False

    def start(self) -> None:
        """Begin the procedure; only the token holder acts spontaneously."""
        if not self.holds_token:
            return
        self.holding = True
        self.next_node = None
        self.follow = None
        self.initialized = True
        for neighbour in self.neighbours:
            self.network.send(self.node_id, neighbour, Initialize(origin=self.node_id))

    def on_message(self, sender: int, message: Initialize) -> None:
        if not isinstance(message, Initialize):
            raise ProtocolError(
                f"initialisation node {self.node_id} received unexpected {message!r}"
            )
        if self.initialized:
            # A second INITIALIZE can only arrive if the topology has a cycle;
            # on a tree each node hears the flood exactly once.
            raise ProtocolError(
                f"node {self.node_id} received a second INITIALIZE from {sender}; "
                "the logical structure is not a tree"
            )
        self.holding = False
        self.next_node = message.origin
        self.follow = None
        self.initialized = True
        for neighbour in self.neighbours:
            if neighbour != message.origin:
                self.network.send(self.node_id, neighbour, Initialize(origin=self.node_id))


def run_initialization(
    adjacency: Mapping[int, Sequence[int]],
    token_holder: int,
) -> Dict[int, Optional[int]]:
    """Run Figure 5's INIT flood and return the resulting ``NEXT`` pointers.

    Args:
        adjacency: each node's neighbour list (must describe a tree).
        token_holder: the node that initially holds the token.

    Returns:
        Mapping from node id to its computed ``NEXT`` value (``None`` for the
        token holder).

    Raises:
        ProtocolError: if some node is never reached by the flood (the graph
            is disconnected) or is reached twice (the graph has a cycle).
    """
    if token_holder not in adjacency:
        raise ProtocolError(f"token holder {token_holder} is not in the adjacency map")

    engine = SimulationEngine()
    network = Network(engine)
    processes = {
        node_id: _InitProcess(
            node_id,
            network,
            neighbours,
            holds_token=(node_id == token_holder),
        )
        for node_id, neighbours in adjacency.items()
    }
    for process in processes.values():
        process.start()
    engine.run()

    uninitialised = sorted(
        node_id for node_id, process in processes.items() if not process.initialized
    )
    if uninitialised:
        raise ProtocolError(
            f"initialisation flood never reached nodes {uninitialised}; "
            "the logical structure is disconnected"
        )
    return {node_id: process.next_node for node_id, process in processes.items()}
