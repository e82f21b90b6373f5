"""Common interface shared by every mutual exclusion algorithm in the library.

Chapter 6 compares the DAG algorithm against seven published algorithms plus
a centralized coordinator.  To make those comparisons measured rather than
quoted, every algorithm — including the paper's own — is implemented behind
the same :class:`MutexSystem` interface on the same simulation substrate, so a
single experiment driver can replay an identical workload against each one and
read identical metrics off the collector.

A system is always constructed from a :class:`~repro.topology.Topology`.
Algorithms that ignore the logical structure (they assume a fully connected
logical network: Lamport, Ricart–Agrawala, Carvalho–Roucairol, Suzuki–Kasami,
Singhal, Maekawa, and the centralized scheme) use only the node set and the
initial token/coordinator location; the tree-structured algorithms (Raymond
and the DAG algorithm) also use the edges.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Type

from repro.exceptions import ExperimentError, ProtocolError
from repro.sim.engine import SimulationEngine
from repro.sim.latency import LatencyModel
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.trace import TraceRecorder
from repro.topology.base import Topology

#: Events :meth:`MutexSystem.run_until_quiescent` runs before it calls the
#: system livelocked.
QUIESCENCE_BUDGET = 1_000_000

#: The vocabulary for :attr:`MutexSystem.storage_class` (Section 6.4's axis):
#: ``"constant"`` — O(1) scalars per node; ``"queue"`` — a bounded FIFO per
#: node (degree- or backlog-sized); ``"quorum"`` — Theta(sqrt(N)) committee
#: state per node; ``"linear"`` — Theta(N) arrays or sets per node.
STORAGE_CLASSES = ("constant", "queue", "quorum", "linear")


@dataclass(frozen=True)
class AlgorithmCapabilities:
    """Capability metadata one algorithm declares once on its system class.

    This is the single source the benchmark and sweep matrices consult for
    tier eligibility — replacing the module-level name tuples and ``getattr``
    probes that used to encode the same facts in four different places.

    Attributes:
        name: the algorithm's registry name.
        max_recommended_nodes: the largest node count at which running the
            algorithm still measures the algorithm rather than its known
            asymptotic pathology (message or memory blow-up); ``None`` means
            unbounded.  Matrix tiers admit an algorithm to an ``n``-node
            cell iff ``max_recommended_nodes`` is ``None`` or ``>= n``.
        storage_class: per-node state growth class, one of
            :data:`STORAGE_CLASSES`.
        token_based: whether exclusion is carried by a circulating token
            (vs collected permissions).
        uses_topology_edges: whether the logical tree edges matter (vs only
            the node set).
        storage_description: the prose Section 6.4 description.
    """

    name: str
    max_recommended_nodes: Optional[int]
    storage_class: str
    token_based: bool
    uses_topology_edges: bool
    storage_description: str

    def supports_scale(self, n: int) -> bool:
        """Whether an ``n``-node cell is within the recommended range."""
        return self.max_recommended_nodes is None or n <= self.max_recommended_nodes


class MutexNodeBase(SimProcess):
    """Base class for one participant of any mutual exclusion algorithm.

    Subclasses implement :meth:`request_cs`, :meth:`release_cs` and the
    message handlers named in :attr:`_MESSAGE_HANDLERS`, and call
    :meth:`_enter_critical_section` when the algorithm's entry condition
    becomes true.  The shared bookkeeping here keeps metrics consistent
    across algorithms.

    Message dispatch is type-keyed and lives on the class: a subclass
    declares ``_MESSAGE_HANDLERS`` (message type -> handler method name),
    :class:`~repro.sim.process.SimProcess` resolves it once into the
    class-level ``dispatch_table``, and the network calls the entry for a
    delivered message's exact type as ``handler(node, sender, message)`` —
    no per-node dict, bound method or ``send`` partial.  :meth:`on_message`
    is the same lookup for a direct call and the refusal of an unknown type.

    The metrics collector and trace recorder are the network's, copied when
    the node is built, and an entry is reported to the network's
    ``on_enter`` hook.

    Args:
        node_id: this node's identifier.
        network: the reliable FIFO network shared by all nodes.
    """

    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        self.in_critical_section = False
        self.requesting = False
        self.cs_entries = 0

    # ------------------------------------------------------------------ #
    # interface
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        """Ask to enter the critical section."""
        raise NotImplementedError

    def release_cs(self) -> None:
        """Leave the critical section."""
        raise NotImplementedError

    def on_message(self, sender: int, message: Any) -> None:
        """Dispatch ``message`` to the handler registered for its type."""
        handler = self.dispatch_table.get(type(message))
        if handler is None:
            raise ProtocolError(
                f"node {self.node_id} received unexpected message {message!r}"
            )
        handler(self, sender, message)

    # ------------------------------------------------------------------ #
    # shared bookkeeping for subclasses
    # ------------------------------------------------------------------ #
    def _note_request(self) -> None:
        """Record the request with the metrics collector and guard re-entry."""
        if self.requesting:
            raise ProtocolError(f"node {self.node_id} already has an outstanding request")
        if self.in_critical_section:
            raise ProtocolError(f"node {self.node_id} is already in its critical section")
        self.requesting = True
        if self._metrics is not None:
            self._metrics.cs_requested(self.node_id, self.now)
        if self._trace is not None:
            self._trace.record(self.now, "cs_request", self.node_id)

    def _enter_critical_section(self) -> None:
        """Mark entry, notify metrics/trace and the network's enter hook."""
        self.requesting = False
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

    def _note_exit(self) -> None:
        """Mark exit with metrics/trace; subclasses then pass on permissions."""
        if not self.in_critical_section:
            raise ProtocolError(f"node {self.node_id} is not in its critical section")
        self.in_critical_section = False
        if self._metrics is not None:
            self._metrics.cs_exited(self.node_id, self.now)
        if self._trace is not None:
            self._trace.record(self.now, "cs_exit", self.node_id)


class MutexSystem(abc.ABC):
    """A complete mutual exclusion system: engine, network and all nodes.

    Subclasses override :meth:`_create_nodes` to instantiate their node type
    on :attr:`network`, which hands every node its observers, and the class
    attributes describing the algorithm for reports.
    """

    #: Human-readable algorithm name used in comparison tables.
    algorithm_name: str = "abstract"
    #: Whether the algorithm uses the logical tree edges (vs only the node set).
    uses_topology_edges: bool = False
    #: Per-node storage description for the Section 6.4 comparison.
    storage_description: str = ""
    #: Largest node count the algorithm is worth running at (``None`` =
    #: unbounded).  See :class:`AlgorithmCapabilities.max_recommended_nodes`;
    #: the bench/sweep tier matrices read this through the registry.
    max_recommended_nodes: Optional[int] = None
    #: Per-node state growth class, one of :data:`STORAGE_CLASSES`.
    storage_class: str = "constant"
    #: Whether exclusion travels as a token (vs collected permissions).
    token_based: bool = False

    def __init__(
        self,
        topology: Topology,
        *,
        latency: Optional[LatencyModel] = None,
        record_trace: bool = False,
        collect_metrics: bool = True,
        network_factory: Optional[Type[Network]] = None,
    ) -> None:
        self.topology = topology
        self.engine = SimulationEngine()
        # ``collect_metrics=False`` leaves the network unobserved (its
        # observer branch is never taken) — the throughput benchmarks run
        # this way and read counts off the network and the nodes instead.
        self.metrics: Optional[MetricsCollector] = (
            MetricsCollector() if collect_metrics else None
        )
        self.trace = TraceRecorder(enabled=record_trace)
        # ``network_factory`` swaps the substrate under every algorithm
        # uniformly (fault-carrying specs pass FaultInjectingNetwork).
        network_class = network_factory if network_factory is not None else Network
        self.network = network_class(
            self.engine,
            latency=latency,
            metrics=self.metrics,
            trace=self.trace if record_trace else None,
        )
        #: Which backend the nodes actually use ("object" unless a compact
        #: ``_create_nodes`` overrides it) and, on the compact backend, the
        #: column store itself — the driver and benchmarks probe these.
        self.node_backend = "object"
        self.compact_state = None
        self.nodes: Dict[int, MutexNodeBase] = self._create_nodes()

    # ------------------------------------------------------------------ #
    # construction hook
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _create_nodes(self) -> Dict[int, MutexNodeBase]:
        """Instantiate one node object per topology node."""

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> List[int]:
        """All node identifiers, in topology order."""
        return list(self.nodes)

    def node(self, node_id: int) -> MutexNodeBase:
        """The node object for ``node_id``."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ProtocolError(f"unknown node {node_id}") from None

    def request(self, node_id: int) -> None:
        """Issue a critical-section request at ``node_id``."""
        self.node(node_id).request_cs()

    def release(self, node_id: int) -> None:
        """Release the critical section at ``node_id``."""
        self.node(node_id).release_cs()

    def run(self, *, max_events: Optional[int] = None, until: Optional[float] = None) -> int:
        """Advance the simulation; returns the number of events processed."""
        return self.engine.run(max_events=max_events, until=until)

    def run_until_quiescent(self) -> int:
        """Run until no events remain.

        Raises:
            ExperimentError: if :data:`QUIESCENCE_BUDGET` events pass and some
                remain, which indicates a livelock in the algorithm under test.
        """
        processed = self.engine.run(max_events=QUIESCENCE_BUDGET)
        if self.engine.pending_events > 0:
            raise ExperimentError(
                f"{self.algorithm_name}: simulation did not quiesce within "
                f"{QUIESCENCE_BUDGET} events"
            )
        return processed

    def in_critical_section(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently inside its critical section."""
        return self.node(node_id).in_critical_section

    def nodes_in_critical_section(self) -> List[int]:
        """All nodes currently inside their critical sections (should be ≤ 1)."""
        return sorted(
            node_id for node_id, node in self.nodes.items() if node.in_critical_section
        )

    def describe(self) -> str:
        """Short description used in comparison tables."""
        return f"{self.algorithm_name} (N={self.topology.size})"


class AlgorithmRegistry:
    """Registry mapping algorithm names to :class:`MutexSystem` subclasses.

    The comparison benchmarks iterate over the registry so that adding a new
    algorithm automatically includes it in every comparison.
    """

    def __init__(self) -> None:
        self._systems: Dict[str, Type[MutexSystem]] = {}

    def register(self, system_class: Type[MutexSystem]) -> Type[MutexSystem]:
        """Register a system class under its ``algorithm_name`` (decorator-friendly)."""
        name = system_class.algorithm_name
        if name in self._systems:
            raise ValueError(f"algorithm {name!r} is already registered")
        self._systems[name] = system_class
        return system_class

    def get(self, name: str) -> Type[MutexSystem]:
        """Look up a system class by algorithm name."""
        try:
            return self._systems[name]
        except KeyError:
            raise KeyError(
                f"unknown algorithm {name!r}; known: {sorted(self._systems)}"
            ) from None

    def names(self) -> List[str]:
        """All registered algorithm names, in registration order."""
        return list(self._systems)

    def items(self) -> List[tuple]:
        """(name, class) pairs in registration order."""
        return list(self._systems.items())

    def capabilities(self, name: str) -> AlgorithmCapabilities:
        """The capability metadata declared on ``name``'s system class."""
        system_class = self.get(name)
        if system_class.storage_class not in STORAGE_CLASSES:
            raise ValueError(
                f"algorithm {name!r} declares storage_class "
                f"{system_class.storage_class!r}; expected one of {STORAGE_CLASSES}"
            )
        return AlgorithmCapabilities(
            name=name,
            max_recommended_nodes=system_class.max_recommended_nodes,
            storage_class=system_class.storage_class,
            token_based=system_class.token_based,
            uses_topology_edges=system_class.uses_topology_edges,
            storage_description=system_class.storage_description,
        )

    def names_for_scale(self, n: int) -> List[str]:
        """Algorithms recommended at ``n`` nodes, in registration order.

        This is the query the tiered matrices use instead of hand-maintained
        eligibility tuples: an algorithm joins an ``n``-node tier iff its
        declared ``max_recommended_nodes`` admits it.
        """
        return [
            name
            for name in self._systems
            if self.capabilities(name).supports_scale(n)
        ]


#: The global registry populated by the modules in this package.
registry = AlgorithmRegistry()
