"""The experiment driver: replay a workload against an algorithm.

The driver owns the interaction pattern the paper assumes: a node issues at
most one request at a time, stays in its critical section for the request's
duration, and releases.  Requests that a workload schedules while the node's
previous one is still in progress are queued locally and issued as soon as the
node is free again, so the same :class:`~repro.workload.requests.Workload` can
be replayed against algorithms of very different speeds and still make sense.

The driver replays the workload's columns, never request objects: the node
column is each arrival's payload, and a request's duration is drawn from the
duration column as its arrival fires.

The driver learns of entries through one attribute, the system network's
``on_enter`` hook (every node of every algorithm reads it there), set with
the arrivals and cleared when :meth:`ExperimentDriver.run` returns.  What the
driver's own books already say it does not ask the nodes: a node is busy
while it is in the driver's active map.  A replay's ``completed_entries``
counts the entries that also exited, with a collector or without: without
one it is the length of the entry order less the nodes still inside their
critical section when the replay ends (a node that crashed inside never
leaves), counted once then.

The workload's arrivals go to the engine as its one bulk load, a cursor over
the schedule's columns beside the heap (:meth:`SimulationEngine.schedule_lite_bulk
<repro.sim.engine.SimulationEngine.schedule_lite_bulk>`); a driver loads once.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Type, Union

from repro.baselines.base import MutexSystem, registry
from repro.exceptions import ExperimentError, ProtocolError, SchedulingError
from repro.sim.latency import LatencyModel
from repro.sim.schedulers import SCHEDULER_MODES, unknown_scheduler_message
from repro.topology.base import Topology
from repro.workload.requests import Workload, paused_collector

if TYPE_CHECKING:
    from repro.sim.faults import FaultController


@dataclass
class ExperimentResult:
    """Outcome of replaying one workload against one algorithm.

    Attributes:
        algorithm: the algorithm's registry name.
        topology: short description of the logical topology.
        workload: short description of the workload.
        completed_entries: critical-section entries completed.
        total_messages: protocol messages sent.
        messages_per_entry: ``total_messages / completed_entries``.
        messages_by_type: per-message-type send counts.
        mean_waiting_time: average request-to-entry time, or ``None`` on
            metrics-free (fast path) runs where it is not measured.
        sync_delays: observed synchronization delays (time units).
        max_sync_delay: largest synchronization delay observed.
        entry_order: nodes in the order they entered the critical section
            (the driver's own list, not a copy).
        finished_at: virtual time at which the last event was processed.
        fault_summary: present only on fault-injected runs — the
            :class:`~repro.sim.faults.FaultController` summary (per-category
            fault counts, fault-log sha256, crashed nodes, recovery outcome)
            merged with the driver's own casualty counters (requests lost at
            crashed nodes, nodes left unserved or backlogged, any
            ProtocolError the faults provoked).
    """

    algorithm: str
    topology: str
    workload: str
    completed_entries: int
    total_messages: int
    messages_per_entry: float
    messages_by_type: Dict[str, int]
    mean_waiting_time: Optional[float]
    sync_delays: List[float]
    max_sync_delay: Optional[float]
    entry_order: List[int]
    finished_at: float
    fault_summary: Optional[Dict[str, Any]] = None

    @property
    def mean_sync_delay(self) -> Optional[float]:
        """Average synchronization delay, or ``None`` if no entry waited."""
        if not self.sync_delays:
            return None
        return sum(self.sync_delays) / len(self.sync_delays)

    @property
    def entry_order_sha256(self) -> str:
        """Compact fingerprint of the full critical-section entry order."""
        joined = ",".join(str(node) for node in self.entry_order)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    def summary_row(self) -> Dict[str, Any]:
        """Compact dictionary used by comparison tables.

        Fault-free rows are unchanged from earlier releases; fault-injected
        runs append a ``faults`` column so existing documents stay
        byte-identical.
        """
        row = {
            "algorithm": self.algorithm,
            "entries": self.completed_entries,
            "messages": self.total_messages,
            "messages_per_entry": round(self.messages_per_entry, 3),
            "mean_sync_delay": (
                round(self.mean_sync_delay, 3) if self.mean_sync_delay is not None else None
            ),
            "max_sync_delay": self.max_sync_delay,
            "mean_waiting_time": (
                round(self.mean_waiting_time, 3)
                if self.mean_waiting_time is not None
                else None
            ),
        }
        if self.fault_summary is not None:
            row["faults"] = self.fault_summary
        return row


class ExperimentDriver:
    """Replays a :class:`Workload` against a :class:`MutexSystem`.

    Args:
        system: the system under test.
        workload: the request schedule to replay, whatever stores its
            columns (lists, or a heavy schedule's lazily repeated rounds).
        scheduler: ``"auto"`` or ``"heap"``; both mean the engine's heap.
            Kept because ``experiment-spec/v1`` documents carry the field;
            it no longer selects anything.
    """

    def __init__(
        self,
        system: MutexSystem,
        workload: Workload,
        *,
        scheduler: str = "auto",
        faults: Optional["FaultController"] = None,
    ) -> None:
        if scheduler not in SCHEDULER_MODES:
            raise SchedulingError(unknown_scheduler_message(scheduler))
        self.system = system
        self.workload = workload
        self.faults = faults
        # Set when the controller arms: the injector the crash-stop gates in
        # _arrive/_release consult.  None on fault-free runs, so the
        # hot paths pay a single identity test.
        self._fault_network = None
        self._lost_requests = 0
        self.entry_order: List[int] = []
        self._nodes = system.nodes  # direct map: skip system.node() per event
        # Requests waiting because their node is still busy with an earlier
        # one, each held as its duration.  Adaptive per-node storage: the
        # first backlogged request is stored bare, a deque is allocated only
        # when a second one arrives.  Under saturated demand at large n
        # almost every node has exactly one queued request, and a million
        # empty-ish deques would cost ~600 MB.
        self._backlog: Dict[int, Union[float, Deque[float]]] = {}
        # The duration of the request currently being served (or waited on)
        # per node.  A node is busy iff it is here: from the request the
        # driver issues (or re-issues from the backlog) until its release.
        self._active: Dict[int, float] = {}
        # Set by _load_arrivals: the duration column's next(), drawn once
        # per arrival, in fire order.
        self._next_duration = None
        self._compact = system.compact_state
        # Set by _load_arrivals: a driver loads its schedule once, so run()
        # after a load (the stepping recipe's entry) replays that schedule.
        self._loaded = False

    @classmethod
    def from_spec(
        cls,
        spec,
        *,
        topology: Optional[Topology] = None,
        workload: Optional[Workload] = None,
    ) -> "ExperimentDriver":
        """The one place an :class:`~repro.spec.ExperimentSpec` is stood up.

        ``ExperimentDriver.from_spec(spec).run()`` is the whole replay.
        ``topology`` and ``workload`` default to what the spec builds; a
        caller that already built them (the sweep worker, whose clock starts
        after the workload and before the system) passes them in.  A spec
        with a :class:`~repro.spec.FaultSpec` gets a
        :class:`~repro.sim.faults.FaultController` seeded from the spec,
        armed when :meth:`run` starts — named after the spec, not after
        whatever row the caller files the result under, so a sweep cell and
        a ``repro run --spec`` replay of its exported shard inject the same
        fault stream.
        """
        if topology is None:
            topology = spec.topology.build()
        if workload is None:
            workload = spec.workload.build(topology, seed=spec.seed)
        system = spec.build_system(topology)
        faults = None
        if spec.faults is not None:
            from repro.sim.faults import FaultController

            faults = FaultController(spec.faults, name=spec.name)
        return cls(system, workload, scheduler=spec.scheduler, faults=faults)

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(self, *, max_events: int = 5_000_000) -> ExperimentResult:
        """Replay the workload to completion and return the result.

        The whole replay — fault arming, arrival loading, the drain, result
        collection — runs under
        :class:`~repro.workload.requests.paused_collector`.  A replay
        allocates no reference cycle (``tests/workload/test_replay_gc.py``:
        every algorithm, both node backends, the fault matrix), so reference
        counting frees every entry, payload and message, and a collector
        pass would only re-walk the queued run and the nodes the replay
        still holds.

        Raises:
            ExperimentError: if some requests are never granted (deadlock or
                starvation in the algorithm under test) or the event budget is
                exhausted.  On fault-injected runs incompleteness is the
                *measurement*, not an error: unserved and backlogged nodes are
                reported in ``fault_summary`` instead of raising, and a
                :class:`~repro.exceptions.ProtocolError` provoked by the
                faults ends the run and is recorded the same way.
        """
        with paused_collector():
            try:
                return self._replay(max_events)
            finally:
                # The network's enter hook is the system's only reference to
                # the driver, so it is held only while a replay runs: left
                # set, it would close a driver -> system -> network -> driver
                # cycle, and a finished driver, its whole schedule with it,
                # would wait for the collector instead of going with its
                # last reference.
                self.system.network.on_enter = None

    def _replay(self, max_events: int) -> ExperimentResult:
        engine = self.system.engine
        faults = self.faults
        if not self._loaded:
            self._load_arrivals(engine)
        # Drive through the system's run() (not the engine directly) so that
        # systems which interleave invariant checking with event processing
        # keep doing so under the driver.
        protocol_error: Optional[str] = None
        try:
            processed = self.system.run(max_events=max_events)
        except ProtocolError as exc:
            if faults is None:
                raise
            # Faults can legitimately provoke protocol violations in the
            # baselines (e.g. a dropped reply desynchronizing a quorum); the
            # violation is part of the degradation measurement.
            protocol_error = str(exc)
            processed = engine.processed_events
        if engine.pending_events > 0 and protocol_error is None:
            raise ExperimentError(
                f"{self.system.algorithm_name}: event budget of {max_events} exhausted "
                f"after {processed} events; the run did not finish"
            )
        fault_summary: Optional[Dict[str, Any]] = None
        # Entries that never exited: only a fault leaves a node inside.
        inside = 0
        if faults is not None:
            unserved, backlog = self._completion_state()
            nodes = self._nodes
            inside = sum(1 for node_id in unserved if nodes[node_id].in_critical_section)
            fault_summary = faults.summary()
            fault_summary["lost_requests"] = self._lost_requests
            fault_summary["unserved_nodes"] = len(unserved)
            fault_summary["backlogged_nodes"] = len(backlog)
            fault_summary["protocol_error"] = protocol_error
        else:
            self._verify_completion()
        metrics = self.system.metrics
        if metrics is not None:
            return ExperimentResult(
                algorithm=self.system.algorithm_name,
                topology=self.system.topology.describe(),
                workload=self.workload.description,
                completed_entries=metrics.completed_entries,
                total_messages=metrics.total_messages,
                messages_per_entry=metrics.messages_per_entry,
                messages_by_type=metrics.messages_by_type,
                mean_waiting_time=metrics.mean_waiting_time(),
                sync_delays=metrics.sync_delays,
                max_sync_delay=metrics.max_sync_delay,
                entry_order=self.entry_order,
                finished_at=engine.now,
                fault_summary=fault_summary,
            )
        # Metrics-free (fast path) run: the entries are the driver's own
        # books less those still inside, as the collector counts them; the
        # messages are the network's count; per-entry timing statistics are
        # unavailable.
        network = self.system.network
        entries = len(self.entry_order) - inside
        return ExperimentResult(
            algorithm=self.system.algorithm_name,
            topology=self.system.topology.describe(),
            workload=self.workload.description,
            completed_entries=entries,
            total_messages=network.messages_sent,
            messages_per_entry=(network.messages_sent / entries) if entries else 0.0,
            messages_by_type={},
            mean_waiting_time=None,  # not measured without a collector
            sync_delays=[],
            max_sync_delay=None,
            entry_order=self.entry_order,
            finished_at=engine.now,
            fault_summary=fault_summary,
        )

    # ------------------------------------------------------------------ #
    # arrival loading
    # ------------------------------------------------------------------ #
    def _load_arrivals(self, engine) -> None:
        """Schedule the workload's arrivals (also the setup-benchmark hook).

        Every workload loads in one ``schedule_lite_bulk`` call — one shared
        callback, :meth:`_arrive`, with the node as the event payload, no
        per-request object, closure or frame — from the workload's arrival
        time and node columns, and waits beside the heap, never in it, as a
        cursor over those columns, drawn only as the drain reaches them.
        Every sequence number is drawn here, so how the columns are stored
        never changes the replay.  Arrival order is the workload's own (a
        ``Workload`` keeps its columns in ``(arrival_time, node)`` order);
        the engine checks the first arrival against its clock.  The
        duration column is drawn by :meth:`_arrive`, one per arrival in fire
        order, which is the schedule's order.  The network's enter hook
        goes in with the arrivals: nothing enters a critical section before
        one.  A fault controller is armed first, so its events claim the
        same engine sequence numbers on every replay, whatever the worker
        count and whoever calls this.  A driver loads once: :meth:`run`
        after this replays the schedule loaded here.
        """
        self._loaded = True
        faults = self.faults
        if faults is not None:
            faults.arm(self.system)
            self._fault_network = faults.network
        self.system.network.on_enter = self._handle_enter
        times, nodes, durations = self.workload.arrivals()
        self._next_duration = durations.__next__
        engine.schedule_lite_bulk(times, self._arrive, nodes, len(self.workload))

    # ------------------------------------------------------------------ #
    # event plumbing
    # ------------------------------------------------------------------ #
    def _arrive(self, node_id: int) -> None:
        duration = self._next_duration()
        fault_network = self._fault_network
        if fault_network is not None and node_id in fault_network._crashed:
            # Crash-stop: a dead node issues nothing.  The request is counted
            # as lost rather than backlogged — a restart does not resurrect it.
            self._lost_requests += 1
            return
        active = self._active
        if node_id in active:
            backlog = self._backlog
            queued = backlog.get(node_id)
            if queued is None:
                backlog[node_id] = duration
            elif type(queued) is deque:
                queued.append(duration)
            else:
                backlog[node_id] = deque((queued, duration))
            return
        active[node_id] = duration
        state = self._compact
        if state is not None:
            state.request_cs(node_id)
        else:
            self._nodes[node_id].request_cs()

    def _handle_enter(self, node_id: int, time: float) -> None:
        self.entry_order.append(node_id)
        if self.faults is not None:
            self.faults.note_entry(node_id, time)
        duration = self._active.get(node_id, 1.0)
        # Inline schedule_lite: one release per critical-section entry makes
        # this the second-hottest scheduling site after message delivery.
        engine = self.system.engine
        sequence = engine._sequence + 1
        engine._sequence = sequence
        engine._push((engine._now + duration, sequence, self._release, node_id))

    def _release(self, node_id: int) -> None:
        fault_network = self._fault_network
        if fault_network is not None and node_id in fault_network._crashed:
            # The node died inside its critical section: it never releases,
            # and the token (if it held one) died with it — exactly the
            # liveness hole recovery exists to measure.  Its backlog stays
            # queued and is reported as backlogged at the end of the run.
            return
        state = self._compact
        if state is not None:
            state.release_cs(node_id)
        else:
            self._nodes[node_id].release_cs()
        backlog = self._backlog
        queued = backlog.get(node_id)
        if queued is None:
            self._active.pop(node_id, None)
            return
        if type(queued) is deque:
            duration = queued.popleft()
            if not queued:
                del backlog[node_id]
        else:
            duration = queued
            del backlog[node_id]
        # The node has just left its critical section, so it is not busy:
        # its next request is issued here, with no second probe.
        self._active[node_id] = duration
        if state is not None:
            state.request_cs(node_id)
        else:
            self._nodes[node_id].request_cs()

    def _completion_state(self) -> "tuple[List[int], List[int]]":
        state = self._compact
        if state is not None:
            # C-level column scan: the clean-finish case costs one translate
            # pass instead of materialising a view per node.
            unserved = state.busy_nodes()
        else:
            unserved = [
                node_id
                for node_id, node in self.system.nodes.items()
                if node.requesting or node.in_critical_section
            ]
        # A node leaves the backlog with its last request (a duration may
        # be 0.0, so no entry is tested for truth).
        return unserved, sorted(self._backlog)

    def _verify_completion(self) -> None:
        unserved, backlog = self._completion_state()
        if unserved or backlog:
            raise ExperimentError(
                f"{self.system.algorithm_name}: workload did not complete; "
                f"nodes still waiting or executing: {unserved}, backlogged nodes: {backlog}"
            )


def run_experiment(
    algorithm: Union[str, Type[MutexSystem], "ExperimentSpec"],
    topology: Optional[Topology] = None,
    workload: Optional[Workload] = None,
    *,
    latency: Optional[LatencyModel] = None,
    collect_metrics: bool = True,
) -> ExperimentResult:
    """Convenience wrapper: build the system, replay the workload, return results.

    Args:
        algorithm: a registry name (``"dag"``, ``"raymond"``, ...), a
            :class:`MutexSystem` subclass, or a complete
            :class:`~repro.spec.ExperimentSpec` — in which case every other
            argument must be left at its default (the spec already carries
            them) and the spec is replayed as-is.
        topology: the logical topology (edges are ignored by the algorithms
            that assume a fully connected logical network).
        workload: the request schedule to replay.
        latency: optional network latency model.
        collect_metrics: attach a metrics collector to the network.

    A run that needs the protocol trace builds its system with
    ``record_trace=True`` and drives it through :class:`ExperimentDriver`.
    """
    from repro.spec import ExperimentSpec

    if isinstance(algorithm, ExperimentSpec):
        if (
            topology is not None
            or workload is not None
            or latency is not None
            or not collect_metrics
        ):
            raise ExperimentError(
                "run_experiment(spec): the spec already carries the topology, "
                "workload, latency, trace and metrics choices; "
                "pass only the spec (edit the spec to change them)"
            )
        return algorithm.run()
    if topology is None or workload is None:
        raise ExperimentError(
            "run_experiment needs a topology and a workload unless given an "
            "ExperimentSpec"
        )
    system_class = registry.get(algorithm) if isinstance(algorithm, str) else algorithm
    system = system_class(
        topology,
        latency=latency,
        collect_metrics=collect_metrics,
    )
    driver = ExperimentDriver(system, workload)
    return driver.run()
