"""Fault injection: probing which of the paper's assumptions are load-bearing.

The algorithm's proofs (Chapter 5) rest on three assumptions: the network is
reliable, per-sender FIFO, and nodes do not fail.  This module provides a
network that can violate the first and third assumption on demand — dropping
selected messages and crash-stopping nodes — so tests and experiments can
demonstrate *which* property breaks when an assumption is removed:

* **Safety is never lost.**  Mutual exclusion depends only on there being at
  most one token; dropping messages or silencing nodes can only lose the
  token, never duplicate it.
* **Liveness is exactly as fragile as the paper says.**  A dropped REQUEST
  starves its originator; a dropped PRIVILEGE or a crashed token holder
  starves every later requester; a crashed node that is not on any request
  path is harmless.

Faults are *deterministic*: targeted drops are exact budgets, random drops
draw from a :class:`~repro.sim.rng.SeededRNG`, and crash/partition schedules
fire at fixed virtual times.  Two runs of the same
:class:`~repro.spec.FaultSpec` therefore produce byte-identical
:class:`FaultLog` contents (see :meth:`FaultLog.digest`), compared across
node backends (tier-1) and worker counts (CI).

Crash-stop semantics (and the one subtlety worth documenting): a message sent
*to* a crashed node is recorded as lost at send time, and a message already in
flight when its receiver crashes is recorded as lost at delivery time.  In
both cases :meth:`FaultInjectingNetwork.restart` does **not** resurrect it —
restart restores participation only; everything addressed to the node while it
was down stays lost forever.

The injector is deliberately *not* part of the normal protocol stack: the
paper assumes these faults away, and the reproduction follows the paper.  It
exists to make the boundary of the guarantees measurable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.recovery import regenerate_token
from repro.exceptions import ExperimentError
from repro.sim.engine import SimulationEngine
from repro.sim.latency import LatencyModel
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network, _describe_message
from repro.sim.rng import SeededRNG
from repro.sim.trace import TraceRecorder

#: Message classes that grant entry without the name ending in "Privilege".
_PRIVILEGE_CLASS_NAMES = frozenset(
    {"CentralGrant", "RAReply", "LamportAck", "MaekawaLocked"}
)

FaultListener = Callable[[str, Any], None]

#: Sentinel crash target: resolve "the node currently holding the token" at
#: the crash's fire time (token-based algorithms; falls back to the
#: topology's initial holder when the token is in flight or untracked).
TOKEN_HOLDER = "token-holder"


def message_kind(message_type: type) -> str:
    """Classify a message class as ``privilege``, ``request``, or ``other``.

    The classification is by class *name* so the injector works uniformly
    across all nine algorithms without importing any of them: every
    entry-granting class either ends in ``Privilege`` or is one of the four
    permission-based grant classes; every request class ends in ``Request``.
    """
    name = message_type.__name__
    if name.endswith("Privilege") or name in _PRIVILEGE_CLASS_NAMES:
        return "privilege"
    if name.endswith("Request"):
        return "request"
    return "other"


@dataclass
class FaultLog:
    """Record of every fault the injector actually applied.

    Message entries are ``(time, sender, receiver, label)`` tuples; crash and
    restart entries are ``(time, node)``; partition and heal entries are
    ``(time, a, b)``.  Everything is plain data on purpose: the whole log
    serializes canonically, so :meth:`digest` gives a replay fingerprint that
    CI can compare across node backends and sweep worker counts.
    """

    #: Messages discarded by a typed drop budget or the random rate.
    dropped_messages: list = field(default_factory=list)
    #: Sends attempted by a crashed node (never entered the network).
    suppressed_sends: list = field(default_factory=list)
    #: Messages addressed to a crashed node — at send time or while in flight.
    suppressed_deliveries: list = field(default_factory=list)
    #: Stale in-flight messages discarded by a recovery fence.
    fenced_messages: list = field(default_factory=list)
    #: Messages dropped because their directed channel was partitioned.
    partition_drops: list = field(default_factory=list)
    crashes: list = field(default_factory=list)
    restarts: list = field(default_factory=list)
    partitions: list = field(default_factory=list)
    heals: list = field(default_factory=list)

    @property
    def total_faults(self) -> int:
        """Total number of messages affected by injected faults."""
        return (
            len(self.dropped_messages)
            + len(self.suppressed_sends)
            + len(self.suppressed_deliveries)
            + len(self.fenced_messages)
            + len(self.partition_drops)
        )

    def counts(self) -> Dict[str, int]:
        """Per-category entry counts, for experiment summaries."""
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}

    def to_dict(self) -> Dict[str, list]:
        """The full log as JSON-ready lists (tuples become lists)."""
        return {
            f.name: [list(entry) for entry in getattr(self, f.name)]
            for f in fields(self)
        }

    def digest(self) -> str:
        """sha256 over the canonical JSON of the full log.

        Two runs applied *exactly* the same faults, in the same order, at the
        same virtual times, iff their digests match — the byte-identity
        fingerprint the replay-determinism gates compare.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class FaultInjectingNetwork(Network):
    """A :class:`~repro.sim.network.Network` with controllable fault injection.

    Faults available:

    * :meth:`drop_next_of_kind` — discard the next ``count`` PRIVILEGE-class
      or REQUEST-class messages network-wide, whatever their channel (a
      targeted violation of the reliability assumption);
    * :meth:`set_drop_rate` — drop each message independently with a fixed
      probability drawn from a seeded RNG (deterministic replay);
    * :meth:`crash` — crash-stop a node: it neither sends nor receives from
      the moment of the call until :meth:`restart`;
    * the inherited :meth:`partition` / :meth:`heal` for persistent loss
      (partitioned sends are additionally recorded in the fault log);
    * :meth:`fence` — discard every message currently in flight, used by
      token regeneration to clear stale pre-recovery traffic.

    All injected faults are recorded in :attr:`fault_log` so experiments can
    report exactly what was done to the run, and :attr:`privilege_in_flight`
    tracks entry-granting messages between send and delivery exactly — the
    signal recovery uses to distinguish "token in transit" from "token lost".

    Note on accounting: messages the injector discards at send time never
    reach the base network, so they appear in neither ``messages_sent`` nor
    the metrics collector — the fault log is their only record.  Partitioned
    sends keep the base-class accounting (counted as sent, then dropped).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        *,
        latency: Optional[LatencyModel] = None,
        metrics: Optional[MetricsCollector] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(engine, latency=latency, metrics=metrics, trace=trace)
        self._typed_budget: Dict[str, int] = {"privilege": 0, "request": 0}
        self._crashed: Set[int] = set()
        self._drop_rate = 0.0
        self._drop_rng: Optional[SeededRNG] = None
        self._fence_sequence = -1
        self._privilege_in_flight = 0
        self._kind_cache: Dict[type, str] = {}
        #: Optional hook called as ``listener(category, detail)`` after every
        #: injected fault; the :class:`FaultController` uses it to trigger
        #: recovery checks without polling the engine.
        self.fault_listener: Optional[FaultListener] = None
        self.fault_log = FaultLog()

    # ------------------------------------------------------------------ #
    # fault controls
    # ------------------------------------------------------------------ #
    def drop_next_of_kind(self, kind: str, *, count: int = 1) -> None:
        """Drop the next ``count`` messages of ``kind`` regardless of channel.

        ``kind`` is ``"privilege"`` (entry-granting messages: PRIVILEGE and
        the permission-based grant/reply classes) or ``"request"``.
        """
        if kind not in self._typed_budget:
            raise ValueError(f"kind must be 'privilege' or 'request', got {kind!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._typed_budget[kind] += count

    def set_drop_rate(self, rate: float, rng: SeededRNG) -> None:
        """Drop each subsequent message independently with probability ``rate``.

        The draw comes from ``rng`` in strict send order, so identical seeds
        replay the exact same loss pattern.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"drop rate must be in [0, 1), got {rate}")
        self._drop_rate = float(rate)
        self._drop_rng = rng

    def crash(self, node_id: int) -> None:
        """Crash-stop ``node_id``: its sends vanish and nothing is delivered to it."""
        if node_id not in self._crashed:
            self._crashed.add(node_id)
            self.fault_log.crashes.append((self._engine.now, node_id))
            self._notify("crash", node_id)

    def restart(self, node_id: int) -> None:
        """Let a crashed node participate again.

        Restart restores *participation only*: every message addressed to the
        node while it was down — whether sent during the outage or already in
        flight when it crashed — was recorded as a suppressed delivery and
        stays lost.  The node resumes with whatever protocol state it had at
        the moment of the crash.
        """
        if node_id in self._crashed:
            self._crashed.discard(node_id)
            self.fault_log.restarts.append((self._engine.now, node_id))
            self._notify("restart", node_id)

    def fence(self) -> None:
        """Discard every message currently in flight.

        Marks the engine's current sequence number; any delivery scheduled at
        or before it is dropped (and logged as fenced) instead of delivered.
        Token regeneration uses this to guarantee no stale pre-recovery
        PRIVILEGE or REQUEST can surface after a new token is minted — the
        duplication hazard the paper's safety proof never has to consider.
        """
        self._fence_sequence = self._engine._sequence

    @property
    def crashed_nodes(self) -> Set[int]:
        """Nodes currently crash-stopped."""
        return set(self._crashed)

    @property
    def privilege_in_flight(self) -> int:
        """Entry-granting messages sent but not yet delivered, dropped, or fenced."""
        return self._privilege_in_flight

    # ------------------------------------------------------------------ #
    # interception
    # ------------------------------------------------------------------ #
    def _kind_of(self, message_type: type) -> str:
        kind = self._kind_cache.get(message_type)
        if kind is None:
            kind = message_kind(message_type)
            self._kind_cache[message_type] = kind
        return kind

    def _notify(self, category: str, detail: Any) -> None:
        listener = self.fault_listener
        if listener is not None:
            listener(category, detail)

    def send(self, sender: int, receiver: int, message: Any) -> None:
        log = self.fault_log
        kind = self._kind_of(type(message))
        if sender in self._crashed:
            # A crashed node produces no messages.  The send is not counted as
            # protocol traffic either: the node is dead.
            log.suppressed_sends.append(
                (self._engine.now, sender, receiver, _describe_message(message))
            )
            self._notify("suppressed-send", kind)
            return
        if receiver in self._crashed:
            # Lost at send time; a later restart does not resurrect it.
            log.suppressed_deliveries.append(
                (self._engine.now, sender, receiver, _describe_message(message))
            )
            self._notify("suppressed-delivery", kind)
            return
        if kind != "other" and self._typed_budget[kind] > 0:
            self._typed_budget[kind] -= 1
            log.dropped_messages.append(
                (self._engine.now, sender, receiver, _describe_message(message))
            )
            self._notify("dropped", kind)
            return
        if self._drop_rate and self._drop_rng is not None:
            if self._drop_rng.random() < self._drop_rate:
                log.dropped_messages.append(
                    (self._engine.now, sender, receiver, _describe_message(message))
                )
                self._notify("dropped", kind)
                return
        # Partitioned sends are delegated to the base class (which counts
        # them as sent-then-dropped) but logged here, and excluded from the
        # in-flight privilege count since they never get a delivery event.
        partitioned = False
        if self._partition_count:
            state = self._channels.get((sender, receiver))
            partitioned = state is not None and state.partitioned
        if partitioned:
            log.partition_drops.append(
                (self._engine.now, sender, receiver, _describe_message(message))
            )
            self._notify("partition-drop", kind)
        elif kind == "privilege":
            self._privilege_in_flight += 1
        super().send(sender, receiver, message)

    def _deliver(self, payload: Tuple[int, int, Any, int]) -> None:
        sender, receiver, message, sequence = payload
        if sequence <= self._fence_sequence:
            self._lose_in_flight(
                self.fault_log.fenced_messages, "fenced", sender, receiver, message
            )
        elif receiver in self._crashed:
            # In flight when the receiver crashed: lost, restart or not.
            self._lose_in_flight(
                self.fault_log.suppressed_deliveries,
                "suppressed-delivery",
                sender,
                receiver,
                message,
            )
        else:
            if self._kind_of(type(message)) == "privilege":
                self._privilege_in_flight -= 1
            super()._deliver(payload)

    def _lose_in_flight(
        self, log: list, category: str, sender: int, receiver: int, message: Any
    ) -> None:
        """Discard a message at delivery time: log it, count it dropped.

        Counting it keeps ``sent == delivered + dropped + in_flight`` true,
        so ``messages_in_flight`` returns to zero once the engine is empty.
        """
        log.append((self._engine.now, sender, receiver, _describe_message(message)))
        self._dropped += 1
        kind = self._kind_of(type(message))
        if kind == "privilege":
            self._privilege_in_flight -= 1
        self._notify(category, kind)


def refuse_foreign_targets(spec, topology) -> None:
    """Refuse a :class:`~repro.spec.FaultSpec` that crashes or partitions a
    node ``topology`` does not have (a ``TOKEN_HOLDER`` crash names none)."""
    n = topology.size
    targets = [("crash", crash.node) for crash in spec.crashes if crash.node != TOKEN_HOLDER]
    targets += [("partition", end) for window in spec.partitions for end in (window.a, window.b)]
    for kind, node in targets:
        if not 1 <= node <= n:
            raise ExperimentError(f"{kind} targets node {node} but the topology has nodes 1..{n}")


class FaultController:
    """Arms a :class:`~repro.spec.FaultSpec` onto a built system.

    The controller translates the declarative spec into concrete injector
    calls and engine events: drop budgets and the seeded drop rate are
    configured up front; crashes, restarts, and partition windows are
    scheduled at their virtual times; and — for the DAG protocol only — a
    recovery watchdog regenerates the token when it is provably lost.

    Recovery is event-driven, not polled: the injector's fault listener
    schedules a liveness check ``recovery.delay`` after any fault that could
    lose the token (a crash or a dropped entry-granting message).  The check
    declares the token lost only when no live node holds it *and* no
    entry-granting message is in flight; a token in transit defers the
    verdict by ``recovery.check_interval``.  This never keeps the engine
    alive on its own — no event is scheduled unless a fault actually fired.
    """

    #: How many times a ``token-holder`` crash re-polls while the token is in
    #: flight before falling back to the topology's initial holder.
    MAX_RESOLUTION_ATTEMPTS = 40
    RESOLUTION_RETRY_DELAY = 0.5
    #: Bound on deferred "token in transit" re-checks before giving up.
    MAX_RECOVERY_CHECKS = 10_000

    def __init__(self, spec, *, name: str) -> None:
        self.spec = spec
        self.name = name
        self.armed = False
        self._system = None
        self._network: Optional[FaultInjectingNetwork] = None
        self._resolved: List[Optional[int]] = []
        self._attempts: List[int] = []
        self._check_pending = False
        self._check_attempts = 0
        self._loss_suspected_at: Optional[float] = None
        self._recovery_done = False
        self._recovery_abandoned = False
        self._awaiting_entry = False
        self._recovery_info: Optional[Dict[str, Any]] = None

    @property
    def network(self) -> FaultInjectingNetwork:
        if self._network is None:
            raise ExperimentError("fault controller is not armed")
        return self._network

    def arm(self, system) -> None:
        """Configure the injector and schedule every timed fault.

        Must run before the workload is loaded, so the fault events claim
        the same engine sequence numbers on every replay.
        """
        if self.armed:
            raise ExperimentError("fault controller is already armed")
        network = system.network
        if not isinstance(network, FaultInjectingNetwork):
            raise ExperimentError(
                "faults require a FaultInjectingNetwork; build the system "
                "with network_factory=FaultInjectingNetwork"
            )
        spec = self.spec
        if spec.recovery is not None and getattr(system, "algorithm_name", None) != "dag":
            raise ExperimentError(
                "token-regeneration recovery is defined only for the dag algorithm"
            )
        self._system = system
        self._network = network
        engine = system.engine
        if spec.drop_rate:
            network.set_drop_rate(
                spec.drop_rate, SeededRNG(spec.seed, label=f"faults/{self.name}")
            )
        if spec.drop_privilege:
            network.drop_next_of_kind("privilege", count=spec.drop_privilege)
        if spec.drop_request:
            network.drop_next_of_kind("request", count=spec.drop_request)
        self._resolved = [None] * len(spec.crashes)
        self._attempts = [0] * len(spec.crashes)
        for index, crash in enumerate(spec.crashes):
            engine.schedule_lite(crash.time, self._fire_crash, index)
            if crash.restart is not None:
                engine.schedule_lite(crash.restart, self._fire_restart, index)
        for window in spec.partitions:
            engine.schedule_lite(window.start, self._fire_partition, window)
            if window.heal is not None:
                engine.schedule_lite(window.heal, self._fire_heal, window)
        if spec.recovery is not None:
            network.fault_listener = self._on_fault
        self.armed = True

    # ------------------------------------------------------------------ #
    # timed fault events
    # ------------------------------------------------------------------ #
    def _fire_crash(self, index: int) -> None:
        crash = self.spec.crashes[index]
        target = crash.node
        if target == TOKEN_HOLDER:
            target = self._find_token_holder()
            if target is None:
                # Token in flight (or nobody in CS yet): re-poll shortly so
                # the kill lands on whoever actually holds it.
                self._attempts[index] += 1
                if self._attempts[index] < self.MAX_RESOLUTION_ATTEMPTS:
                    engine = self._system.engine
                    engine.schedule_lite(
                        engine.now + self.RESOLUTION_RETRY_DELAY,
                        self._fire_crash,
                        index,
                    )
                    return
                target = self._system.topology.token_holder
        target = int(target)
        self._resolved[index] = target
        self._network.crash(target)

    def _fire_restart(self, index: int) -> None:
        target = self._resolved[index]
        if target is None:
            # The crash is still resolving its token-holder target; try again
            # after the resolution retry interval.
            engine = self._system.engine
            engine.schedule_lite(
                engine.now + self.RESOLUTION_RETRY_DELAY, self._fire_restart, index
            )
            return
        self._network.restart(target)

    def _fire_partition(self, window) -> None:
        network = self._network
        network.partition(window.a, window.b)
        if window.symmetric:
            network.partition(window.b, window.a)
        network.fault_log.partitions.append(
            (self._system.engine.now, window.a, window.b)
        )

    def _fire_heal(self, window) -> None:
        network = self._network
        network.heal(window.a, window.b)
        if window.symmetric:
            network.heal(window.b, window.a)
        network.fault_log.heals.append((self._system.engine.now, window.a, window.b))

    def _find_token_holder(self) -> Optional[int]:
        crashed = self._network._crashed
        best: Optional[int] = None
        for node_id, node in self._system.nodes.items():
            if node_id in crashed:
                continue
            has = getattr(node, "has_token", None)
            if callable(has):
                holds = has()  # DagMutexNode: holding or in CS
            elif has is not None:
                holds = bool(has)  # token-passing baselines expose a flag
            else:
                holds = node.in_critical_section
            if holds and (best is None or node_id < best):
                best = node_id
        return best

    # ------------------------------------------------------------------ #
    # recovery watchdog (dag only)
    # ------------------------------------------------------------------ #
    def _on_fault(self, category: str, detail: Any) -> None:
        if self._recovery_done or self._recovery_abandoned or self._check_pending:
            return
        if category not in ("crash", "dropped", "suppressed-delivery", "fenced"):
            return
        if category != "crash" and detail != "privilege":
            return
        engine = self._system.engine
        self._loss_suspected_at = engine.now
        self._check_pending = True
        engine.schedule_lite(
            engine.now + self.spec.recovery.delay, self._recovery_check, None
        )

    def _token_status(self) -> str:
        crashed = self._network._crashed
        for node_id, node in self._system.nodes.items():
            if node_id in crashed:
                continue
            if node.has_token():
                return "held"
        if self._network.privilege_in_flight > 0:
            return "in-flight"
        return "lost"

    def _recovery_check(self, _payload) -> None:
        self._check_pending = False
        if self._recovery_done or self._recovery_abandoned:
            return
        status = self._token_status()
        if status == "held":
            return
        engine = self._system.engine
        if status == "in-flight":
            self._check_attempts += 1
            if self._check_attempts >= self.MAX_RECOVERY_CHECKS:
                self._recovery_abandoned = True
                return
            self._check_pending = True
            engine.schedule_lite(
                engine.now + self.spec.recovery.check_interval,
                self._recovery_check,
                None,
            )
            return
        # Nothing sent before this instant may ever be delivered.
        self._network.fence()
        info = regenerate_token(self._system.nodes, crashed=self._network._crashed)
        self._recovery_done = True
        self._awaiting_entry = True
        self._recovery_info = {
            "token_lost_at": self._loss_suspected_at,
            "regenerated_at": engine.now,
            "time_to_liveness": None,
            "first_entry_after_recovery": None,
            **info,
        }

    def note_entry(self, node_id: int, time: float) -> None:
        """Driver hook: a node entered its CS — close the liveness gap metric."""
        if self._awaiting_entry and self._recovery_info is not None:
            self._recovery_info["first_entry_after_recovery"] = {
                "node": node_id,
                "time": time,
            }
            self._recovery_info["time_to_liveness"] = (
                time - self._recovery_info["token_lost_at"]
            )
            self._awaiting_entry = False

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """Deterministic fault summary merged into the experiment result."""
        log = self.network.fault_log
        summary: Dict[str, Any] = {
            "profile_seed": self.spec.seed,
            "counts": log.counts(),
            "total_faults": log.total_faults,
            "fault_log_sha256": log.digest(),
            "crashed_nodes": sorted(self.network.crashed_nodes),
        }
        if self.spec.recovery is not None:
            recovery: Optional[Dict[str, Any]] = self._recovery_info
            if recovery is None:
                recovery = {"regenerated_at": None, "abandoned": self._recovery_abandoned}
            summary["recovery"] = recovery
        return summary

