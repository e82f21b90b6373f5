"""Declarative experiment specifications: one serializable description of a run.

The paper's headline result is a comparison matrix — the DAG algorithm
against eight baselines across topologies, sizes and demand tiers — and for
four PRs that matrix was described four different ways: bench cell dicts,
sweep scenario records, positional ``run_experiment`` arguments, and ad-hoc
CLI flags.  This module collapses them into one canonical value:
:class:`ExperimentSpec`, a frozen, JSON-round-trippable record of *everything*
that determines a run's virtual-time outcome (algorithm, topology, workload,
latency model, seed) plus the metrics toggle, which does not.

The codec and the specs the live lock service reads too (``TopologySpec``,
``ObsSpec``, ``RuntimeSpec`` and its fault specs) are in :mod:`repro.spec_base`,
which loads no simulator; this module re-exports them.

Design rules:

* **Specs are data, and the fields are the format.**  A spec's JSON form is
  its dataclass fields, written by one codec (:class:`_SpecCodec`) that no
  spec class overrides; ``from_json(canonical_json(s)) == s``, so a spec can
  be committed, diffed, and shipped to another machine — cross-machine sweep
  shards are a matter of sending spec JSON.  ``from_dict`` is the one gate
  for spec input from outside the program: an unknown or missing field, a
  wrong schema or a value of the wrong JSON type is an ``ExperimentError``
  naming the spec and the field, before the constructor's own checks run.
* **Specs are the construction path, not a parallel one.**  The bench and
  sweep matrices build their cells *through* these builders
  (``TopologySpec.build``, ``WorkloadSpec.build``), so a spec-built scenario
  replays byte-identically to the legacy entry points — CI-gated.
* **Capabilities live on the algorithm, not in the matrix.**  Tier
  eligibility reads
  :meth:`repro.baselines.base.AlgorithmRegistry.capabilities`, declared once
  on each system class, instead of module-level name tuples.
"""

# No ``from __future__ import annotations``: see :mod:`repro.spec_base`.
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.baselines.base import MutexSystem, registry
from repro.exceptions import ExperimentError
from repro.sim.faults import TOKEN_HOLDER, FaultInjectingNetwork
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.rng import SeededRNG
from repro.sim.schedulers import SCHEDULER_MODES, unknown_scheduler_message
from repro.spec_base import (  # every name the live service shares, re-exported
    SOCKET_KINDS, TOPOLOGY_KINDS, ObsSpec, RuntimeFaultSpec, RuntimeSpec, ShardCrashSpec,
    TopologySpec, _SpecCodec, _unknown,
)
from repro.topology.base import Topology
from repro.workload.driver import ExperimentDriver
from repro.workload.generator import WorkloadGenerator
from repro.workload.requests import Workload

#: Workload tiers a spec can name.  The parameterisations are part of the
#: committed bench/sweep contract: extend with new tiers instead of editing
#: existing ones.
WORKLOAD_TIERS = ("light", "heavy", "bursty", "hotspot", "diurnal")

#: Node count at or above which the bench and sweep tiers' heavy cells run
#: :data:`XXLARGE_HEAVY_ROUNDS` rounds instead of their own round count
#: (:func:`repro.cells.tier_workload`).  The name is historical: such cells
#: once streamed their schedule, and every heavy schedule is lazy now.
#: Canonical home of the constant the bench and sweep tiers share.
STREAMING_NODE_THRESHOLD = 500_000

#: Heavy-demand rounds for the cells of :data:`STREAMING_NODE_THRESHOLD`
#: nodes or more: two rounds of every-node demand keeps a 1M cell at ~10M
#: events.
XXLARGE_HEAVY_ROUNDS = 2

#: Default heavy-demand rounds (the DAG benchmark matrix definition; the
#: sweep tier passes 5 explicitly).
DEFAULT_HEAVY_ROUNDS = 10


@dataclass(frozen=True)
class WorkloadSpec(_SpecCodec):
    """A workload tier plus the knobs the tiered matrices vary.

    Attributes:
        tier: one of :data:`WORKLOAD_TIERS`.
        rounds: heavy-demand rounds (heavy tier only;
            ``None`` = :data:`DEFAULT_HEAVY_ROUNDS`).
        total_requests: request count for the arrival-process tiers
            (``None`` = twice the node count, the matrix convention).

    A heavy schedule is a :class:`~repro.workload.requests.HeavyRounds`
    value at any size: O(n) memory, drawn lazily by the replay.
    """

    tier: str
    rounds: Optional[int] = None
    total_requests: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tier not in WORKLOAD_TIERS:
            raise ExperimentError(_unknown("workload tier", self.tier, WORKLOAD_TIERS))
        if self.rounds is not None and self.tier != "heavy":
            raise ExperimentError(f"rounds only applies to the heavy tier, not {self.tier!r}")
        if self.rounds is not None and self.rounds < 1:
            raise ExperimentError(f"rounds must be >= 1, got {self.rounds}")
        if self.total_requests is not None and self.tier == "heavy":
            raise ExperimentError("the heavy tier is sized by rounds, not total_requests")

    def build(self, topology: Topology, *, seed: int = 0) -> Workload:
        """Construct the tier's schedule on ``topology`` with ``seed``.

        These parameterisations are the committed bench/sweep tier
        definitions (:func:`repro.cells.tier_workload` picks the rounds), so
        a spec-built workload is request-for-request identical to the
        committed rows.  A build allocates no container per request (a
        schedule is columns), so it runs with the collector as the caller
        left it.
        """
        generator = WorkloadGenerator(topology.nodes, seed=seed)
        n = len(topology.nodes)
        requests = self.total_requests if self.total_requests is not None else 2 * n
        if self.tier == "light":
            return generator.poisson(total_requests=requests, mean_interarrival=5.0)
        if self.tier == "heavy":
            rounds = self.rounds if self.rounds is not None else DEFAULT_HEAVY_ROUNDS
            return generator.heavy_demand(rounds=rounds)
        if self.tier == "bursty":
            return generator.bursty(
                total_requests=requests,
                mean_burst_size=8.0,
                burst_interarrival=0.5,
                mean_idle_gap=20.0,
            )
        if self.tier == "hotspot":
            hot = list(topology.nodes)[: max(1, n // 10)]
            return generator.hotspot(
                total_requests=requests,
                hot_nodes=hot,
                hot_fraction=0.8,
                mean_interarrival=2.0,
            )
        # diurnal: one full day/night cycle per ~40 mean interarrivals.
        return generator.diurnal(total_requests=requests)


#: Latency model kinds a spec can name.
LATENCY_KINDS = ("constant", "uniform", "exponential")


@dataclass(frozen=True)
class CrashSpec(_SpecCodec):
    """One crash-stop event: kill ``node`` at virtual ``time``.

    ``node`` is a node id or the :data:`~repro.sim.faults.TOKEN_HOLDER`
    sentinel, resolved when the crash fires.  A crashed node neither sends
    nor receives; messages already in flight to it are lost, and messages
    sent to it while down stay lost even if ``restart`` later revives it
    (crash-stop, not pause — see ``FaultInjectingNetwork.restart``).
    """

    node: Union[int, str]
    time: float
    restart: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.node, str) and self.node != TOKEN_HOLDER:
            raise ExperimentError(
                f"crash target must be a node id or {TOKEN_HOLDER!r}, got {self.node!r}"
            )
        if self.time < 0:
            raise ExperimentError(f"crash time must be >= 0, got {self.time}")
        if self.restart is not None and self.restart <= self.time:
            raise ExperimentError(
                f"restart time {self.restart} must be after the crash time {self.time}"
            )


@dataclass(frozen=True)
class PartitionSpec(_SpecCodec):
    """One partition window: sever the ``a``/``b`` channel during it.

    Messages sent on a partitioned channel are silently lost (they are not
    queued for the heal).  ``symmetric`` severs both directions; ``heal=None``
    leaves the partition in place for the rest of the run.
    """

    a: int
    b: int
    start: float
    heal: Optional[float] = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ExperimentError(f"partition endpoints must differ, got {self.a} twice")
        if self.start < 0:
            raise ExperimentError(f"partition start must be >= 0, got {self.start}")
        if self.heal is not None and self.heal <= self.start:
            raise ExperimentError(
                f"heal time {self.heal} must be after the partition start {self.start}"
            )


@dataclass(frozen=True)
class RecoverySpec(_SpecCodec):
    """Token-regeneration policy for the DAG protocol after token loss.

    ``delay`` is how long (virtual time) after a crash or a dropped
    permission message the controller first checks for token loss;
    ``check_interval`` is the recheck spacing while a PRIVILEGE is still in
    flight (a token in transit is not lost).  Recovery elects the lowest-id
    live requesting node, reorients every live node's NEXT toward it, and
    re-issues the surviving requests — time-to-liveness is measured from the
    loss to the first critical-section entry after regeneration.
    """

    delay: float = 5.0
    check_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ExperimentError(f"recovery delay must be > 0, got {self.delay}")
        if self.check_interval <= 0:
            raise ExperimentError(
                f"recovery check_interval must be > 0, got {self.check_interval}"
            )


@dataclass(frozen=True)
class FaultSpec(_SpecCodec):
    """Deterministic failure & churn schedule for one experiment.

    Every fault is driven by virtual time or by a ``SeededRNG`` stream derived
    from ``seed`` and the experiment's name, so an identical spec replays
    byte-identically — including the ``FaultLog`` — on any machine or sweep
    worker count.

    Attributes:
        drop_rate: per-message Bernoulli drop probability in ``[0, 1)``,
            drawn at send time from the name-derived stream.
        drop_privilege: drop the first N permission-carrying messages
            (PRIVILEGE and its baseline analogues: grants, replies, acks,
            quorum locks) — the token-loss / permission-starvation probe.
        drop_request: drop the first N request-carrying messages — the
            originator-starvation probe.
        crashes: crash-stop schedule (see :class:`CrashSpec`).
        partitions: partition + heal windows (see :class:`PartitionSpec`).
        recovery: token-regeneration policy (DAG algorithm only).
        worker_crash: sweep-level fault — the child process executing the
            scenario dies before running (exercises the sharded runner's
            crash isolation; no effect on in-process replays).
        seed: fault-stream seed (combined with the experiment name).
    """

    drop_rate: float = 0.0
    drop_privilege: int = 0
    drop_request: int = 0
    crashes: Tuple[CrashSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    recovery: Optional[RecoverySpec] = None
    worker_crash: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if not 0.0 <= self.drop_rate < 1.0:
            raise ExperimentError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}"
            )
        if self.drop_privilege < 0 or self.drop_request < 0:
            raise ExperimentError(
                "drop_privilege and drop_request must be >= 0, got "
                f"{self.drop_privilege} and {self.drop_request}"
            )


#: The frozen fault profiles the sweep and bench fault tiers share.  Profile
#: definitions are part of the committed fault-tier contract (scenario names
#: embed the profile, and seeds derive from names): extend with new profiles
#: instead of editing existing ones.
FAULT_PROFILES: Dict[str, FaultSpec] = {
    # Random loss at two rates: every algorithm degrades, but differently —
    # token-based schemes lose the token (one drop can starve everyone),
    # permission-based schemes starve per-request.
    "drop1": FaultSpec(drop_rate=0.01),
    "drop5": FaultSpec(drop_rate=0.05),
    # Targeted loss of the first permission-carrying message: the paper's
    # "a dropped PRIVILEGE starves every later requester" observation,
    # contrasted against the quorum/broadcast baselines.
    "lose-privilege": FaultSpec(drop_privilege=1),
    # Targeted loss of the first request: starves exactly its originator.
    "lose-request": FaultSpec(drop_request=1),
    # Kill whoever holds the token at t=25 (mid-run for the heavy tiers).
    "crash-holder": FaultSpec(crashes=(CrashSpec(node=TOKEN_HOLDER, time=25.0),)),
    # Same crash, but the DAG protocol regenerates the token and recovers.
    "crash-recover": FaultSpec(
        crashes=(CrashSpec(node=TOKEN_HOLDER, time=25.0),),
        recovery=RecoverySpec(delay=5.0),
    ),
    # Sweep-level fault: the child process dies before reporting a row.
    "worker-crash": FaultSpec(worker_crash=True),
    # Sever the hub<->first-leaf channel mid-run, then heal it: messages sent
    # during the window are lost (both directions), traffic after the heal
    # flows again.  On the fault tier's star-n50 heavy condition this probes
    # how each algorithm rides out a transient link outage — the PR 6
    # plumbing (PartitionSpec + heal windows) exercised by a committed
    # profile for the first time.
    "partition-heal": FaultSpec(
        partitions=(PartitionSpec(a=1, b=2, start=5.0, heal=15.0),)
    ),
    # Churn: kill whoever holds the token three times, each crash revived by
    # a restart one time unit later.  Crash-stop freezes the victim's state,
    # so each restart brings the token back with its owner and service
    # resumes — but every crash also strands the requests queued through the
    # victim (messages to a down node are lost), so each cycle serves fewer
    # nodes than the last.  The repeated-failover cost the restart semantics
    # were built for, measured without regeneration masking it.
    "crash-churn": FaultSpec(
        crashes=(
            CrashSpec(node=TOKEN_HOLDER, time=5.0, restart=6.0),
            CrashSpec(node=TOKEN_HOLDER, time=15.0, restart=16.0),
            CrashSpec(node=TOKEN_HOLDER, time=30.0, restart=31.0),
        ),
    ),
}


@dataclass(frozen=True)
class LatencySpec(_SpecCodec):
    """A serializable latency model choice.

    ``constant`` uses ``value``; ``uniform`` uses ``low``/``high``;
    ``exponential`` uses ``mean``.  Stochastic models draw from a
    ``SeededRNG(seed, label="spec-latency")`` stream so a spec replays
    identically everywhere.
    """

    kind: str = "constant"
    value: float = 1.0
    low: float = 0.1
    high: float = 2.0
    mean: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in LATENCY_KINDS:
            raise ExperimentError(_unknown("latency kind", self.kind, LATENCY_KINDS))
        used = {"constant": ("value",), "uniform": ("low", "high"), "exponential": ("mean",)}
        for name in used[self.kind]:
            number = getattr(self, name)
            if not (isinstance(number, (int, float)) and 0 < number < math.inf):
                raise ExperimentError(
                    f"latency spec field {name!r} must be a positive finite number, got {number!r}"
                )
        if self.kind == "uniform" and self.high < self.low:
            raise ExperimentError(
                f"latency spec field 'high' must be at least low ({self.low!r}), got {self.high!r}"
            )

    def build(self) -> LatencyModel:
        if self.kind == "constant":
            return ConstantLatency(self.value)
        if self.kind == "uniform":
            return UniformLatency(
                self.low, self.high, rng=SeededRNG(self.seed, label="spec-latency")
            )
        return ExponentialLatency(
            self.mean, rng=SeededRNG(self.seed, label="spec-latency")
        )

@dataclass(frozen=True)
class ExperimentSpec(_SpecCodec):
    """The canonical, serializable description of one experiment.

    ``build()`` turns the spec into a ready ``(system, workload)`` pair and
    ``run()`` replays it through the experiment driver; ``canonical_json()``
    / ``from_json()`` round-trip the spec exactly, which is what makes
    cross-machine shards and committed example specs possible.

    The fields that determine the virtual-time outcome are ``algorithm``,
    ``topology``, ``workload``, ``latency`` and ``seed``; ``scheduler``
    is a schema-compatibility field (``"auto"`` and ``"heap"`` both mean the
    engine's one heap; ``experiment-spec/v1`` documents carry the key),
    ``collect_metrics`` selects the observed vs the zero-overhead network
    path (identical event order, per-entry timing statistics only on the
    observed one), and ``node_backend`` is a second schema-compatibility
    field with the one spelling ``"auto"``: the topology's size decides
    between object nodes and the columnar array core (identical event order,
    held by ``tests/properties/test_backend_identity.py``).
    """

    SCHEMA = "experiment-spec/v1"

    algorithm: str
    topology: TopologySpec
    workload: WorkloadSpec
    latency: Optional[LatencySpec] = None
    scheduler: str = "auto"
    seed: int = 0
    collect_metrics: bool = True
    record_trace: bool = False
    faults: Optional[FaultSpec] = None
    node_backend: str = "auto"
    obs: Optional[ObsSpec] = None

    def __post_init__(self) -> None:
        if self.algorithm not in registry.names():
            raise ExperimentError(
                _unknown("algorithm", self.algorithm, tuple(registry.names()))
            )
        if self.scheduler not in SCHEDULER_MODES:
            raise ExperimentError(unknown_scheduler_message(self.scheduler))
        if self.node_backend != "auto":
            removed = (
                " (choosing a node backend was removed: the topology's size decides)"
                if self.node_backend in ("object", "compact") else ""
            )
            raise ExperimentError(
                f"unknown node backend {self.node_backend!r}{removed}; known: ['auto']"
            )
        if (
            self.faults is not None
            and self.faults.recovery is not None
            and self.algorithm != "dag"
        ):
            # Token regeneration reorients NEXT/FOLLOW scalars, which only
            # the paper's protocol has; the baselines fail as published.
            raise ExperimentError(
                "fault recovery (token regeneration) is implemented for the "
                f"'dag' algorithm only, not {self.algorithm!r}"
            )

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The matrix-style cell name (also the sweep's seed-derivation key)."""
        return (
            f"{self.algorithm}-{self.topology.kind}-n{self.topology.n}"
            f"-{self.workload.tier}"
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build_system(self, topology: Topology) -> MutexSystem:
        """Construct the system under test on an already-built topology.

        Takes the topology because benchmark repetition loops rebuild the
        system per replay while sharing one topology and one workload.
        """
        system_class = registry.get(self.algorithm)
        kwargs: Dict[str, Any] = {}
        if self.faults is not None:
            # A fault-carrying spec runs on the injecting network (it
            # overrides the network's one ``_deliver``).  The controller
            # arming the schedule is built by ExperimentDriver.from_spec.
            kwargs["network_factory"] = FaultInjectingNetwork
        return system_class(
            topology,
            latency=self.latency.build() if self.latency is not None else None,
            record_trace=self.record_trace,
            collect_metrics=self.collect_metrics,
            **kwargs,
        )

    def run(self, *, max_events: int = 5_000_000):
        """Build and replay the experiment; returns an ``ExperimentResult``.

        Delegates to ``ExperimentDriver.from_spec`` so fault-carrying specs
        get their :class:`~repro.sim.faults.FaultController` armed in exactly
        one place.
        """
        return ExperimentDriver.from_spec(self).run(max_events=max_events)

    # ------------------------------------------------------------------ #
    # CLI shorthand
    # ------------------------------------------------------------------ #
    @staticmethod
    def parse(
        algorithm: str,
        topology: str,
        tier: str,
        *,
        seed: int = 0,
        collect_metrics: bool = True,
    ) -> "ExperimentSpec":
        """Build a spec from the CLI shorthand ``ALGO KIND:N TIER[:ROUNDS]``.

        Examples: ``parse("dag", "star:1000", "heavy")``,
        ``parse("raymond", "random:64:7", "diurnal")`` (the third topology
        field is the random-tree seed), ``parse("dag", "line:50",
        "heavy:5")`` (explicit heavy rounds).
        """
        topo_parts = topology.split(":")
        if len(topo_parts) < 2 or len(topo_parts) > 3:
            raise ExperimentError(
                f"topology shorthand {topology!r} is not KIND:N or KIND:N:SEED"
            )
        kind = topo_parts[0]
        try:
            n = int(topo_parts[1])
            topo_seed = int(topo_parts[2]) if len(topo_parts) == 3 else 0
        except ValueError:
            raise ExperimentError(
                f"topology shorthand {topology!r}: size and seed must be integers"
            ) from None
        tier_parts = tier.split(":")
        rounds: Optional[int] = None
        if len(tier_parts) == 2:
            try:
                rounds = int(tier_parts[1])
            except ValueError:
                raise ExperimentError(
                    f"workload shorthand {tier!r}: rounds must be an integer"
                ) from None
        elif len(tier_parts) != 1:
            raise ExperimentError(
                f"workload shorthand {tier!r} is not TIER or TIER:ROUNDS"
            )
        return ExperimentSpec(
            algorithm=algorithm,
            topology=TopologySpec(kind=kind, n=n, seed=topo_seed),
            workload=WorkloadSpec(tier=tier_parts[0], rounds=rounds),
            seed=seed,
            collect_metrics=collect_metrics,
        )
