"""The lock-service benchmark: wall-clock truth for the networked runtime.

The simulator's benchmarks measure the protocol in virtual time; this one
measures the whole service — socket framing, shard processes, per-key DAG
token trees — under a seeded concurrent workload: ``clients`` sessions, each
issuing ``ops`` acquire/release pairs against ``locks`` keys consistent-hashed
across ``shards`` worker processes.  Reported per scenario:

* ``locks_per_sec`` — completed acquire/release pairs per wall second;
* acquire-latency percentiles (p50/p99, milliseconds) — request sent to
  grant received, under full contention;
* deterministic op counts (``ops_total``, ``errors``) — gated exactly.

``BENCH_runtime.json`` at the repository root is the committed reference.
Regenerate with::

    repro lockbench --calibrate 3 --output BENCH_runtime.json

Calibration and the CI gate are the shared ones (:mod:`repro.benchdoc`, the
:data:`~repro.benchdoc.RUNTIME` table): rates keep the *slowest* run (a
conservative floor) and latency percentiles keep the *largest* observation
(a conservative ceiling), so the committed document never encodes a lucky run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import LockError, LockFencedError
from repro.obs.chrome_trace import (
    chrome_trace_document,
    runtime_span_events,
    write_chrome_trace,
)
from repro.obs.snapshot import fairness_summary, quantile
from repro.runtime.failover import failover_spans
from repro.runtime.service import LockClient, LockServiceCluster
from repro.sim.rng import SeededRNG
from repro.spec import ObsSpec, RuntimeFaultSpec, RuntimeSpec, ShardCrashSpec, TopologySpec


@dataclass(frozen=True)
class LockBenchScenario:
    """One cell of the lock-service benchmark matrix.

    ``clients`` is the number of *concurrent sessions* (all in flight at
    once, multiplexed over ``channels`` connections per shard); ``ops`` is
    acquire/release pairs per session; ``agents`` shapes the per-key token
    tree through the same :class:`~repro.spec.TopologySpec` names the
    simulator uses.
    """

    shards: int
    clients: int
    locks: int
    ops: int
    agents: int = 4
    topology_kind: str = "star"
    socket: str = "unix"
    channels: int = 8
    seed: int = 0
    #: When set, that shard hard-exits ``crash_at`` seconds into the run (the
    #: declarative fault, carried by the scenario's :class:`RuntimeSpec`) and
    #: the row reports failover measurements alongside throughput.
    crash_shard: Optional[int] = None
    crash_at: float = 0.75
    #: Per-frame Bernoulli drop probability on the shards (the other
    #: declarative runtime fault).  A dropped frame is never answered, so a
    #: drop scenario *must* set ``op_timeout`` — validated at construction.
    drop_rate: float = 0.0
    #: Per-op client deadline; failover runs need one so ops parked on the
    #: dead shard time out and retry instead of waiting forever.
    op_timeout: Optional[float] = None
    #: Shard-side observability (the :mod:`repro.obs` registry).  On by
    #: default so every row carries the fairness block (per-session latency
    #: spread + max queue depth via the implicit-queue inspector); the cost
    #: is two clock reads and one FOLLOW-chain walk per acquire, well inside
    #: the committed floors' tolerance.
    obs: bool = True

    def __post_init__(self) -> None:
        if self.clients < 1 or self.locks < 1 or self.ops < 1:
            raise LockError(
                "clients, locks and ops must all be >= 1, got "
                f"{self.clients}/{self.locks}/{self.ops}"
            )
        if self.crash_shard is not None and self.shards < 2:
            raise LockError("a crash scenario needs >= 2 shards to fail over to")
        if not 0.0 <= self.drop_rate < 1.0:
            raise LockError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.drop_rate > 0.0 and self.op_timeout is None:
            raise LockError(
                "drop_rate > 0 needs op_timeout: a dropped frame is never "
                "answered, so a client without a deadline hangs forever"
            )

    @property
    def name(self) -> str:
        suffix = f"+crash{self.crash_shard}" if self.crash_shard is not None else ""
        if self.drop_rate > 0.0:
            suffix += f"+drop{self.drop_rate * 100:g}"
        return (
            f"{self.socket}-s{self.shards}-c{self.clients}"
            f"-k{self.locks}-o{self.ops}{suffix}"
        )

    def runtime_spec(self) -> RuntimeSpec:
        """The service-side description (the spec-to-runtime bridge)."""
        faults = None
        heartbeat_interval = 0.1
        miss_window = 2.0
        if self.crash_shard is not None or self.drop_rate > 0.0:
            crashes = (
                (ShardCrashSpec(shard=self.crash_shard, at=self.crash_at),)
                if self.crash_shard is not None
                else ()
            )
            faults = RuntimeFaultSpec(
                crashes=crashes, drop_rate=self.drop_rate, seed=self.seed
            )
        if self.crash_shard is not None:
            # A crash cell measures time-to-takeover; tighten the detection
            # loop so the measurement reflects failover, not the idle default.
            heartbeat_interval = 0.05
            miss_window = 0.5
        return RuntimeSpec(
            algorithm="dag",
            topology=TopologySpec(kind=self.topology_kind, n=self.agents),
            shards=self.shards,
            socket=self.socket,
            faults=faults,
            heartbeat_interval=heartbeat_interval,
            miss_window=miss_window,
            obs=ObsSpec(enabled=True) if self.obs else None,
        )


def smoke_lockbench_matrix() -> List[LockBenchScenario]:
    """The CI cell: 1k concurrent sessions over a 2-shard, 64-key namespace."""
    return [LockBenchScenario(shards=2, clients=1000, locks=64, ops=10)]


def default_lockbench_matrix() -> List[LockBenchScenario]:
    """The committed matrix: single-shard hot path, the 1k-session acceptance
    cell, a wider 4-shard spread, and the same acceptance load over TCP."""
    return [
        LockBenchScenario(shards=1, clients=100, locks=16, ops=20),
        LockBenchScenario(shards=2, clients=1000, locks=64, ops=10),
        LockBenchScenario(shards=4, clients=1000, locks=256, ops=10),
        LockBenchScenario(shards=2, clients=1000, locks=64, ops=10, socket="tcp"),
    ]


def fault_lockbench_matrix() -> List[LockBenchScenario]:
    """The chaos cells: the 1k-session acceptance load with one of two shards
    killed mid-run, and the same load under a lossy transport.  Every session
    must still complete — the crash cell via retry + takeover (the row records
    time-to-takeover and the availability gap), the drop cell via per-op
    deadlines and resends against a service that silently discards 1% of
    frames (:class:`~repro.spec.RuntimeFaultSpec` ``drop_rate``)."""
    return [
        LockBenchScenario(
            shards=2,
            clients=1000,
            locks=64,
            ops=10,
            crash_shard=1,
            crash_at=0.75,
            op_timeout=5.0,
        ),
        # Lighter load than the crash cell on purpose: the drop cell gates
        # the deadline/resend machinery, and must stay below the contention
        # level where a legitimately-queued acquire outlives its deadline —
        # a dropped *release* stalls every waiter on its key for a whole
        # deadline, and deep waiter chains would burn the retry budget
        # nondeterministically.
        LockBenchScenario(
            shards=2,
            clients=100,
            locks=64,
            ops=10,
            drop_rate=0.01,
            op_timeout=1.0,
        ),
    ]


# The linear-interpolation quantile moved to ``repro.obs.snapshot`` so the
# fairness summary and the bench rows agree on one definition.
_quantile = quantile


async def _drive_sessions(
    scenario: LockBenchScenario,
    addresses: Sequence[Any],
    *,
    collect_trace: bool = False,
) -> Dict[str, Any]:
    """All sessions concurrently; returns latencies + error count + wall.

    A release rejected with :class:`LockFencedError` is counted separately
    from errors: the grant died with its shard (correct failover behaviour,
    not a workload failure) and the session carries on.

    When ``collect_trace`` is set, every client op records a span into
    ``trace_spans`` (absolute ``time.perf_counter`` timestamps; rebase on
    ``started`` before export).  ``started_mono`` is captured at the same
    instant on the ``time.monotonic`` clock so supervisor-side failover
    events — which are stamped monotonic — can share the trace timeline.
    """
    trace_spans: Optional[List[Dict[str, Any]]] = [] if collect_trace else None
    client = LockClient(
        addresses,
        channels=scenario.channels,
        op_timeout=scenario.op_timeout,
        trace=trace_spans,
    )
    await client.connect()
    latencies: List[float] = []
    completions: List[float] = []
    session_latencies: Dict[int, List[float]] = {}
    errors = 0
    fenced = 0

    async def run_session(session_id: int) -> None:
        nonlocal errors, fenced
        rng = SeededRNG(scenario.seed, label=f"lockbench/session-{session_id}")
        session = client.session(session_id)
        mine = session_latencies.setdefault(session_id, [])
        for _ in range(scenario.ops):
            key = f"lock-{rng.randint(0, scenario.locks - 1)}"
            started = time.perf_counter()
            try:
                await session.acquire(key)
            except LockError:
                errors += 1
                continue
            granted = time.perf_counter()
            latencies.append(granted - started)
            mine.append(granted - started)
            completions.append(granted)
            try:
                await session.release(key)
            except LockFencedError:
                fenced += 1
            except LockError:
                errors += 1

    started = time.perf_counter()
    started_mono = time.monotonic()
    await asyncio.gather(
        *(run_session(session_id) for session_id in range(scenario.clients))
    )
    wall = time.perf_counter() - started
    # The shards' own ledger, summed over whatever membership survived: the
    # server-side cross-check that no key was ever double-granted.
    shard_stats: List[Dict[str, Any]] = []
    for shard in sorted(client.view.shards):
        try:
            shard_stats.append(await client.stats(shard))
        except LockError:
            continue  # raced a death the view has not absorbed yet
    await client.close()
    return {
        "latencies": latencies,
        "completions": sorted(completions),
        "session_latencies": session_latencies,
        "errors": errors,
        "fenced": fenced,
        "wall": wall,
        "started": started,
        "started_mono": started_mono,
        "shard_stats": shard_stats,
        "retry_stats": dict(client.retry_stats),
        "trace_spans": trace_spans,
    }


def _failover_timing(
    outcome: Dict[str, Any], events: Sequence[Any], wall: float
) -> Dict[str, Any]:
    """The fault cell's measurement block (host-dependent, lives in timing).

    ``unavailable_ms`` is the longest gap between consecutive grant
    completions — the workload-observed outage window around the crash — and
    ``availability`` is its complement over the whole run.
    """
    detection_ms = takeover_ms = 0.0
    for event in events:
        detection_ms = max(
            detection_ms, (event.detected_at - event.last_heartbeat) * 1000
        )
        completed = event.completed_at if event.completed_at else event.detected_at
        takeover_ms = max(takeover_ms, (completed - event.last_heartbeat) * 1000)
    completions = outcome["completions"]
    gap = 0.0
    for before, after in zip(completions, completions[1:]):
        gap = max(gap, after - before)
    retry = outcome["retry_stats"]
    return {
        "detection_ms": round(detection_ms, 3),
        "takeover_ms": round(takeover_ms, 3),
        "unavailable_ms": round(gap * 1000, 3),
        "availability": round(1.0 - gap / wall, 4) if wall > 0 else 0.0,
        "takeovers": sum(s.get("takeovers", 0) for s in outcome["shard_stats"]),
        "abandoned": sum(s.get("abandoned", 0) for s in outcome["shard_stats"]),
        "ops_retried": retry.get("retries", 0),
        "ops_rerouted": retry.get("reroutes", 0),
        "ops_fenced": outcome["fenced"],
        "deadline_timeouts": retry.get("deadline_timeouts", 0),
    }


def _max_queue_depth(shard_stats: Sequence[Dict[str, Any]]) -> Optional[int]:
    """Largest per-key implicit-queue depth any shard observed, if reported.

    The shards watermark the depth (FOLLOW-chain length behind the token
    holder, via :mod:`repro.core.inspector`) on every acquire when obs is
    enabled; the ``stats`` frame surfaces it under the registry snapshot.
    """
    depth: Optional[int] = None
    for stats in shard_stats:
        metrics = ((stats.get("obs") or {}).get("registry") or {}).get("metrics") or {}
        gauge = metrics.get("shard.queue_depth_max")
        if gauge is None:
            continue
        value = int(gauge.get("value") or 0)
        depth = value if depth is None else max(depth, value)
    return depth


def run_lockbench_scenario(
    scenario: LockBenchScenario,
    *,
    spec: Optional[RuntimeSpec] = None,
    trace: Optional[List[Dict[str, Any]]] = None,
    outcome_out: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Start the shard processes, drive the workload, assemble the row.

    Deterministic fields (``ops_total``, ``errors``) live at the top level;
    host-dependent measurements live under ``"timing"`` — the same split as
    every other bench document, so gates know which fields tolerate noise.

    ``spec`` overrides the scenario-derived :class:`RuntimeSpec` (the
    ``repro run`` bridge for committed ``runtime-spec/v1`` files); ``trace``,
    when given, receives Chrome ``trace_event`` dicts covering every client
    op lifecycle (request→grant→release, with retry/fence outcomes) and any
    failover window, rebased to the workload start.  ``outcome_out``, when
    given, receives the raw workload outcome (shard ``stats`` frames with
    their obs registry snapshots, client retry counters) for callers — like
    ``repro obs`` — that need more than the bench row.
    """
    if spec is None:
        spec = scenario.runtime_spec()
    with LockServiceCluster(spec) as cluster:
        outcome = asyncio.run(
            _drive_sessions(scenario, cluster.addresses, collect_trace=trace is not None)
        )
        if scenario.crash_shard is not None:
            # A short workload can outrun its own crash schedule; wait for
            # the supervisor to record the declared death before reporting.
            deadline = time.perf_counter() + scenario.crash_at + 5.0
            while not cluster.failover_events and time.perf_counter() < deadline:
                time.sleep(0.02)
        events = cluster.failover_events
    if outcome_out is not None:
        outcome_out.update(outcome)
    latencies = sorted(outcome["latencies"])
    completed = len(latencies)
    wall = outcome["wall"]
    timing = {
        "wall_seconds": round(wall, 4),
        "locks_per_sec": round(completed / wall, 1) if wall > 0 else 0.0,
        "acquire_p50_ms": round(_quantile(latencies, 0.50) * 1000, 3),
        "acquire_p99_ms": round(_quantile(latencies, 0.99) * 1000, 3),
        "acquire_mean_ms": (
            round(sum(latencies) / completed * 1000, 3) if completed else 0.0
        ),
        "acquire_max_ms": round(latencies[-1] * 1000, 3) if latencies else 0.0,
    }
    if scenario.obs:
        timing["fairness"] = fairness_summary(
            outcome["session_latencies"],
            max_queue_depth=_max_queue_depth(outcome["shard_stats"]),
        )
    if trace is not None:
        spans = [
            dict(span, start=span["start"] - outcome["started"], end=span["end"] - outcome["started"])
            for span in outcome["trace_spans"] or []
        ]
        trace.extend(runtime_span_events(spans, pid=1))
        trace.extend(
            runtime_span_events(
                failover_spans(events, origin=outcome["started_mono"]), pid=2
            )
        )
    row = {
        "scenario": scenario.name,
        "shards": scenario.shards,
        "clients": scenario.clients,
        "locks": scenario.locks,
        "ops_per_client": scenario.ops,
        "agents": scenario.agents,
        "socket": scenario.socket,
        "runtime_spec": spec.name,
        "ops_total": scenario.clients * scenario.ops,
        "ops_completed": completed,
        "errors": outcome["errors"],
        # The server-side exclusion ledger: any nonzero value fails the gate
        # outright, with or without a committed reference.
        "exclusion_violations": sum(
            stats.get("exclusion_violations", 0) for stats in outcome["shard_stats"]
        ),
        "timing": timing,
    }
    if scenario.crash_shard is not None or scenario.drop_rate > 0.0:
        fault: Dict[str, Any] = {}
        if scenario.crash_shard is not None:
            fault["crash_shard"] = scenario.crash_shard
            fault["crash_at"] = scenario.crash_at
            timing["failover"] = _failover_timing(outcome, events, wall)
        if scenario.drop_rate > 0.0:
            fault["drop_rate"] = scenario.drop_rate
        row["fault"] = fault
    return row


def write_lockbench_trace(
    events: Sequence[Dict[str, Any]],
    path: Any,
    *,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Canonical-JSON a lockbench Chrome trace to ``path`` (byte-stable)."""
    write_chrome_trace(chrome_trace_document(events, metadata=metadata), path)


def run_lockbench(
    *,
    matrix: Optional[Sequence[LockBenchScenario]] = None,
    verbose: bool = False,
    trace: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Run the matrix and assemble the ``BENCH_runtime.json`` document.

    ``trace`` (a mutable list) collects Chrome ``trace_event`` dicts across
    every scenario in the matrix; wrap with :func:`write_lockbench_trace`.
    """
    # Imported here, not at module level: every shard process imports this
    # module (through ``repro.runtime``) and none of them assembles a document.
    # One more module loaded there cost the perf/ svc_* workloads ~3% ops/s.
    from repro.benchdoc import RUNTIME

    scenarios = list(matrix) if matrix is not None else default_lockbench_matrix()
    rows: List[Dict[str, Any]] = []
    for scenario in scenarios:
        row = run_lockbench_scenario(scenario, trace=trace)
        rows.append(row)
        if verbose:
            timing = row["timing"]
            print(
                f"{row['scenario']:<28} {timing['locks_per_sec']:>10,.0f} locks/s   "
                f"p50 {timing['acquire_p50_ms']:>8.2f} ms   "
                f"p99 {timing['acquire_p99_ms']:>8.2f} ms   "
                f"errors {row['errors']}"
            )
            failover = timing.get("failover")
            if failover:
                print(
                    f"{'':<28} takeover {failover['takeover_ms']:>7.1f} ms   "
                    f"availability {failover['availability']:.2%}   "
                    f"retried {failover['ops_retried']}   "
                    f"fenced {failover['ops_fenced']}   "
                    f"violations {row['exclusion_violations']}"
                )
    return {
        "schema": RUNTIME.schema,
        "generated_by": "repro lockbench",
        "scenarios": rows,
    }
