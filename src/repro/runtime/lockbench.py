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
from repro.spec_base import ObsSpec, RuntimeFaultSpec, RuntimeSpec, ShardCrashSpec, TopologySpec


@dataclass(frozen=True)
class LockProbe:
    """The client workload driven at a service — everything that is *not*
    the service: ``clients`` concurrent sessions (all in flight at once,
    multiplexed over ``channels`` connections per shard), each issuing ``ops``
    seeded acquire/release pairs over ``locks`` keys.  ``op_timeout`` is the
    per-op client deadline; fault runs need one so ops parked on a dead shard
    (or answered by a dropped frame) time out and retry instead of hanging.
    """

    clients: int
    locks: int
    ops: int
    channels: int = 8
    seed: int = 0
    op_timeout: Optional[float] = None


@dataclass(frozen=True)
class LockBenchCell:
    """One cell of the lock-service matrix: a committed name, the one
    :class:`~repro.spec_base.RuntimeSpec` the service is stood up from (shards,
    per-key token tree, socket family, faults, obs), and the probe."""

    name: str
    spec: RuntimeSpec
    probe: LockProbe

    def __post_init__(self) -> None:
        probe, faults = self.probe, self.spec.faults
        if probe.clients < 1 or probe.locks < 1 or probe.ops < 1:
            raise LockError(
                "clients, locks and ops must all be >= 1, got "
                f"{probe.clients}/{probe.locks}/{probe.ops}"
            )
        if faults is not None and faults.crashes and self.spec.shards < 2:
            raise LockError("a crash scenario needs >= 2 shards to fail over to")
        if faults is not None and faults.drop_rate > 0.0 and probe.op_timeout is None:
            raise LockError(
                "drop_rate > 0 needs op_timeout: a dropped frame is never "
                "answered, so a client without a deadline hangs forever"
            )


def lockbench_cell(spec: RuntimeSpec, **probe: Any) -> LockBenchCell:
    """Wrap ``spec`` with a probe under the committed row-name convention
    (``socket-sS-cC-kK-oO[+crashN][+dropP]``)."""
    cell_probe = LockProbe(**probe)
    suffix = ""
    if spec.faults is not None:
        suffix = "".join(f"+crash{crash.shard}" for crash in spec.faults.crashes)
        if spec.faults.drop_rate > 0.0:
            suffix += f"+drop{spec.faults.drop_rate * 100:g}"
    name = (
        f"{spec.socket}-s{spec.shards}-c{cell_probe.clients}"
        f"-k{cell_probe.locks}-o{cell_probe.ops}{suffix}"
    )
    return LockBenchCell(name, spec, cell_probe)


def lockbench_matrix(tier: str = "default") -> List[LockBenchCell]:
    """The committed cells of ``BENCH_runtime.json``, by tier.

    ``default``: the single-shard hot path, the 1k-session acceptance cell
    (alone, it is the ``smoke`` tier), a wider 4-shard spread, and the
    acceptance load over TCP.  ``faults``: the acceptance load with one of two
    shards killed mid-run, and a lighter load under 1% frame loss — lighter so
    a legitimately queued acquire never outlives the deadline that detects a
    dropped frame (a dropped *release* stalls every waiter on its key for a
    whole deadline, and deep waiter chains would burn the retry budget).
    """

    def service(shards: int, **settings: Any) -> RuntimeSpec:
        return RuntimeSpec(
            algorithm="dag",
            topology=TopologySpec(kind="star", n=4),
            shards=shards,
            obs=ObsSpec(enabled=True),
            **settings,
        )

    if tier == "faults":
        crash = RuntimeFaultSpec(crashes=(ShardCrashSpec(shard=1, at=0.75),))
        return [
            # Detection tightened so the row measures failover, not the idle default.
            lockbench_cell(
                service(2, faults=crash, heartbeat_interval=0.05, miss_window=0.5),
                clients=1000, locks=64, ops=10, op_timeout=5.0,
            ),
            lockbench_cell(
                service(2, faults=RuntimeFaultSpec(drop_rate=0.01)),
                clients=100, locks=64, ops=10, op_timeout=1.0,
            ),
        ]
    acceptance = lockbench_cell(service(2), clients=1000, locks=64, ops=10)
    if tier == "smoke":
        return [acceptance]
    return [
        lockbench_cell(service(1), clients=100, locks=16, ops=20),
        acceptance,
        lockbench_cell(service(4), clients=1000, locks=256, ops=10),
        lockbench_cell(service(2, socket="tcp"), clients=1000, locks=64, ops=10),
    ]


async def _drive_sessions(
    probe: LockProbe,
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
        channels=probe.channels,
        op_timeout=probe.op_timeout,
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
        rng = SeededRNG(probe.seed, label=f"lockbench/session-{session_id}")
        session = client.session(session_id)
        mine = session_latencies.setdefault(session_id, [])
        for _ in range(probe.ops):
            key = f"lock-{rng.randint(0, probe.locks - 1)}"
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
        *(run_session(session_id) for session_id in range(probe.clients))
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
    cell: LockBenchCell,
    *,
    trace: Optional[List[Dict[str, Any]]] = None,
    outcome_out: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Start the shard processes, drive the probe, return :func:`lockbench_row`.

    ``trace``, when given, receives Chrome ``trace_event`` dicts covering
    every client op lifecycle (request→grant→release, with retry/fence
    outcomes) and any failover window, rebased to the workload start.
    ``outcome_out``, when given, receives the raw workload outcome (shard
    ``stats`` frames with their obs registry snapshots, client retry
    counters) for callers — like ``repro run --snapshot`` — that need more
    than the row.
    """
    crashes = cell.spec.faults.crashes if cell.spec.faults is not None else ()
    with LockServiceCluster(cell.spec) as cluster:
        outcome = asyncio.run(
            _drive_sessions(cell.probe, cluster.addresses, collect_trace=trace is not None)
        )
        if crashes:
            # A short workload can outrun its own crash schedule; wait for
            # the supervisor to record the declared deaths before reporting.
            deadline = time.perf_counter() + max(crash.at for crash in crashes) + 5.0
            while (
                len(cluster.failover_events) < len(crashes)
                and time.perf_counter() < deadline
            ):
                time.sleep(0.02)
        events = cluster.failover_events
    if outcome_out is not None:
        outcome_out.update(outcome)
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
    return lockbench_row(cell, outcome, events)


def lockbench_row(
    cell: LockBenchCell, outcome: Dict[str, Any], events: Sequence[Any]
) -> Dict[str, Any]:
    """Assemble a cell's document row from its workload outcome.

    Deterministic fields (``ops_total``, ``errors``) live at the top level;
    host-dependent measurements live under ``"timing"`` — the same split as
    every other bench document, so gates know which fields tolerate noise.
    Which blocks the row carries (``fault``, ``timing.failover``,
    ``timing.fairness``) is read off ``cell.spec``, the same spec the service
    ran — the row cannot describe a different service than the one measured.
    """
    spec, probe = cell.spec, cell.probe
    latencies = sorted(outcome["latencies"])
    completed = len(latencies)
    wall = outcome["wall"]
    timing = {
        "wall_seconds": round(wall, 4),
        "locks_per_sec": round(completed / wall, 1) if wall > 0 else 0.0,
        "acquire_p50_ms": round(quantile(latencies, 0.50) * 1000, 3),
        "acquire_p99_ms": round(quantile(latencies, 0.99) * 1000, 3),
        "acquire_mean_ms": (
            round(sum(latencies) / completed * 1000, 3) if completed else 0.0
        ),
        "acquire_max_ms": round(latencies[-1] * 1000, 3) if latencies else 0.0,
    }
    if spec.obs is not None and spec.obs.enabled:
        # Per-session latency spread + the shards' implicit-queue watermark.
        timing["fairness"] = fairness_summary(
            outcome["session_latencies"],
            max_queue_depth=_max_queue_depth(outcome["shard_stats"]),
        )
    row = {
        "scenario": cell.name,
        "shards": spec.shards,
        "clients": probe.clients,
        "locks": probe.locks,
        "ops_per_client": probe.ops,
        "agents": spec.topology.n,
        "socket": spec.socket,
        "runtime_spec": spec.name,
        "ops_total": probe.clients * probe.ops,
        "ops_completed": completed,
        "errors": outcome["errors"],
        # The server-side exclusion ledger: any nonzero value fails the gate
        # outright, with or without a committed reference.
        "exclusion_violations": sum(
            stats.get("exclusion_violations", 0) for stats in outcome["shard_stats"]
        ),
        "timing": timing,
    }
    fault: Dict[str, Any] = {}
    if spec.faults is not None and spec.faults.crashes:
        # The committed block has room for one crash: the first declared.
        fault["crash_shard"] = spec.faults.crashes[0].shard
        fault["crash_at"] = spec.faults.crashes[0].at
        timing["failover"] = _failover_timing(outcome, events, wall)
    if spec.faults is not None and spec.faults.drop_rate > 0.0:
        fault["drop_rate"] = spec.faults.drop_rate
    if fault:
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
    matrix: Sequence[LockBenchCell],
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

    rows: List[Dict[str, Any]] = []
    for cell in matrix:
        row = run_lockbench_scenario(cell, trace=trace)
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
