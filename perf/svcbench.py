"""The three lock-service workloads: one shard process, one client process
(this one), two connections, unix socket, a ``star(4)`` token tree per key.

The load generator is a single event loop.  Closed-loop workloads keep 64
sessions each waiting for its own reply; the open-loop workload sends seeded
Poisson arrivals on schedule whether or not earlier ones were answered, and
times every acquire from the moment it was *due*.
"""

from __future__ import annotations

import asyncio
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import repro
from repro.exceptions import LockError
from repro.obs.snapshot import fairness_summary, quantile
from repro.runtime.cluster import LocalCluster
from repro.runtime.failover import ClusterView
from repro.runtime.service import LockClient, LockServiceCluster
from repro.runtime.transport import InMemoryTransport
from repro.runtime.transport_socket import encode_frame, open_address_connection, read_frame
from repro.sim.rng import SeededRNG
from repro.spec import ObsSpec, RuntimeSpec, TopologySpec
from repro.topology import star

from report import MachineSpeed, Result, peak_rss_mb
from spans import SpanRecorder, maybe_span

#: What the two shared end-to-end names measure on a service workload.
MEANING = {
    "ops_per_s": "locks_per_s: acquire+release pairs completed per second",
    "op_p50_ms": "acquire_p50_ms: request sent (open loop: due) to grant received",
}

SESSIONS = 64
CHANNELS = 2
#: Untimed closed-loop ops per session after every key was touched once.
WARM_OPS = 25
#: Service lifetimes per run; ``setup_s`` is the median of their set-ups.
SETUP_REPEATS = 7
#: Width of the windows whose medians are reported (see ``_Load``).
WINDOW_SECONDS = 0.25
#: Seconds between two machine-speed samples on the client's event loop: a
#: 0.7 ms loop every 25 ms costs 3 % of the core on every commit alike.
SPEED_SAMPLE_INTERVAL = 0.025
#: A window in which the open-loop generator sent an arrival later than this
#: is discarded, and the discard reported.
MAX_GENERATOR_LAG_MS = 10.0
#: Per-op client spans kept in the Chrome trace (the rest are only counted).
TRACE_SPAN_CAP = 4000


@dataclass(frozen=True)
class SvcCell:
    """One service workload: ``rate`` is arrivals/s, or None for a closed loop."""

    keys: int
    rate: Optional[float] = None


CELLS: Dict[str, SvcCell] = {
    # 4 sessions per key saturate each key's 4-agent pool: contention.
    "svc_hot_k16": SvcCell(keys=16),
    # Almost no contention: per-op fixed cost (codec, socket, tasks, routing).
    "svc_wide_k1024": SvcCell(keys=1024),
    # Under half of the one core's capacity (an op sent alone costs client and
    # shard ~0.4 ms between them), so latency is path cost, not queueing.
    "svc_open_r1000": SvcCell(keys=1024, rate=1000.0),
}


@contextmanager
def _socket_dir() -> Iterator[str]:
    """A short relative directory for unix sockets, inside the checkout."""
    path = os.path.relpath(os.path.join(os.path.dirname(__file__), "out", f"sock-{os.getpid()}"))
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class _Load:
    """What the timed part of one run produced.

    Throughput and median latency are reported as medians over
    ``WINDOW_SECONDS`` windows, not as totals over the run: this sandbox
    freezes a process for tenths of a second now and then, and a total
    carries every such stall while a median of windows drops those that
    cover less than half the run.  Each window is corrected by the machine
    speed sampled inside it (``scaled=False`` gives the values as clocked).
    A window in which the open-loop generator itself sent an arrival more
    than ``MAX_GENERATOR_LAG_MS`` late is left out of both medians.
    """

    def __init__(self, started: float, seconds: float, speed: MachineSpeed) -> None:
        self.started = started
        self.speed = speed
        self.window_count = max(1, int(seconds / WINDOW_SECONDS))
        #: One (pair completed at, acquire latency, session) per finished op.
        self.ops: List[Tuple[float, float, int]] = []
        #: Open loop only: one (due at, seconds sent late) per arrival.
        self.lags: List[Tuple[float, float]] = []
        self.failed = 0
        self.client_cpu = 0.0

    @property
    def completed(self) -> int:
        return len(self.ops)

    @property
    def latencies(self) -> List[float]:
        return sorted(latency for _done, latency, _session in self.ops)

    def _window(self, at: float) -> int:
        return int((at - self.started) / WINDOW_SECONDS)

    def late_windows(self) -> Set[int]:
        limit = MAX_GENERATOR_LAG_MS / 1000
        return {self._window(due) for due, lag in self.lags if lag > limit}

    def windows(self, scaled: bool) -> List[Tuple[List[float], float]]:
        """(acquire latencies, machine slowdown) per kept window of the timed part.

        An op belongs to the window its pair completed in.
        """
        groups: List[List[float]] = [[] for _ in range(self.window_count)]
        for done, latency, _session in self.ops:
            index = self._window(done)
            if index < len(groups):
                groups[index].append(latency)
        late = self.late_windows()
        kept = []
        for index, group in enumerate(groups):
            if index in late:
                continue
            since = self.started + index * WINDOW_SECONDS
            slowdown = self.speed.slowdown(since, since + WINDOW_SECONDS) if scaled else 1.0
            kept.append((group, slowdown))
        return kept

    def ops_per_s(self, scaled: bool = True) -> float:
        return statistics.median(
            len(group) / WINDOW_SECONDS * slowdown for group, slowdown in self.windows(scaled)
        )

    def completed_per_s(self) -> float:
        """Pairs completed per second of kept window, whatever the machine speed."""
        kept = self.windows(scaled=False)
        return sum(len(group) for group, _slowdown in kept) / (len(kept) * WINDOW_SECONDS)

    def p50_ms(self, scaled: bool = True) -> float:
        return statistics.median(
            statistics.median(group) / slowdown * 1000
            for group, slowdown in self.windows(scaled) if group
        )


async def _sample_speed(speed: MachineSpeed) -> None:
    """Time one reference loop every ``SPEED_SAMPLE_INTERVAL`` until cancelled."""
    while True:
        await asyncio.sleep(SPEED_SAMPLE_INTERVAL)
        speed.sample()


async def _pair(client: LockClient, load: Optional[_Load], key: str, session: int,
                due: Optional[float] = None) -> None:
    """One acquire + release; the acquire is timed from ``due`` (or from now)."""
    started = time.perf_counter()
    try:
        await client.acquire(key, session=session)
        granted = time.perf_counter()
        await client.release(key, session=session)
    except LockError:
        if load is None:
            raise
        load.failed += 1
        return
    if load is not None:
        origin = started if due is None else due
        load.ops.append((time.perf_counter(), granted - origin, session))
        if due is not None:
            load.lags.append((due, started - due))


async def _closed_loop(client: LockClient, cell: SvcCell, seed: int, seconds: float,
                       speed: MachineSpeed) -> _Load:
    cpu = time.process_time()
    load = _Load(time.perf_counter(), seconds, speed)
    deadline = load.started + seconds

    async def session(index: int) -> None:
        rng = SeededRNG(seed, label=f"perf/session-{index}")
        while time.perf_counter() < deadline:
            await _pair(client, load, f"lock-{rng.randint(0, cell.keys - 1)}", index)

    await asyncio.gather(*(session(index) for index in range(SESSIONS)))
    load.client_cpu = time.process_time() - cpu
    return load


async def _open_loop(client: LockClient, cell: SvcCell, seed: int, seconds: float,
                     speed: MachineSpeed) -> _Load:
    rng = SeededRNG(seed, label="perf/arrivals")
    schedule: List[Tuple[float, str]] = []
    due = rng.exponential(1.0 / cell.rate)
    while due < seconds:
        schedule.append((due, f"lock-{rng.randint(0, cell.keys - 1)}"))
        due += rng.exponential(1.0 / cell.rate)
    tasks: List[asyncio.Task] = []
    cpu = time.process_time()
    load = _Load(time.perf_counter(), seconds, speed)
    for index, (offset, key) in enumerate(schedule):
        delay = load.started + offset - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        # One task per arrival, its own session id: nothing waits for an
        # earlier reply before sending.
        tasks.append(asyncio.create_task(_pair(client, load, key, index, load.started + offset)))
    await asyncio.gather(*tasks)
    load.client_cpu = time.process_time() - cpu
    return load


async def _client_phase(
    addresses, cell: SvcCell, seed: int, seconds: float, *,
    spans: Optional[SpanRecorder], op_trace: Optional[List[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Connect, warm up, run the timed part (``seconds`` > 0), read the ledger."""
    client = LockClient(addresses, channels=CHANNELS, trace=op_trace)
    phase: Dict[str, Any] = {"notes": []}
    speed = MachineSpeed()
    sampler = asyncio.create_task(_sample_speed(speed))
    begun = time.perf_counter()
    with maybe_span(spans, "client.connect"):
        await client.connect()
    with maybe_span(spans, "shard.warm_keys"):
        # First touch builds each key's token tree on the shard.
        await asyncio.gather(*(
            _touch(client, [f"lock-{key}" for key in range(index, cell.keys, SESSIONS)], index)
            for index in range(SESSIONS)
        ))
    with maybe_span(spans, "client.warm_ops"):
        await asyncio.gather(*(
            _touch(client, _warm_keys(cell, seed, index), index) for index in range(SESSIONS)
        ))
    phase["setup"] = time.perf_counter() - begun
    phase["setup_slowdown"] = speed.slowdown()
    # What the shard's ledger must show: every pair granted so far.
    granted = cell.keys + SESSIONS * WARM_OPS
    if seconds > 0:
        drive = _open_loop if cell.rate else _closed_loop
        with maybe_span(spans, "timed.run") as timed:
            load = await drive(client, cell, seed, seconds, speed)
        granted += load.completed
        late = load.late_windows()
        if late:
            phase["notes"].append(
                f"discarded {len(late)} of {load.window_count} windows: the "
                f"generator sent an arrival more than {MAX_GENERATOR_LAG_MS:g} ms late in them"
            )
        phase["load"] = load
        phase["timed_span"] = timed
    sampler.cancel()
    try:
        await sampler
    except asyncio.CancelledError:
        pass
    with maybe_span(spans, "client.stats"):
        phase["stats"] = await client.stats(0)
    phase["granted"] = granted
    phase["retries"] = client.retry_stats["retries"] + client.retry_stats["reroutes"]
    await client.close()
    return phase


async def _touch(client: LockClient, keys: List[str], session: int) -> None:
    for key in keys:
        await _pair(client, None, key, session)


def _warm_keys(cell: SvcCell, seed: int, index: int) -> List[str]:
    rng = SeededRNG(seed, label=f"perf/warm-{index}")
    return [f"lock-{rng.randint(0, cell.keys - 1)}" for _ in range(WARM_OPS)]


def _lag_p99_ms(load: _Load) -> float:
    return quantile(sorted(lag for _due, lag in load.lags), 0.99) * 1000


def _serve(
    cell: SvcCell, seed: int, seconds: float, sockets: str, *, obs: bool = False,
    spans: Optional[SpanRecorder] = None, op_trace: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """One whole service lifetime: start the shard, run the client, stop."""
    spec = RuntimeSpec(
        algorithm="dag", topology=TopologySpec(kind="star", n=4), shards=1, socket="unix",
        obs=ObsSpec(enabled=True) if obs else None,
    )
    cluster = LockServiceCluster(spec, socket_dir=sockets)
    begun = time.perf_counter()
    with maybe_span(spans, "cluster.start"):
        cluster.start()
    started = time.perf_counter() - begun
    try:
        phase = asyncio.run(
            _client_phase(cluster.addresses, cell, seed, seconds, spans=spans, op_trace=op_trace)
        )
    finally:
        with maybe_span(spans, "cluster.stop"):
            cluster.stop()
    phase["setup"] += started
    return phase


def _check_ledger(result: Result, phase: Dict[str, Any]) -> None:
    """The shard's own books must balance and show no double grant."""
    stats = phase["stats"]
    for field in ("exclusion_violations", "errors", "held"):
        result.check(stats[field] == 0, f"shard reports {field} = {stats[field]}")
    result.check(
        stats["acquires"] == stats["releases"] == phase["granted"],
        f"shard acquires/releases {stats['acquires']}/{stats['releases']} != "
        f"{phase['granted']} pairs the client saw completed",
    )


def _labels(cell: SvcCell) -> Dict[str, Any]:
    return {
        "sessions": SESSIONS, "channels": CHANNELS, "keys": cell.keys,
        "loop": f"open, {cell.rate:g} arrivals/s" if cell.rate else "closed",
    }


def _shard_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_end_to_end(name: str, seed: int, seconds: float, quick: bool) -> Result:
    cell = CELLS[name]
    result = Result()
    phases: List[Dict[str, Any]] = []
    with _socket_dir() as sockets:
        for _ in range(1 if quick else SETUP_REPEATS - 1):
            phases.append(_serve(cell, seed, 0.0, sockets))
        # The largest shard so far: one that built every key's token tree and
        # served the warm-up.  A shard also remembers its last 65 536 replies
        # (~0.4 kB per op), so under the timed load it grows with the ops it
        # has served: that is ``shard.rss_bytes_per_op``, read from the traced run.
        shard_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        phases.append(_serve(cell, seed, seconds, sockets))
    for phase in phases:
        _check_ledger(result, phase)
    load: _Load = phases[-1]["load"]
    result.attempted = load.completed + load.failed
    result.failed = load.failed
    result.notes = phases[-1]["notes"]
    result.metrics = {
        "setup_s": statistics.median(p["setup"] / p["setup_slowdown"] for p in phases),
        # An open loop completes what is offered, however fast the machine is.
        "ops_per_s": load.completed_per_s() if cell.rate else load.ops_per_s(),
        "op_p50_ms": load.p50_ms(),
        # This process is left out: it holds the load generator's own books.
        "peak_rss_mb": shard_rss,
    }
    result.raw = {
        "setup_s": statistics.median(p["setup"] for p in phases),
        "ops_per_s": load.completed_per_s() if cell.rate else load.ops_per_s(scaled=False),
        "op_p50_ms": load.p50_ms(scaled=False),
        "machine_slowdown": load.speed.slowdown(),
    }
    result.samples = {
        "setup_s": len(phases), "ops_per_s": len(load.windows(False)), "op_p50_ms": load.completed,
    }
    result.labels.update(_labels(cell))
    return result


# --------------------------------------------------------------------------- #
# the traced run: per-layer numbers and the null-layer microbenchmarks
# --------------------------------------------------------------------------- #
#: The four frames of one acquire + release, as service.py documents them.
_OP_FRAMES = (
    {"op": "acquire", "key": "lock-517", "session": 37, "epoch": 0, "id": "1a2b-9f3c01d2:48213"},
    {"ok": True, "epoch": 0, "id": "1a2b-9f3c01d2:48213"},
    {"op": "release", "key": "lock-517", "session": 37, "grant_epoch": 0, "epoch": 0,
     "id": "1a2b-9f3c01d2:48214"},
    {"ok": True, "id": "1a2b-9f3c01d2:48214"},
)


def _per_call(calls: int, body) -> float:
    """Seconds per call of ``body()`` over ``calls`` calls."""
    start = time.perf_counter()
    for _ in range(calls):
        body()
    return (time.perf_counter() - start) / calls


async def _decode_ns(calls: int, batch: int = 50) -> float:
    frame = encode_frame(_OP_FRAMES[0]) * batch
    reader = asyncio.StreamReader()
    spent = 0.0
    for _ in range(calls // batch):
        reader.feed_data(frame)
        start = time.perf_counter()
        for _ in range(batch):
            await read_frame(reader)
        spent += time.perf_counter() - start
    return spent / calls * 1e9


async def _tree_us(rotate: bool, ops: int) -> Tuple[float, float]:
    """(µs per acquire+release, messages per acquire) on one ``star(4)`` tree."""
    async with LocalCluster(star(4)) as cluster:
        locks = [cluster.lock(node) for node in cluster.node_ids]
        before = cluster.transport.messages_sent
        start = time.perf_counter()
        for index in range(ops):
            lock = locks[index % len(locks)] if rotate else locks[0]
            await lock.acquire()
            await lock.release()
        wall = time.perf_counter() - start
        return wall / ops * 1e6, (cluster.transport.messages_sent - before) / ops


async def _inmem_send_us(calls: int) -> float:
    transport = InMemoryTransport()
    transport.register(0)
    inbox = transport.register(1)
    start = time.perf_counter()
    for _ in range(calls):
        transport.send(0, 1, None)
        await inbox.get()
    wall = time.perf_counter() - start
    await transport.close()
    return wall / calls * 1e6


@contextmanager
def _stub_server(sockets: str) -> Iterator[str]:
    """``echostub.py`` in a fresh interpreter, ended and waited for on the way out.

    A plain ``subprocess`` child: a ``multiprocessing`` spawn would also start
    a resource tracker, which outlives this process by a moment.
    """
    path = os.path.join(sockets, "stub.sock")
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    process = subprocess.Popen(
        [sys.executable, os.path.join(here, "echostub.py"), path],
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=source),
    )
    try:
        if not select.select([process.stdout], [], [], 30.0)[0] or not process.stdout.readline():
            raise LockError("the stub server did not come up")
        yield path
    finally:
        process.terminate()
        try:
            process.wait(10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


async def _echo_rtt_us(path: str, calls: int) -> float:
    reader, writer = await open_address_connection(path)
    frame = encode_frame(_OP_FRAMES[0])
    start = time.perf_counter()
    for _ in range(calls):
        writer.write(frame)
        await read_frame(reader)
    wall = time.perf_counter() - start
    writer.close()
    await writer.wait_closed()
    return wall / calls * 1e6


async def _null_shard_ops_per_s(path: str, ops: int) -> float:
    """The real client, 64 sessions, against the stub: the client's ceiling."""
    keys = [f"lock-{index}" for index in range(ops)]
    async with LockClient([path], channels=CHANNELS) as client:
        start = time.perf_counter()
        await asyncio.gather(*(_touch(client, keys, session) for session in range(SESSIONS)))
        return SESSIONS * ops / (time.perf_counter() - start)


def _micro(spans: SpanRecorder, sockets: str, divisor: int) -> Dict[str, float]:
    """The null-layer microbenchmarks; ``divisor`` > 1 (``--quick``) shortens them."""
    view = ClusterView(epoch=0, shards={0: "shard-0.sock"})
    keys = [f"lock-{index}" for index in range(1024)]
    frames = [encode_frame(frame) for frame in _OP_FRAMES]
    metrics: Dict[str, float] = {
        "codec.frames_per_op": len(frames),
        "codec.bytes_per_op": sum(len(frame) for frame in frames),
    }
    calls = 20_000 // divisor
    with spans.span("codec.encode"):
        metrics["codec.encode_ns"] = _per_call(calls, lambda: encode_frame(_OP_FRAMES[0])) * 1e9
    with spans.span("codec.decode"):
        metrics["codec.decode_ns"] = asyncio.run(_decode_ns(calls))
    with spans.span("route.owner"):
        metrics["route.owner_ns"] = (
            _per_call(20, lambda: [view.owner_for(key) for key in keys]) / len(keys) * 1e9
        )
    with spans.span("tree.handoff"):
        metrics["tree.handoff_us"], metrics["tree.msgs_per_acquire"] = asyncio.run(
            _tree_us(True, 4000 // divisor))
    with spans.span("tree.reacquire"):
        metrics["tree.reacquire_us"], _ = asyncio.run(_tree_us(False, 4000 // divisor))
    with spans.span("transport.inmem_send"):
        metrics["transport.inmem_send_us"] = asyncio.run(_inmem_send_us(calls))
    with _stub_server(sockets) as path:
        with spans.span("socket.echo"):
            metrics["socket.echo_rtt_us"] = asyncio.run(_echo_rtt_us(path, 5000 // divisor))
        with spans.span("client.null_shard"):
            metrics["client.null_shard_ops_per_s"] = asyncio.run(
                _null_shard_ops_per_s(path, 150 // divisor))
    return metrics


def _registry_metric(stats: Dict[str, Any], name: str, field: str) -> float:
    metrics = ((stats.get("obs") or {}).get("registry") or {}).get("metrics") or {}
    return float((metrics.get(name) or {}).get(field) or 0.0)


def run_traced(name: str, seed: int, seconds: float, quick: bool, trace_path: str) -> Result:
    """A quarter-length run untraced, the same again fully traced, then the
    microbenchmarks; their difference is what observing costs."""
    cell = CELLS[name]
    result = Result()
    spans = SpanRecorder(name)
    op_trace: List[Dict[str, Any]] = []
    length = seconds / 4
    with _socket_dir() as sockets:
        # Shard CPU comes from RUSAGE_CHILDREN once a shard has been joined:
        # a warm-up-only lifetime is the baseline the timed one is set against.
        cpu = _shard_cpu()
        _check_ledger(result, _serve(cell, seed, 0.0, sockets))
        idle_cpu = _shard_cpu() - cpu
        idle_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        cpu = _shard_cpu()
        plain = _serve(cell, seed, length, sockets)
        plain_cpu = _shard_cpu() - cpu - idle_cpu
        plain_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        with spans.span("traced"):
            traced = _serve(cell, seed, length, sockets, obs=True, spans=spans, op_trace=op_trace)
        micro = _micro(spans, sockets, 10 if quick else 1)
    for phase in (plain, traced):
        _check_ledger(result, phase)
    load: _Load = traced["load"]
    plain_load: _Load = plain["load"]
    spans.adopt(op_trace[:TRACE_SPAN_CAP], parent=traced["timed_span"])
    acquires = sorted(s["end"] - s["start"] for s in op_trace if s["cat"] == "acquire")
    session_latencies: Dict[int, List[float]] = {}
    for _done, latency, session in load.ops:
        session_latencies.setdefault(session, []).append(latency)
    fairness = fairness_summary(session_latencies)
    if cell.rate:
        # The offered rate fixes throughput, so compare latency instead.
        overhead = plain_load.p50_ms() / load.p50_ms()
    else:
        overhead = load.ops_per_s() / plain_load.ops_per_s()
    result.attempted = load.completed + load.failed + plain_load.completed + plain_load.failed
    result.failed = load.failed + plain_load.failed
    result.notes = plain["notes"] + traced["notes"]
    result.metrics = {
        "cluster.start_s": spans.seconds("cluster.start"),
        "client.connect_s": spans.seconds("client.connect"),
        "shard.warm_keys_s": spans.seconds("shard.warm_keys"),
        "client.cpu_us_per_op": plain_load.client_cpu / plain_load.completed * 1e6,
        "shard.cpu_us_per_op": plain_cpu / plain_load.completed * 1e6,
        "shard.rss_bytes_per_op": (plain_rss - idle_rss) * 1e6 / plain_load.completed,
        "shard.acquire_wait_ms_mean": _registry_metric(
            traced["stats"], "shard.acquire_wait_ms", "mean"),
        "shard.queue_depth_max": _registry_metric(
            traced["stats"], "shard.queue_depth_max", "value"),
        "client.op_span_ms_p50": quantile(acquires, 0.5) * 1000,
        "client.retries": plain["retries"] + traced["retries"],
        "fair.session_p99_spread": fairness["session_p99_ms"] / fairness["session_p50_ms"],
        "obs.overhead_ratio": overhead,
        "acquire_p99_ms": quantile(plain_load.latencies, 0.99) * 1000,
        "op_fail_ratio": result.failed / result.attempted,
        **micro,
    }
    if cell.rate:
        result.metrics["gen.lag_p99_ms"] = _lag_p99_ms(plain_load)
        result.metrics["gen.offered_per_s"] = len(plain_load.lags) / length
    result.samples = {"acquire_p99_ms": plain_load.completed,
                      "client.op_span_ms_p50": len(acquires)}
    result.labels.update(
        _labels(cell),
        op_spans=f"{len(op_trace)} recorded, first {TRACE_SPAN_CAP} kept in the trace",
        self_time_s={k: round(v, 6) for k, v in sorted(spans.self_times().items())},
    )
    spans.write(trace_path, metadata={"workload": name, "seed": seed})
    return result
