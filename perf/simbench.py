"""The three simulator workloads: replay a seeded workload through the DAG
protocol on the unobserved fast path, as large sweeps run it.

Everything is measured from outside, by timing calls into public functions
(``TopologySpec.build``, ``WorkloadSpec.build``, ``ExperimentSpec.build_system``,
``ExperimentDriver``); ``scheduler`` and ``node_backend`` stay ``"auto"`` —
what users run — and the engaged kinds are recorded as labels.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
import tracemalloc
from array import array
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import SimulationEngine
from repro.sim.network import Network
from repro.sim.schedulers import make_scheduler
from repro.spec import ExperimentSpec, TopologySpec, WorkloadSpec
from repro.topology.metrics import diameter
from repro.workload.driver import ExperimentDriver

from report import REFERENCE_SECONDS, MachineSpeed, Result, peak_rss_mb
from spans import SpanRecorder, maybe_span

#: What the two shared end-to-end names measure on a simulator workload.
MEANING = {
    "ops_per_s": "sim_events_per_s: events per second of ExperimentDriver.run",
    "op_p50_ms": "wall time of one whole replay",
}

MAX_EVENTS = 50_000_000

#: Fewest timed set-up + replay rounds, however long one takes.
MIN_ROUNDS = 3

#: Seconds of replay on either side of a set-up whose machine-speed samples
#: correct it.
SETUP_NEIGHBOURHOOD = 0.5

#: Events per timed slice of a replay (15-30 ms of host time).
SLICE_EVENTS = 10_000


@dataclass(frozen=True)
class SimCell:
    """One simulator workload; ``pinned`` is (events, messages, entries) at seed 0."""

    kind: str
    n: int
    workload: WorkloadSpec
    pinned: Tuple[int, int, int]

    def spec(self, seed: int, *, divisor: int = 1, collect_metrics: bool = False) -> ExperimentSpec:
        """The cell's experiment; ``divisor`` > 1 (``--quick``) shortens it.

        A tier too short to divide (``rounds`` < ``divisor``) keeps its
        length and shrinks the topology instead.
        """
        n, workload = self.n, self.workload
        if workload.rounds is not None and workload.rounds >= divisor:
            workload = replace(workload, rounds=workload.rounds // divisor)
        elif workload.rounds is not None:
            n //= divisor
        else:
            workload = replace(workload, total_requests=workload.total_requests // divisor)
        return ExperimentSpec(
            algorithm="dag",
            topology=TopologySpec(kind=self.kind, n=n),
            workload=workload,
            scheduler="auto",
            seed=seed,
            collect_metrics=collect_metrics,
            node_backend="auto",
        )


CELLS: Dict[str, SimCell] = {
    # Dense lattice traffic on object nodes, cache-resident: 200 rounds make
    # the 200k-request backlog at which "auto" engages the bucket ring.
    "sim_star1k_heavy": SimCell(
        "star", 1000, WorkloadSpec(tier="heavy", rounds=200), (999_597, 599_597, 200_000)
    ),
    # Sparse off-lattice Poisson timestamps, one isolated request at a time
    # forwarded over ~D hops: the heap, no same-tick batching.
    "sim_line5k_light": SimCell(
        "line", 5000, WorkloadSpec(tier="light", total_requests=5000), (569_723, 559_723, 5000)
    ),
    # Columnar state + batch sink + CSR topology, working set beyond cache.
    "sim_star100k_heavy": SimCell(
        "star", 100_000, WorkloadSpec(tier="heavy", rounds=2), (999_993, 599_993, 200_000)
    ),
}


def _set_up(cell: SimCell, seed: int, divisor: int, spans: Optional[SpanRecorder] = None):
    """Everything before the first timed replay, warm-up included.

    The warm-up replays a tenth as many Poisson requests on the same topology
    and node backend, so lazy imports, caches and the interpreter's
    specialisation are paid here, and show in ``setup_s``.
    """
    spec = cell.spec(seed, divisor=divisor)
    with maybe_span(spans, "topology.build"):
        topology = spec.topology.build()
    with maybe_span(spans, "workload.build"):
        workload = spec.workload.build(topology, seed=seed)
    with maybe_span(spans, "warmup.replay"):
        warm_workload = WorkloadSpec(
            tier="light", total_requests=max(1, len(workload) // 10)
        ).build(topology, seed=seed)
        warm_system = spec.build_system(topology)
        warm = ExperimentDriver(warm_system, warm_workload, scheduler="auto")
        warm.run(max_events=MAX_EVENTS)
    del warm, warm_system
    with maybe_span(spans, "core.build_system"):
        system = spec.build_system(topology)
    with maybe_span(spans, "driver.construct"):
        driver = ExperimentDriver(system, workload, scheduler=spec.scheduler)
    return spec, topology, workload, system, driver


def _digest(entry_order: List[int]) -> str:
    return hashlib.sha256(array("i", entry_order).tobytes()).hexdigest()[:16]


def _replay(
    driver: ExperimentDriver, system, speed: MachineSpeed
) -> Tuple[List[float], List[float], Dict[str, Any]]:
    """One ``ExperimentDriver.run``, timed in consecutive segments.

    The driver drains the engine through ``system.run``; a wrapper installed
    on this one system object calls it ``SLICE_EVENTS`` events at a time and
    clocks every call.  The segments are: arrival loading, each slice, and
    result collection; their sum is the wall time of the whole ``run``.
    A machine-speed sample follows every segment, outside the clock; the
    second list holds each segment divided by its sample's slowdown.
    """
    drain = system.run
    clock = time.perf_counter
    segments: List[float] = []
    scaled: List[float] = []
    last = 0.0

    def lap() -> None:
        nonlocal last
        took = clock() - last
        segments.append(took)
        scaled.append(took * REFERENCE_SECONDS / speed.sample())
        last = clock()

    def sliced(*, max_events: Optional[int] = None, until: Optional[float] = None) -> int:
        processed = 0
        lap()
        while True:
            stepped = drain(max_events=SLICE_EVENTS, until=until)
            lap()
            processed += stepped
            if stepped < SLICE_EVENTS:
                return processed

    system.run = sliced
    last = clock()
    result = driver.run(max_events=MAX_EVENTS)
    lap()
    outcome = {
        "events": system.engine.processed_events,
        "messages": system.network.messages_sent,
        "entries": result.completed_entries,
        "msgs_per_entry": result.messages_per_entry,
        "digest": _digest(result.entry_order),
        "finished_at": result.finished_at,
    }
    return segments, scaled, outcome


def _typical_wall(replays: List[List[float]]) -> float:
    """Wall time of one replay with this sandbox's stalls taken out.

    Every replay of one seed does the same work in the same segment, so the
    median over replays of each segment drops a stall that hit one replay
    there, and the sum of those medians still covers the whole run.
    """
    return sum(statistics.median(segment) for segment in zip(*replays))


def _check_outcomes(
    result: Result, cell: SimCell, seed: int, divisor: int, topology, workload,
    outcomes: List[Dict[str, Any]],
) -> None:
    first = outcomes[0]
    result.check(
        all(outcome == first for outcome in outcomes[1:]),
        "events/messages/entries/entry-order digest differ between replays",
    )
    bound = diameter(topology) + 1
    result.check(
        first["msgs_per_entry"] <= bound + 1e-9,
        f"{first['msgs_per_entry']:.3f} messages per entry exceeds D+1 = {bound}",
    )
    result.check(
        first["entries"] == len(workload),
        f"{len(workload) - first['entries']} of {len(workload)} requests never entered",
    )
    if seed == 0 and divisor == 1:
        counts = (first["events"], first["messages"], first["entries"])
        result.check(
            counts == cell.pinned,
            f"seed-0 (events, messages, entries) {counts} != pinned {cell.pinned}",
        )


def run_end_to_end(name: str, seed: int, seconds: float, quick: bool) -> Result:
    """Rounds of one whole set-up and one replay until ``seconds`` are up.

    Setting up before every replay, not several times at the start, spreads
    the set-ups over the run: the machine can be a quarter slower for two
    seconds on end, which a median of set-ups taken inside those two seconds
    cannot see.  A set-up cannot be sliced, and a reference loop timed right
    after one runs on a cold cache, so each set-up is corrected by the
    samples taken between the replay slices just before and after it.
    """
    cell = CELLS[name]
    divisor = 10 if quick else 1
    result = Result()
    speed = MachineSpeed()
    setups: List[Tuple[float, float]] = []  # (began, ended)
    replays: List[List[float]] = []
    scaled_replays: List[List[float]] = []
    outcomes: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(replays) < (1 if quick else MIN_ROUNDS) or time.perf_counter() < deadline:
        # The finished system is garbage of the last round, not work of this
        # one: drop and collect it outside both clocks.
        spec = topology = workload = system = driver = None
        gc.collect()
        began = time.perf_counter()
        spec, topology, workload, system, driver = _set_up(cell, seed, divisor)
        setups.append((began, time.perf_counter()))
        segments, scaled, outcome = _replay(driver, system, speed)
        replays.append(segments)
        scaled_replays.append(scaled)
        outcomes.append(outcome)
        if len(replays) == 1:
            # Read after the first round, when every run has done the same
            # work; later rounds add only what the allocator fails to reuse.
            peak_rss = peak_rss_mb()
    result.labels.update(scheduler=system.engine.scheduler_kind, node_backend=system.node_backend)
    _check_outcomes(result, cell, seed, divisor, topology, workload, outcomes)
    events = outcomes[0]["events"]
    typical = _typical_wall(scaled_replays)
    clocked = _typical_wall(replays)
    result.attempted = len(workload) * len(replays)
    result.failed = sum(len(workload) - outcome["entries"] for outcome in outcomes)
    result.metrics = {
        "setup_s": statistics.median(
            (ended - began)
            / speed.slowdown(began - SETUP_NEIGHBOURHOOD, ended + SETUP_NEIGHBOURHOOD)
            for began, ended in setups
        ),
        "ops_per_s": events / typical,
        "op_p50_ms": typical * 1000,
        "peak_rss_mb": peak_rss,
    }
    result.raw = {
        "setup_s": statistics.median(ended - began for began, ended in setups),
        "ops_per_s": events / clocked,
        "op_p50_ms": clocked * 1000,
        "machine_slowdown": speed.slowdown(),
    }
    result.samples = {
        "setup_s": len(setups),
        "ops_per_s": len(replays),
        "op_p50_ms": len(replays),
    }
    result.labels.update(
        nodes=spec.topology.n, requests=len(workload), events=events,
        entries=outcomes[0]["entries"], digest=outcomes[0]["digest"],
    )
    return result


# --------------------------------------------------------------------------- #
# the traced run: per-layer numbers and the null-layer microbenchmarks
# --------------------------------------------------------------------------- #
def _state_bytes(spec: ExperimentSpec, topology) -> int:
    """Bytes ``build_system`` allocates and keeps (a second build, traced)."""
    tracemalloc.start()
    system = spec.build_system(topology)
    kept, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del system
    return kept


#: Events (or messages) one null-layer microbenchmark pushes through.
NULL_UNITS = 300_000


def _null_engine(system, workload) -> SimulationEngine:
    """An empty engine on the scheduler kind the real replay engaged."""
    return SimulationEngine(
        scheduler=make_scheduler(
            system.engine.scheduler_kind, latency=system.network.latency, workload=workload
        )
    )


def _chain_heads(workload, in_flight: int) -> List[Any]:
    """The requests whose arrival times (lattice or Poisson) start the chains."""
    heads = []
    for request in workload:
        heads.append(request)
        if len(heads) == in_flight:
            break
    return heads


def _null_event_ns(system, workload, in_flight: int, units: int) -> float:
    """Scheduler push + pop + dispatch with zero handler work.

    ``in_flight`` chains of no-op events start on this workload's own arrival
    timestamps; each event schedules its successor one latency later, as a
    delivery that forwards a message would.
    """
    engine = _null_engine(system, workload)
    schedule = engine.schedule_lite
    budget = units

    def fire(_payload: Any) -> None:
        nonlocal budget
        if budget > 0:
            budget -= 1
            schedule(engine.now + 1.0, fire, None)

    start = time.perf_counter()
    for request in _chain_heads(workload, in_flight):
        schedule(request.arrival_time, fire, None)
    engine.run()
    wall = time.perf_counter() - start
    return wall / engine.processed_events * 1e9


def _null_msg_ns(system, topology, workload, in_flight: int, units: int) -> float:
    """``Network.send`` + delivery with no protocol behind it.

    Every node's handler only forwards the message to the next node id, so
    ``in_flight`` messages circulate until the budget is spent and the cost
    is wall over messages sent.
    """
    engine = _null_engine(system, workload)
    network = Network(engine)
    nodes = list(topology.nodes)
    following = dict(zip(nodes, nodes[1:] + nodes[:1]))
    send = network.send
    budget = units

    def forwarder(node: int):
        peer = following[node]

        def on_message(_sender: int, message: Any) -> None:
            nonlocal budget
            if budget > 0:
                budget -= 1
                send(node, peer, message)

        return on_message

    for node in nodes:
        network.register(node, forwarder(node))
    start = time.perf_counter()
    for request in _chain_heads(workload, in_flight):
        engine.schedule_lite(
            request.arrival_time, lambda node: send(node, following[node], None), request.node
        )
    engine.run()
    wall = time.perf_counter() - start
    return wall / network.messages_sent * 1e9


def run_traced(name: str, seed: int, seconds: float, quick: bool, trace_path: str) -> Result:
    """One replay per path under spans, at full length (``seconds`` plays no part).

    Full length, not a quarter: "auto" picks the scheduler from the backlog
    depth, so a shorter replay would time a different scheduler.
    """
    cell = CELLS[name]
    divisor = 10 if quick else 1
    result = Result()
    spans = SpanRecorder(name)
    speed = MachineSpeed()
    with spans.span("setup"):
        spec, topology, workload, system, driver = _set_up(cell, seed, divisor, spans)
    with spans.span("driver.run"):
        segments, _scaled, fast = _replay(driver, system, speed)
    fast_wall = sum(segments)
    with spans.span("core.state_bytes"):
        state_bytes = _state_bytes(spec, topology)
    observed_spec = cell.spec(seed, divisor=divisor, collect_metrics=True)
    with spans.span("observed.build_system"):
        observed_system = observed_spec.build_system(topology)
    observed_driver = ExperimentDriver(observed_system, workload, scheduler="auto")
    with spans.span("observed.driver.run"):
        segments, _scaled, observed = _replay(observed_driver, observed_system, speed)
    observed_wall = sum(segments)
    # Unit latency: a message is in flight for one time unit, so this is the
    # replay's mean number of messages in flight.
    in_flight = min(spec.topology.n, max(1, round(fast["messages"] / fast["finished_at"])))
    with spans.span("engine.null_events"):
        null_event_ns = _null_event_ns(system, workload, in_flight, NULL_UNITS // divisor)
    with spans.span("network.null_msgs"):
        null_msg_ns = _null_msg_ns(system, topology, workload, in_flight, NULL_UNITS // divisor)
    _check_outcomes(result, cell, seed, divisor, topology, workload, [fast, observed])
    ns_per_event = fast_wall / fast["events"] * 1e9
    result.attempted = 2 * len(workload)
    result.failed = 2 * len(workload) - fast["entries"] - observed["entries"]
    result.metrics = {
        "topology.build_s": spans.seconds("topology.build"),
        "workload.build_s": spans.seconds("workload.build"),
        "workload.requests": len(workload),
        "core.build_system_s": spans.seconds("core.build_system"),
        "core.state_bytes_per_node": state_bytes / spec.topology.n,
        "engine.events": fast["events"],
        "network.messages": fast["messages"],
        "core.entries": fast["entries"],
        "core.msgs_per_entry": fast["msgs_per_entry"],
        "driver.ns_per_event": ns_per_event,
        "engine.null_event_ns": null_event_ns,
        "network.null_msg_ns": null_msg_ns,
        # Attribution by subtraction: what an event costs beyond a bare
        # send + deliver is the protocol handler's (and the driver's) share.
        "core.handler_ns": ns_per_event - null_msg_ns,
        "metrics.observed_ratio": observed_wall / fast_wall,
        "op_fail_ratio": result.failed / result.attempted,
    }
    result.labels.update(
        scheduler=system.engine.scheduler_kind, node_backend=system.node_backend,
        nodes=spec.topology.n, digest=fast["digest"], in_flight=in_flight,
        self_time_s={k: round(v, 6) for k, v in sorted(spans.self_times().items())},
    )
    spans.write(trace_path, metadata={"workload": name, "seed": seed})
    return result
