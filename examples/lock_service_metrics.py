#!/usr/bin/env python3
"""Observability for the lock service: metrics, fairness, Chrome traces.

This stands up the same two-shard service as ``lock_service_quickstart.py``
but with the :mod:`repro.obs` instrumentation switched on, then shows the
three views the observability layer adds:

* the **metrics registry** each shard publishes through its ``stats`` frame —
  acquire-wait histogram, inflight gauge, retry/takeover counters;
* the **fairness summary** — the spread of per-session mean acquire latency
  (p50/p99/max) plus the deepest implicit queue any key grew, deduced from
  live node states by the same inspector the paper's Figure 6 walkthrough
  uses;
* a **Chrome trace** of every op lifecycle, written to a temp file in
  ``trace_event`` JSON (open it in ``chrome://tracing`` or Perfetto).

Run with::

    python examples/lock_service_metrics.py
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time

from repro.obs.chrome_trace import chrome_trace_document, runtime_span_events, write_chrome_trace
from repro.obs.snapshot import fairness_summary
from repro.runtime import LockClient, LockServiceCluster
from repro.spec_base import ObsSpec, RuntimeSpec, TopologySpec

SESSIONS = 12
OPS_PER_SESSION = 6
KEYS = 4


async def drive(addresses) -> None:
    spans = []  # the client appends one span per op: request -> outcome
    async with LockClient(addresses, channels=4, trace=spans) as client:
        per_session = {}

        async def worker(session_id: int) -> None:
            session = client.session(session_id)
            latencies = per_session.setdefault(session_id, [])
            for turn in range(OPS_PER_SESSION):
                key = f"key-{(session_id + turn) % KEYS}"
                started = time.perf_counter()
                await session.acquire(key)
                latencies.append(time.perf_counter() - started)
                await asyncio.sleep(0)
                await session.release(key)

        origin = time.perf_counter()
        await asyncio.gather(*(worker(session) for session in range(SESSIONS)))

        # 1. the shard-side registry, straight off the stats frame
        for shard in range(client.shards):
            stats = await client.stats(shard)
            metrics = stats["obs"]["registry"]["metrics"]
            wait = metrics["shard.acquire_wait_ms"]
            print(
                f"shard {shard}: {stats['acquires']} acquires, "
                f"acquire-wait mean {wait['mean']} ms over {wait['observed']} obs, "
                f"max queue depth {metrics['shard.queue_depth_max']['value']}"
            )

        # 2. the client-visible fairness block
        summary = fairness_summary(per_session)
        print(
            f"fairness over {summary['sessions']} sessions: per-session mean "
            f"p50 {summary['session_p50_ms']} ms, "
            f"p99 {summary['session_p99_ms']} ms, "
            f"max {summary['session_max_ms']} ms"
        )

        # 3. the op-lifecycle timeline as Chrome trace_event JSON
        rebased = [
            dict(span, start=span["start"] - origin, end=span["end"] - origin)
            for span in spans
        ]
        document = chrome_trace_document(
            runtime_span_events(rebased),
            metadata={"source": "examples/lock_service_metrics.py"},
        )
        path = os.path.join(tempfile.gettempdir(), "lock_service_metrics_trace.json")
        write_chrome_trace(document, path)
        print(
            f"wrote {len(document['traceEvents'])} trace events to {path} "
            "(open in chrome://tracing)"
        )


def main() -> None:
    spec = RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=4),
        shards=2,
        socket="unix",
        obs=ObsSpec(enabled=True),
    )
    print(f"starting instrumented lock service {spec.name} ...")
    with LockServiceCluster(spec) as cluster:
        asyncio.run(drive(cluster.addresses))
    print("clean shutdown.")


if __name__ == "__main__":
    main()
