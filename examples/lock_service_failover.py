#!/usr/bin/env python3
"""Kill a shard mid-run and watch the lock service heal itself.

The quickstart example shows the happy path; this one shows the robustness
story.  A two-shard cluster serves a keyed lock namespace while concurrent
sessions hammer it — and partway through, the fault schedule declared on the
``RuntimeSpec`` hard-kills shard 1 (``os._exit``, no goodbye frames).  Then
three mechanisms kick in:

* the cluster supervisor misses shard 1's heartbeats and pushes a new
  ``ClusterView`` (epoch bumped) to the survivor;
* the survivor takes over shard 1's slice of the hash ring, rebuilding each
  touched key's DAG token tree and regenerating its PRIVILEGE token — the
  same election the simulator's recovery path uses;
* every client op that was in flight against the dead shard times out or
  fails fast, re-resolves its key against the new view, and retries with the
  same idempotent op-id until it lands on the survivor.

Sessions that held a lock on the dead shard at the moment of the crash get a
``LockFencedError`` on release: their grant belongs to a previous epoch and
the takeover tree may already have granted the key to someone else.  That is
the fencing design working — a crash can force a grant to be cut short, but
it can never let a stale holder silently corrupt the new epoch.

Run with::

    python examples/lock_service_failover.py
"""

from __future__ import annotations

import asyncio
import time

from repro.exceptions import LockFencedError
from repro.runtime import LockClient, LockServiceCluster
from repro.spec_base import RuntimeFaultSpec, RuntimeSpec, ShardCrashSpec, TopologySpec

SESSIONS = 32
OPS_PER_SESSION = 12
KEYS = 12
CRASH_AT = 0.15  # seconds into the run, per the declarative fault schedule


async def drive(cluster: LockServiceCluster) -> None:
    fenced = 0
    completed = 0

    async with LockClient(
        cluster.addresses, channels=4, op_timeout=5.0
    ) as client:

        async def worker(session_id: int) -> None:
            nonlocal fenced, completed
            session = client.session(session_id)
            for turn in range(OPS_PER_SESSION):
                key = f"resource-{(session_id + turn) % KEYS}"
                try:
                    async with session.locked(key):
                        await asyncio.sleep(0.01)  # hold through the crash
                except LockFencedError:
                    fenced += 1  # our shard died while we held the lock
                completed += 1

        await asyncio.gather(*(worker(session) for session in range(SESSIONS)))

        expected = SESSIONS * OPS_PER_SESSION
        print(f"ops completed: {completed} / {expected} "
              f"({fenced} grants fenced by the crash)")
        assert completed == expected, "a session was lost!"

        # The survivor's ledger is the authority on mutual exclusion.
        violations = 0
        for shard, address in client.view.shards.items():
            if address is None:
                continue
            stats = await client.stats(shard)
            violations += stats["exclusion_violations"]
            print(
                f"shard {shard}: epoch {stats['epoch']}, "
                f"{stats['acquires']} acquires, {stats['takeovers']} takeovers, "
                f"{stats['fenced']} fenced releases, "
                f"{stats['exclusion_violations']} exclusion violations"
            )
        print(f"{violations} exclusion violations")
        assert violations == 0, "mutual exclusion was violated!"
        print(
            f"client resilience: {client.retry_stats['retries']} retries, "
            f"{client.retry_stats['fenced']} fenced"
        )


def main() -> None:
    # Failover cells tighten the heartbeat so detection is fast; the crash
    # schedule is part of the spec, as declarative as the simulator's faults.
    spec = RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=4),
        shards=2,
        socket="unix",
        faults=RuntimeFaultSpec(crashes=(ShardCrashSpec(shard=1, at=CRASH_AT),)),
        heartbeat_interval=0.05,
        miss_window=0.5,
    )
    print(f"starting lock service {spec.name} "
          f"(shard 1 will crash at t={CRASH_AT}s) ...")
    with LockServiceCluster(spec) as cluster:
        asyncio.run(drive(cluster))
        deadline = time.monotonic() + CRASH_AT + 5.0
        while not cluster.failover_events and time.monotonic() < deadline:
            time.sleep(0.02)  # a very short run can outrace the schedule
        for event in cluster.failover_events:
            detection_ms = (event.detected_at - event.last_heartbeat) * 1000
            completed_at = event.completed_at or event.detected_at
            takeover_ms = (completed_at - event.last_heartbeat) * 1000
            print(
                f"failover: shard {event.shard} {event.reason}, "
                f"epoch {event.epoch - 1} -> {event.epoch}, "
                f"detected in {detection_ms:.0f} ms, "
                f"view converged in {takeover_ms:.0f} ms"
            )
        assert cluster.failover_events, "the crash schedule never fired?"
    print("clean shutdown.")


if __name__ == "__main__":
    main()
