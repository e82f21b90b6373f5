#!/usr/bin/env python3
"""The networked lock service in ~60 lines: shards, sockets, sessions.

This stands up the whole runtime stack — two shard worker processes, each
serving its consistent-hashed slice of a multi-lock namespace over unix
sockets, every key protected by its own DAG token tree — and then drives it
the way an application would: concurrent sessions taking per-key locks around
a deliberately race-prone piece of shared state.

The punchline is the same as ``distributed_counter.py``, one level up the
stack: without the lock the read-modify-write loses updates; with it, every
update survives, even though the contenders are spread over real socket
connections to separate server processes.

Run with::

    python examples/lock_service_quickstart.py
"""

from __future__ import annotations

import asyncio

from repro.runtime import LockClient, LockServiceCluster
from repro.spec_base import RuntimeSpec, TopologySpec

SESSIONS = 40
INCREMENTS_PER_SESSION = 10
ACCOUNTS = 4  # distinct lock keys, spread across the shards by hash


async def drive(addresses) -> None:
    balances = {f"account-{index}": 0 for index in range(ACCOUNTS)}

    async with LockClient(addresses, channels=4) as client:

        async def teller(session_id: int) -> None:
            session = client.session(session_id)
            for turn in range(INCREMENTS_PER_SESSION):
                key = f"account-{(session_id + turn) % ACCOUNTS}"
                async with session.locked(key):
                    # The critical section: a classic lost-update window.
                    snapshot = balances[key]
                    await asyncio.sleep(0)  # yield so rivals can interleave
                    balances[key] = snapshot + 1

        await asyncio.gather(*(teller(session) for session in range(SESSIONS)))

        expected = SESSIONS * INCREMENTS_PER_SESSION
        total = sum(balances.values())
        print(f"balances: {balances}")
        print(f"total {total} / expected {expected}")
        assert total == expected, "the lock service lost an update!"

        for shard in range(client.shards):
            stats = await client.stats(shard)
            print(
                f"shard {shard}: {stats['acquires']} acquires, "
                f"{stats['keys']} keys, "
                f"{stats['exclusion_violations']} exclusion violations"
            )
            assert stats["exclusion_violations"] == 0


def main() -> None:
    # The same spec names the simulator uses: the 'dag' algorithm, a star
    # token tree per key, two shard processes, unix sockets.
    spec = RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=4),
        shards=2,
        socket="unix",
    )
    print(f"starting lock service {spec.name} ...")
    with LockServiceCluster(spec) as cluster:
        print(f"shards ready at: {cluster.addresses}")
        asyncio.run(drive(cluster.addresses))
    print("clean shutdown.")


if __name__ == "__main__":
    main()
