"""The sharded lock service, end to end: real shard processes, real sockets."""

from __future__ import annotations

import asyncio
import hashlib
import subprocess
import sys

import pytest

from repro.exceptions import LockError
from repro.runtime import LockClient, LockServiceCluster, owner_for_key
from repro.runtime.service import RING_VNODES, _hash64
from repro.spec import RuntimeSpec, TopologySpec


def run(coro):
    return asyncio.run(coro)


def small_spec(shards: int = 2, socket: str = "unix") -> RuntimeSpec:
    return RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=3),
        shards=shards,
        socket=socket,
    )


# --------------------------------------------------------------------------- #
# consistent hashing
# --------------------------------------------------------------------------- #
def test_shard_for_key_is_stable_and_in_range():
    for shards in (1, 2, 4, 7):
        for index in range(100):
            key = f"lock-{index}"
            owner = owner_for_key(key, tuple(range(shards)))
            assert 0 <= owner < shards
            assert owner == owner_for_key(key, tuple(range(shards)))  # pure


def test_shard_for_key_spreads_keys_over_every_shard():
    shards = 4
    owners = {owner_for_key(f"lock-{index}", tuple(range(shards))) for index in range(200)}
    assert owners == set(range(shards))


def test_shard_for_key_is_independent_of_hash_seed():
    """sha256-based, so child processes with different PYTHONHASHSEED agree."""
    keys = [f"lock-{index}" for index in range(16)]
    script = (
        "from repro.runtime.service import owner_for_key;"
        f"print([owner_for_key(k, (0, 1, 2, 3)) for k in {keys!r}])"
    )
    outputs = set()
    for seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1
    assert eval(outputs.pop()) == [owner_for_key(key, (0, 1, 2, 3)) for key in keys]


def test_ring_uses_sha256_points():
    # The ring is a pure function of the shard/vnode labels.
    expected = int.from_bytes(
        hashlib.sha256(b"shard:0:vnode:0").digest()[:8], "big"
    )
    assert _hash64("shard:0:vnode:0") == expected
    assert RING_VNODES >= 16  # enough vnodes for a tolerable spread


def test_shard_for_key_rejects_bad_shard_counts():
    with pytest.raises(LockError):
        owner_for_key("x", ())


# --------------------------------------------------------------------------- #
# the service, end to end
# --------------------------------------------------------------------------- #
@pytest.mark.network
def test_mutual_exclusion_across_two_shard_processes():
    """The acceptance e2e: concurrent sessions on shared keys across >= 2
    shard processes; no two sessions ever hold the same key at once."""

    async def drive(addresses) -> None:
        client = LockClient(addresses, channels=4)
        await client.connect()
        holders = {}  # key -> session currently inside its critical section
        violations = []

        async def one_session(session_id: int) -> None:
            session = client.session(session_id)
            for turn in range(5):
                key = f"shared-{(session_id + turn) % 6}"
                async with session.locked(key):
                    if key in holders:
                        violations.append((key, holders[key], session_id))
                    holders[key] = session_id
                    await asyncio.sleep(0)  # let rivals try while we hold it
                    del holders[key]

        await asyncio.gather(*(one_session(s) for s in range(24)))
        assert violations == []
        # Server-side cross-check: the shards' own invariant counters.
        total = {"acquires": 0, "releases": 0}
        for shard in range(client.shards):
            stats = await client.stats(shard)
            assert stats["exclusion_violations"] == 0
            assert stats["held"] == 0
            total["acquires"] += stats["acquires"]
            total["releases"] += stats["releases"]
        assert total["acquires"] == 24 * 5
        assert total["releases"] == 24 * 5
        await client.close()

    with LockServiceCluster(small_spec(shards=2)) as cluster:
        assert len(cluster.addresses) == 2
        run(drive(cluster.addresses))


@pytest.mark.network
def test_service_over_tcp_sockets():
    async def drive(addresses) -> None:
        async with LockClient(addresses, channels=2) as client:
            session = client.session(1)
            await session.acquire("a-key")
            await session.release("a-key")
            stats = await client.stats(owner_for_key("a-key", (0, 1)))
            assert stats["acquires"] == 1 and stats["releases"] == 1

    with LockServiceCluster(small_spec(shards=2, socket="tcp")) as cluster:
        for address in cluster.addresses:
            host, port = address
            assert port > 0  # ephemeral port was recorded, not the 0 we asked
        run(drive(cluster.addresses))


@pytest.mark.network
def test_double_acquire_and_stray_release_are_errors():
    async def drive(addresses) -> None:
        async with LockClient(addresses) as client:
            session = client.session(7)
            await session.acquire("k")
            with pytest.raises(LockError, match="already holds"):
                await session.acquire("k")
            await session.release("k")
            with pytest.raises(LockError, match="does not hold"):
                await session.release("k")
            # Distinct sessions are independent: no false "already holds".
            other = client.session(8)
            await other.acquire("k")
            await other.release("k")

    with LockServiceCluster(small_spec(shards=1)) as cluster:
        run(drive(cluster.addresses))


@pytest.mark.network
def test_dropped_connection_releases_held_locks():
    async def drive(addresses) -> None:
        # Client A takes the lock and vanishes without releasing.
        client_a = LockClient(addresses, channels=1)
        await client_a.connect()
        await client_a.acquire("orphan", session=1)
        await client_a.close()
        # Client B must still be able to take it (the shard released the
        # abandoned hold when A's connection dropped).
        async with LockClient(addresses, channels=1) as client_b:
            await asyncio.wait_for(client_b.acquire("orphan", session=2), timeout=10)
            await client_b.release("orphan", session=2)
            stats = await client_b.stats(owner_for_key("orphan", (0,)))
            assert stats["abandoned"] >= 1
            assert stats["held"] == 0

    with LockServiceCluster(small_spec(shards=1)) as cluster:
        run(drive(cluster.addresses))


@pytest.mark.network
def test_shard_rejects_misrouted_keys():
    async def drive(addresses) -> None:
        # Talk to shard 0 directly about a key it does not own.
        foreign = next(
            f"k-{index}" for index in range(100) if owner_for_key(f"k-{index}", (0, 1)) == 1
        )
        async with LockClient([addresses[0]]) as client:
            # One-shard client routes everything to shard 0.
            with pytest.raises(LockError, match="routing bug"):
                await client.acquire(foreign)

    with LockServiceCluster(small_spec(shards=2)) as cluster:
        run(drive(cluster.addresses))


@pytest.mark.network
def test_cluster_restart_rejected_and_stop_is_idempotent():
    cluster = LockServiceCluster(small_spec(shards=1))
    with cluster:
        with pytest.raises(LockError, match="already started"):
            cluster.start()
    cluster.stop()  # second stop is a no-op
    assert cluster.addresses == []


@pytest.mark.network
def test_stop_is_a_graceful_exit_for_every_shard():
    """``stop`` sends each shard a shutdown frame and waits for the ack; a
    shard that never saw it would be terminated (exit code -15) instead."""
    cluster = LockServiceCluster(small_spec(shards=2))
    cluster.start()
    processes = list(cluster._processes)
    cluster.stop()
    assert [process.exitcode for process in processes] == [0, 0]
