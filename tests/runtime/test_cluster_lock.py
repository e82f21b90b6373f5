"""Integration tests for the asyncio cluster and the DistributedLock API."""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.exceptions import LockError, ProtocolError
from repro.runtime import DistributedLock, InMemoryTransport, LocalCluster
from repro.topology import line, star

from .virtual_clock import VirtualClock


def run(coro):
    return asyncio.run(coro)


def test_cluster_lifecycle_and_lock_basics():
    async def scenario():
        async with LocalCluster(star(4)) as cluster:
            assert cluster.node_ids == [1, 2, 3, 4]
            assert cluster.token_location() == 1
            lock = cluster.lock(3)
            assert not lock.held
            await lock.acquire()
            assert lock.held
            assert cluster.token_location() == 3
            await lock.release()
            assert not lock.held
            assert cluster.token_location() == 3  # token stays where last used

    run(scenario())


def test_lock_requires_started_cluster():
    cluster = LocalCluster(star(3))
    with pytest.raises(LockError):
        cluster.lock(2)


def test_unknown_node_rejected():
    async def scenario():
        async with LocalCluster(star(3)) as cluster:
            with pytest.raises(LockError):
                cluster.lock(99)

    run(scenario())


def test_double_acquire_and_release_misuse_rejected():
    async def scenario():
        async with LocalCluster(star(3)) as cluster:
            lock = cluster.lock(2)
            await lock.acquire()
            with pytest.raises(LockError):
                await lock.acquire()
            await lock.release()
            with pytest.raises(LockError):
                await lock.release()

    run(scenario())


def test_context_manager_form():
    async def scenario():
        async with LocalCluster(line(5, token_holder=5)) as cluster:
            async with cluster.lock(1) as lock:
                assert lock.held
                assert cluster.node(1).in_critical_section
            assert not cluster.node(1).in_critical_section

    run(scenario())


def test_mutual_exclusion_across_concurrent_workers():
    """The classic read-modify-write race disappears under the lock."""

    async def scenario():
        counter = {"value": 0}
        async with LocalCluster(star(5)) as cluster:
            async def worker(node_id, iterations):
                for _ in range(iterations):
                    async with cluster.lock(node_id):
                        current = counter["value"]
                        await asyncio.sleep(0)  # force an interleaving point
                        counter["value"] = current + 1

            await asyncio.gather(*(worker(node_id, 10) for node_id in cluster.node_ids))
        assert counter["value"] == 5 * 10

    run(scenario())


def test_no_two_nodes_in_cs_simultaneously():
    async def scenario():
        active = 0
        max_active = 0

        async with LocalCluster(line(6, token_holder=3)) as cluster:
            async def worker(node_id):
                nonlocal active, max_active
                for _ in range(5):
                    async with cluster.lock(node_id):
                        active += 1
                        max_active = max(max_active, active)
                        await asyncio.sleep(0)
                        active -= 1

            await asyncio.gather(*(worker(node_id) for node_id in cluster.node_ids))
        assert max_active == 1

    run(scenario())


def test_lock_acquire_with_timeout_succeeds_quickly():
    async def scenario():
        async with LocalCluster(star(4)) as cluster:
            lock = cluster.lock(2)
            await lock.acquire(timeout=1.0)
            await lock.release()

    run(scenario())


def test_a_cluster_is_a_topology_and_an_optional_delay():
    """The cluster always builds its own in-memory transport."""
    parameters = inspect.signature(LocalCluster).parameters
    assert list(parameters) == ["topology", "delay"]
    assert parameters["delay"].kind is inspect.Parameter.KEYWORD_ONLY
    assert parameters["delay"].default is None
    with pytest.raises(TypeError):
        LocalCluster(star(3), transport=InMemoryTransport())
    assert isinstance(LocalCluster(star(3)).transport, InMemoryTransport)


def test_a_delayed_cluster_keeps_mutual_exclusion_on_a_line():
    """Every hop of a line takes a second: REQUESTs and PRIVILEGEs are in
    flight together, and still one node at a time is in its section."""

    async def scenario():
        clock = VirtualClock()
        active = max_active = 0
        entries = []
        async with LocalCluster(line(4, token_holder=4), delay=lambda s, r: 1.0) as cluster:
            async def worker(node_id):
                nonlocal active, max_active
                for _ in range(2):
                    async with cluster.lock(node_id):
                        active += 1
                        max_active = max(max_active, active)
                        entries.append(node_id)
                        await asyncio.sleep(0)
                        active -= 1

            workers = asyncio.gather(*(worker(node_id) for node_id in cluster.node_ids))
            for _ in range(200):
                if workers.done():
                    break
                await clock.advance(1.0)
            await workers
            assert cluster.transport.messages_sent > 0
        assert max_active == 1
        assert sorted(entries) == [1, 1, 2, 2, 3, 3, 4, 4]

    run(scenario())


def test_fairness_all_nodes_eventually_enter():
    async def scenario():
        entries = []
        async with LocalCluster(star(6, token_holder=6)) as cluster:
            async def worker(node_id):
                async with cluster.lock(node_id):
                    entries.append(node_id)

            await asyncio.gather(*(worker(node_id) for node_id in cluster.node_ids))
        assert sorted(entries) == [1, 2, 3, 4, 5, 6]

    run(scenario())


def test_message_overhead_is_small_on_star():
    """One acquire by a leaf with the token at another leaf costs 3 messages."""

    async def scenario():
        async with LocalCluster(star(5, token_holder=2)) as cluster:
            async with cluster.lock(4):
                pass
            assert cluster.transport.messages_sent == 3

    run(scenario())


def test_distributed_lock_exposes_node_id():
    async def scenario():
        async with LocalCluster(star(3)) as cluster:
            lock = cluster.lock(2)
            assert lock.node_id == 2
            assert isinstance(lock, DistributedLock)

    run(scenario())


def test_regenerate_token_after_the_holder_crashes():
    async def settle():
        # One pass: a fresh task runs up to its wait point, and whatever it
        # sends on the way is delivered by the time its send returns.
        await asyncio.sleep(0)

    async def scenario():
        async with LocalCluster(star(4)) as cluster:
            dead = cluster.node(1)
            await dead.acquire()
            # Node 3 asks before node 2, so the FOLLOW chain is 1 -> 3 -> 2.
            late = asyncio.create_task(cluster.node(3).acquire())
            await settle()
            early = asyncio.create_task(cluster.node(2).acquire())
            await settle()
            assert (dead.follow, cluster.node(3).follow) == (3, 2)

            # The token is still held: regeneration must refuse, touching nothing.
            before = {n: node.snapshot() for n, node in cluster.nodes.items()}
            with pytest.raises(ProtocolError, match="not lost"):
                cluster.regenerate_token()
            assert {n: node.snapshot() for n, node in cluster.nodes.items()} == before

            # The holder's process dies, and the token it held dies with it.
            await dead.stop()
            dead.in_critical_section = False
            assert cluster.token_location() is None
            with pytest.raises(ProtocolError, match="every node is crashed"):
                cluster.regenerate_token(crashed={1, 2, 3, 4})

            outcome = cluster.regenerate_token(crashed={1})
            # Lowest-id live waiter is elected, whatever the old queue order.
            assert outcome == {"new_holder": 2, "granted_immediately": True, "reissued": 1}
            assert cluster.token_location() == 2
            await asyncio.wait_for(early, timeout=1.0)
            await settle()
            assert not late.done()
            assert cluster.node(2).follow == 3  # the re-issued REQUEST, through P2
            with pytest.raises(ProtocolError, match="not lost"):
                cluster.regenerate_token(crashed={1})

            await cluster.node(2).release()
            await asyncio.wait_for(late, timeout=1.0)
            assert cluster.token_location() == 3
            await cluster.node(3).release()
            assert cluster.token_location() == 3

    run(scenario())


def test_regeneration_fences_a_privilege_that_is_still_delayed():
    """The old token is a PRIVILEGE crawling from 1 to 2 when it is declared
    lost.  Were it to survive the fence it would reach node 2 while node 2
    waits for the *new* token to come back from node 3 — and both would be in
    their critical sections."""
    slow = {(1, 2): 10.0}

    async def scenario():
        clock = VirtualClock()
        delay = lambda sender, receiver: slow.get((sender, receiver), 1.0)  # noqa: E731
        async with LocalCluster(star(3), delay=delay) as cluster:
            one, two, three = (cluster.node(node_id) for node_id in (1, 2, 3))
            first = asyncio.create_task(two.acquire())
            await clock.advance(1.0)  # the REQUEST arrives; the PRIVILEGE sets off
            assert cluster.token_location() is None and not first.done()

            outcome = cluster.regenerate_token()
            assert outcome == {"new_holder": 2, "granted_immediately": True, "reissued": 0}
            await asyncio.wait_for(first, timeout=1.0)
            with pytest.raises(ProtocolError, match="not lost"):
                cluster.regenerate_token()  # the refusal rule is untouched

            # The new token goes to 3, and 2 queues up behind it again.
            other = asyncio.create_task(three.acquire())
            await clock.advance(1.0)
            await two.release()
            again = asyncio.create_task(two.acquire())
            await clock.advance(1.0)
            await asyncio.wait_for(other, timeout=1.0)
            assert two.requesting and three.in_critical_section

            await clock.advance(20.0)  # long after the old PRIVILEGE was due
            assert [node.node_id for node in (one, two, three) if node.has_token()] == [3]
            assert not again.done()
            await three.release()
            await clock.advance(1.0)
            await asyncio.wait_for(again, timeout=1.0)
            assert cluster.token_location() == 2

    run(scenario())
