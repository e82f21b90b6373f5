"""Integration tests for the asyncio cluster and the DistributedLock API."""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.core.messages import Privilege, Request
from repro.exceptions import LockError, ProtocolError
from repro.runtime import AsyncDagNode, DistributedLock, InMemoryTransport, LocalCluster
from repro.runtime.cluster import TokenTree
from repro.topology import line, star


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
            await asyncio.wait_for(lock.acquire(), 1.0)
            await lock.release()

    run(scenario())


def test_a_cluster_is_a_topology():
    """The cluster always builds its own in-memory transport."""
    parameters = inspect.signature(LocalCluster).parameters
    assert list(parameters) == ["topology"]
    with pytest.raises(TypeError):
        LocalCluster(star(3), transport=InMemoryTransport())
    with pytest.raises(TypeError):
        LocalCluster(star(3), delay=lambda sender, receiver: 1.0)
    assert isinstance(LocalCluster(star(3)).transport, InMemoryTransport)


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


def queued_calls(transport: InMemoryTransport):
    """The pump's queued deliveries as (handler, agent id, sender, message type)."""
    return [
        (handler, agent.node_id, sender, type(message))
        for handler, agent, sender, message in transport._queue
    ]


def test_regeneration_fences_a_privilege_that_is_still_queued():
    """The old token is a PRIVILEGE from 1 to 2, still queued on the
    transport's pump, when a handler declares it lost.  Were it to survive
    the fence it would reach node 2 after the new token did — and the cluster
    would hold two tokens."""

    seen = []

    class AnswerThenRegenerate(AsyncDagNode):
        """Its class's dispatch table runs this override for every REQUEST."""

        __slots__ = ()

        def _handle_request(self, sender, message):
            super()._handle_request(sender, message)  # node 1 answers the REQUEST ...
            cluster = self.network
            # ... and the token waits on the pump, as node 2's handler call.
            assert queued_calls(cluster.transport) == [
                (AsyncDagNode._handle_privilege, 2, 1, Privilege)
            ]
            assert cluster.token_location() is None
            seen.append(cluster.regenerate_token())

    async def scenario():
        cluster = LocalCluster(star(3))
        cluster.nodes[1] = AnswerThenRegenerate(1, cluster, holding=True, next_node=None)
        async with cluster:
            one, two, three = (cluster.node(node_id) for node_id in (1, 2, 3))
            transport = cluster.transport
            first = asyncio.create_task(two.acquire())
            await asyncio.wait_for(first, timeout=1.0)
            assert seen == [{"new_holder": 2, "granted_immediately": True, "reissued": 0}]
            assert not transport._queue  # the fence dropped the old PRIVILEGE
            assert [node.node_id for node in (one, two, three) if node.has_token()] == [2]
            with pytest.raises(ProtocolError, match="not lost"):
                cluster.regenerate_token()  # the refusal rule is untouched

            # The new token goes to 3, and 2 queues up behind it again.
            other = asyncio.create_task(three.acquire())
            await asyncio.sleep(0)
            await two.release()
            await asyncio.wait_for(other, timeout=1.0)
            again = asyncio.create_task(two.acquire())
            await asyncio.sleep(0)
            assert two.requesting and three.in_critical_section
            assert [node.node_id for node in (one, two, three) if node.has_token()] == [3]
            await three.release()
            await asyncio.wait_for(again, timeout=1.0)
            assert cluster.token_location() == 2
            assert [node.node_id for node in (one, two, three) if node.has_token()] == [2]

    run(scenario())


# --------------------------------------------------------------------------- #
# trees sharing one transport, as a lock-service shard's keys do
# --------------------------------------------------------------------------- #
def started_trees(transport: InMemoryTransport, count: int):
    trees = [TokenTree(star(3), transport) for _ in range(count)]
    for tree in trees:
        for node in tree.nodes.values():
            node.start()
    return trees


def test_regenerating_one_tree_leaves_the_other_trees_privilege_queued():
    """Node 2 of trees A and B asks; both PRIVILEGEs are queued on the one
    pump when A's token is declared lost.  The fence drops A's and only A's:
    B's still reaches B's node 2, and each tree ends with exactly one token."""
    transport = InMemoryTransport()
    a, b = started_trees(transport, 2)
    entered: list = []
    outcome = []

    def both_tokens_queued(_argument) -> None:
        queued = [
            (handler, agent.network, type(message))
            for handler, agent, _sender, message in transport._queue
        ]
        assert queued == [
            (AsyncDagNode._handle_privilege, a, Privilege),
            (AsyncDagNode._handle_privilege, b, Privilege),
        ]
        outcome.append(a.regenerate_token())

    def ask_both(_argument) -> None:
        a.nodes[2].acquire_then(lambda node_id: entered.append(("a", node_id)))
        b.nodes[2].acquire_then(lambda node_id: entered.append(("b", node_id)))
        transport.post(both_tokens_queued, None)  # behind both REQUESTs

    transport.post(ask_both, None)
    assert outcome == [{"new_holder": 2, "granted_immediately": True, "reissued": 0}]
    assert entered == [("a", 2), ("b", 2)] and not transport._queue
    for tree in (a, b):
        assert [n for n, node in tree.nodes.items() if node.has_token()] == [2]
    assert transport.messages_sent == 4  # two REQUESTs, two PRIVILEGEs sent


def test_a_raising_handler_in_one_tree_does_not_strand_another_trees_calls():
    transport = InMemoryTransport()
    a, b = started_trees(transport, 2)
    entered: list = []

    def poison_a_then_ask_b(_argument) -> None:
        a.send(2, 1, "not a protocol message")
        b.nodes[2].acquire_then(entered.append)

    with pytest.raises(ProtocolError, match="unexpected message"):
        transport.post(poison_a_then_ask_b, None)
    assert entered == [] and b.nodes[2].requesting  # B's REQUEST waits in the queue
    assert [entry[1] for entry in transport._queue] == [b.nodes[1]]
    assert queued_calls(transport) == [(AsyncDagNode._handle_request, 1, 2, Request)]
    transport.post(lambda _argument: None, None)  # the next post drains it
    assert entered == [2] and b.token_location() == 2
    a.nodes[3].acquire_then(entered.append)  # and A still answers
    assert entered == [2, 3] and a.token_location() == 3
