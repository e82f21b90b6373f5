"""Unit tests for the asyncio protocol node."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.messages import Privilege, Request
from repro.exceptions import LockError, ProtocolError
from repro.runtime.cluster import LocalCluster
from repro.runtime.node_runtime import AsyncDagNode
from repro.topology import star


def run(coro):
    return asyncio.run(coro)


def test_constructor_validates_holder_consistency():
    async def scenario():
        tree = LocalCluster(star(2))
        with pytest.raises(ProtocolError):
            AsyncDagNode(1, tree, holding=True, next_node=2)
        with pytest.raises(ProtocolError):
            AsyncDagNode(2, tree, holding=False, next_node=None)

    run(scenario())


def test_acquire_requires_started_node():
    async def scenario():
        node = LocalCluster(star(1)).node(1)
        with pytest.raises(LockError):
            await node.acquire()

    run(scenario())


def test_holder_acquires_without_messages():
    async def scenario():
        tree = LocalCluster(star(1))
        node = tree.node(1)
        node.start()
        await node.acquire()
        assert node.in_critical_section
        assert tree.transport.messages_sent == 0
        await node.release()
        assert node.holding
        await node.stop()

    run(scenario())


def test_double_acquire_rejected():
    async def scenario():
        node = LocalCluster(star(1)).node(1)
        node.start()
        await node.acquire()
        with pytest.raises(LockError):
            await node.acquire()
        await node.stop()

    run(scenario())


def test_release_without_acquire_rejected():
    async def scenario():
        node = LocalCluster(star(1)).node(1)
        node.start()
        with pytest.raises(LockError):
            await node.release()
        await node.stop()

    run(scenario())


def test_request_and_privilege_roundtrip_between_two_nodes():
    async def scenario():
        holder, requester = LocalCluster(star(2)).nodes.values()  # 2 -> 1, 1 holds
        holder.start()
        requester.start()
        await requester.acquire()
        assert requester.in_critical_section
        assert not holder.holding
        assert holder.next_node == 2  # edge reversed toward the new sink
        await requester.release()
        assert requester.holding
        await holder.stop()
        await requester.stop()

    run(scenario())


def test_follow_chain_through_release():
    async def scenario():
        holder, second, third = LocalCluster(star(3)).nodes.values()  # 2, 3 -> 1, 1 holds
        for node in (holder, second, third):
            node.start()
        await holder.acquire()
        # Two waiters queue up behind the executing holder.
        second_task = asyncio.create_task(second.acquire())
        await asyncio.sleep(0)  # the task runs up to its wait point
        third_task = asyncio.create_task(third.acquire())
        await asyncio.sleep(0)  # the task runs up to its wait point
        await holder.release()
        await asyncio.wait_for(second_task, timeout=1.0)
        assert second.in_critical_section
        assert not third.in_critical_section
        await second.release()
        await asyncio.wait_for(third_task, timeout=1.0)
        assert third.in_critical_section
        await third.release()
        for node in (holder, second, third):
            await node.stop()

    run(scenario())


def test_unexpected_privilege_raises():
    async def scenario():
        node = LocalCluster(star(1)).node(1)
        with pytest.raises(ProtocolError):
            node.on_message(2, Privilege())

    run(scenario())


def test_repr_mentions_variables():
    async def scenario():
        node = LocalCluster(star(4, token_holder=4)).node(4)
        assert "id=4" in repr(node)
        assert "HOLDING=True" in repr(node)

    run(scenario())


def test_a_node_at_rest_owns_no_task_no_queue_and_no_event():
    async def scenario():
        before = len(asyncio.all_tasks())
        node = LocalCluster(star(1)).node(1)
        node.start()
        assert len(asyncio.all_tasks()) == before
        assert not hasattr(node, "__dict__")  # slots all the way down
        held = [
            type(getattr(node, name))
            for cls in type(node).__mro__
            for name in getattr(cls, "__slots__", ())
        ]
        assert len(held) == 11 and not any(
            issubclass(kind, (asyncio.Queue, asyncio.Event, asyncio.Future)) for kind in held
        )

    run(scenario())


def test_acquire_then_calls_back_from_the_releasers_stack():
    tree = LocalCluster(star(2))
    holder, waiter = tree.nodes.values()
    holder.start()
    waiter.start()
    entered = []
    holder.acquire_then(entered.append)
    assert entered == [1] and tree.transport.messages_sent == 0
    waiter.acquire_then(entered.append)
    assert entered == [1] and holder.follow == 2  # the REQUEST is already there
    with pytest.raises(LockError):
        waiter.acquire_then(entered.append)
    holder.release_cs()
    assert entered == [1, 2] and waiter.in_critical_section


def test_a_bad_message_reaches_its_sender_and_the_node_keeps_listening():
    """Under the consumer task a ProtocolError killed the task, unretrieved,
    and the node never heard another message."""
    tree = LocalCluster(star(2))
    holder, other = tree.nodes.values()
    other.start()
    with pytest.raises(ProtocolError, match="unexpected message"):
        tree.send(2, 1, "not a protocol message")
    with pytest.raises(ProtocolError, match="without an outstanding request"):
        tree.send(2, 1, Privilege())
    entered = []
    other.acquire_then(entered.append)
    assert entered == [2] and not holder.holding


def test_a_stopped_node_drops_what_it_is_sent():
    async def scenario():
        tree = LocalCluster(star(2))
        holder, requester = tree.nodes.values()
        requester.start()
        await holder.stop()
        tree.send(2, 1, "not even looked at")
        entered = []
        requester.acquire_then(entered.append)
        assert tree.transport.messages_sent == 2 and entered == []
        assert holder.holding and holder.next_node is None  # the REQUEST changed nothing

    run(scenario())


def test_a_grant_after_the_waiter_gave_up_is_not_an_error():
    """At the parent the unwanted grant left node 2 inside its critical
    section with no handle holding it: node 3 starved and lock 2 could
    neither release ("not held") nor acquire ("already holds or awaits")."""
    async def scenario():
        async with LocalCluster(star(3)) as cluster:
            await cluster.node(1).acquire()
            lock = cluster.lock(2)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(lock.acquire(), 0.01)
            assert not lock.held and cluster.node(2).requesting
            await cluster.node(1).release()  # grants node 2, where nobody waits
            node = cluster.node(2)
            assert not node.in_critical_section and not node.requesting
            async with cluster.lock(3):
                assert cluster.node(3).in_critical_section
            await asyncio.wait_for(lock.acquire(), 0.5)  # the handle is reusable
            assert lock.held and node.in_critical_section
            await lock.release()

    run(scenario())


def test_a_grant_that_races_the_cancel_is_handed_back_at_once():
    async def scenario():
        async with LocalCluster(star(3)) as cluster:
            await cluster.node(1).acquire()
            waiter = asyncio.ensure_future(cluster.node(2).acquire())
            await asyncio.sleep(0)  # the REQUEST is out, the waiter parked
            await cluster.node(1).release()  # the grant lands before the waiter wakes...
            waiter.cancel()  # ...and so does the cancel
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert not cluster.node(2).in_critical_section
            async with cluster.lock(3):
                assert cluster.node(3).in_critical_section

    run(scenario())
