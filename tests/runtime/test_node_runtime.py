"""Unit tests for the asyncio protocol node."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.messages import Privilege, Request
from repro.exceptions import LockError, ProtocolError
from repro.runtime.node_runtime import AsyncDagNode
from repro.runtime.transport import InMemoryTransport


def run(coro):
    return asyncio.run(coro)


def test_constructor_validates_holder_consistency():
    async def scenario():
        transport = InMemoryTransport()
        with pytest.raises(ProtocolError):
            AsyncDagNode(1, transport, holding=True, next_node=2)
        with pytest.raises(ProtocolError):
            AsyncDagNode(2, transport, holding=False, next_node=None)

    run(scenario())


def test_acquire_requires_started_node():
    async def scenario():
        transport = InMemoryTransport()
        node = AsyncDagNode(1, transport, holding=True, next_node=None)
        with pytest.raises(LockError):
            await node.acquire()

    run(scenario())


def test_holder_acquires_without_messages():
    async def scenario():
        transport = InMemoryTransport()
        node = AsyncDagNode(1, transport, holding=True, next_node=None)
        node.start()
        await node.acquire()
        assert node.in_critical_section
        assert transport.messages_sent == 0
        await node.release()
        assert node.holding
        await node.stop()

    run(scenario())


def test_double_acquire_rejected():
    async def scenario():
        transport = InMemoryTransport()
        node = AsyncDagNode(1, transport, holding=True, next_node=None)
        node.start()
        await node.acquire()
        with pytest.raises(LockError):
            await node.acquire()
        await node.stop()

    run(scenario())


def test_release_without_acquire_rejected():
    async def scenario():
        transport = InMemoryTransport()
        node = AsyncDagNode(1, transport, holding=True, next_node=None)
        node.start()
        with pytest.raises(LockError):
            await node.release()
        await node.stop()

    run(scenario())


def test_request_and_privilege_roundtrip_between_two_nodes():
    async def scenario():
        transport = InMemoryTransport()
        holder = AsyncDagNode(1, transport, holding=True, next_node=None)
        requester = AsyncDagNode(2, transport, holding=False, next_node=1)
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
        transport = InMemoryTransport()
        holder = AsyncDagNode(1, transport, holding=True, next_node=None)
        second = AsyncDagNode(2, transport, holding=False, next_node=1)
        third = AsyncDagNode(3, transport, holding=False, next_node=1)
        for node in (holder, second, third):
            node.start()
        await holder.acquire()
        # Two waiters queue up behind the executing holder.
        second_task = asyncio.create_task(second.acquire())
        await asyncio.sleep(0.01)
        third_task = asyncio.create_task(third.acquire())
        await asyncio.sleep(0.01)
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
        transport = InMemoryTransport()
        node = AsyncDagNode(1, transport, holding=True, next_node=None)
        with pytest.raises(ProtocolError):
            node.on_message(2, Privilege())

    run(scenario())


def test_repr_mentions_variables():
    async def scenario():
        transport = InMemoryTransport()
        node = AsyncDagNode(4, transport, holding=True, next_node=None)
        assert "id=4" in repr(node)
        assert "HOLDING=True" in repr(node)

    run(scenario())
