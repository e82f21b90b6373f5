"""Unit tests for the asyncio in-memory transport."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import RuntimeTransportError
from repro.runtime.transport import Envelope, InMemoryTransport

from .virtual_clock import VirtualClock


def run(coro):
    return asyncio.run(coro)


def test_register_and_send_immediate_delivery():
    async def scenario():
        transport = InMemoryTransport()
        inbox_a = transport.register(1)
        inbox_b = transport.register(2)
        transport.send(1, 2, "hello")
        envelope = await asyncio.wait_for(inbox_b.get(), timeout=1.0)
        assert envelope == Envelope(sender=1, receiver=2, message="hello")
        assert inbox_a.empty()
        assert transport.messages_sent == 1

    run(scenario())


def test_duplicate_registration_rejected():
    async def scenario():
        transport = InMemoryTransport()
        transport.register(1)
        with pytest.raises(RuntimeTransportError, match="already registered"):
            transport.register(1)

    run(scenario())


def test_unknown_endpoints_rejected():
    async def scenario():
        transport = InMemoryTransport()
        transport.register(1)
        with pytest.raises(RuntimeTransportError):
            transport.send(1, 9, "x")
        with pytest.raises(RuntimeTransportError):
            transport.send(9, 1, "x")

    run(scenario())


def test_fifo_order_without_delay():
    async def scenario():
        transport = InMemoryTransport()
        transport.register(1)
        inbox = transport.register(2)
        for index in range(20):
            transport.send(1, 2, index)
        received = [await inbox.get() for _ in range(20)]
        assert [envelope.message for envelope in received] == list(range(20))

    run(scenario())


def test_fifo_order_with_delay():
    async def scenario():
        transport = InMemoryTransport(delay=lambda sender, receiver: 0.001)
        transport.register(1)
        inbox = transport.register(2)
        for index in range(10):
            transport.send(1, 2, index)
        received = [await asyncio.wait_for(inbox.get(), timeout=2.0) for _ in range(10)]
        assert [envelope.message for envelope in received] == list(range(10))
        await transport.close()

    run(scenario())


def test_closed_transport_rejects_sends():
    async def scenario():
        transport = InMemoryTransport()
        transport.register(1)
        transport.register(2)
        await transport.close()
        with pytest.raises(RuntimeTransportError):
            transport.send(1, 2, "late")

    run(scenario())


def test_only_accepted_messages_are_counted():
    async def scenario():
        transport = InMemoryTransport()
        transport.register(1, lambda envelope: None)
        transport.register(2, lambda envelope: None)
        transport.send(1, 2, "counted")
        with pytest.raises(RuntimeTransportError):
            transport.send(1, 9, "to nobody")
        with pytest.raises(RuntimeTransportError):
            transport.send(9, 1, "from nobody")
        await transport.close()
        with pytest.raises(RuntimeTransportError):
            transport.send(2, 1, "too late")
        assert transport.messages_sent == 1

    run(scenario())


def test_close_drops_what_is_still_delayed():
    async def scenario():
        clock = VirtualClock()
        transport = InMemoryTransport(delay=lambda sender, receiver: 1.0)
        heard = []
        transport.register(1, heard.append)
        transport.register(2, heard.append)
        transport.send(1, 2, "in flight")
        transport.send(2, 1, "in flight too")
        await clock.advance(0.5)
        await transport.close()
        await clock.advance(5.0)
        assert heard == []

    run(scenario())


def test_node_ids_listed():
    async def scenario():
        transport = InMemoryTransport()
        transport.register(3)
        transport.register(7)
        assert transport.node_ids == [3, 7]

    run(scenario())


# --------------------------------------------------------------------------- #
# handlers: one mailbox, run to completion
# --------------------------------------------------------------------------- #
def test_a_handler_is_called_before_send_returns_and_an_inbox_is_just_a_handler():
    transport = InMemoryTransport()
    seen = []
    assert transport.register(1, seen.append) is None
    inbox = transport.register(2)
    transport.send(2, 1, "to the handler")
    assert seen == [Envelope(2, 1, "to the handler")]
    transport.send(1, 2, "to the inbox")
    assert inbox.get_nowait() == Envelope(1, 2, "to the inbox")


def test_a_send_from_inside_a_handler_waits_for_that_handler_to_finish():
    """Node 1 answers every envelope with two sends to node 2 and one to
    itself; nothing it sends may be handled before it returns, and every
    channel must still deliver in the order it was sent on."""
    transport = InMemoryTransport()
    log = []

    def node_1(envelope):
        log.append(("1 begins", envelope.message))
        if envelope.sender == 0:
            transport.send(1, 2, envelope.message + ".a")
            transport.send(1, 1, envelope.message + ".self")
            transport.send(1, 2, envelope.message + ".b")
        log.append(("1 ends", envelope.message))

    transport.register(0, log.append)
    transport.register(1, node_1)
    transport.register(2, lambda envelope: log.append(("2", envelope.message)))
    transport.send(0, 1, "x")
    transport.send(0, 1, "y")
    assert log == [
        ("1 begins", "x"), ("1 ends", "x"),
        ("2", "x.a"), ("1 begins", "x.self"), ("1 ends", "x.self"), ("2", "x.b"),
        ("1 begins", "y"), ("1 ends", "y"),
        ("2", "y.a"), ("1 begins", "y.self"), ("1 ends", "y.self"), ("2", "y.b"),
    ]
    assert transport.messages_sent == 8


def test_a_long_chain_of_sends_does_not_grow_the_stack():
    transport = InMemoryTransport()
    hops = []

    def forward(envelope):
        hops.append(envelope.message)
        if envelope.message < 5000:
            transport.send(envelope.receiver, 3 - envelope.receiver, envelope.message + 1)

    transport.register(1, forward)
    transport.register(2, forward)
    transport.send(1, 2, 0)
    assert hops == list(range(5001))


def test_a_raising_handler_reaches_the_sender_and_nobody_goes_deaf():
    """The exception surfaces in the send that started the drain, the drain
    stops there, and what was queued behind it goes out — in order, ahead of
    anything newer — with the next send."""
    transport = InMemoryTransport()
    heard = []

    def fragile(envelope):
        if envelope.message == "burst":
            transport.send(1, 2, "first")
            transport.send(1, 1, "poison")
            transport.send(1, 2, "second")
        elif envelope.message == "poison":
            raise ValueError("bad message")
        else:
            heard.append(envelope.message)

    transport.register(1, fragile)
    transport.register(2, lambda envelope: heard.append(envelope.message))
    with pytest.raises(ValueError, match="bad message"):
        transport.send(2, 1, "burst")
    assert heard == ["first"]  # the drain stopped at the poison
    transport.send(2, 1, "still listening")  # not refused as a nested send
    assert heard == ["first", "second", "still listening"]


def test_concurrent_senders_keep_each_channel_in_order_under_uneven_delays():
    """Three tasks send to one receiver, interleaved, each channel with its
    own delays: channels overtake one another, messages within one never do."""

    async def scenario():
        clock = VirtualClock()
        delays = {1: iter([3.0, 0.1] * 3), 2: iter([0.5] * 6), 3: iter([2.0, 0.2, 1.0] * 2)}
        transport = InMemoryTransport(delay=lambda sender, receiver: next(delays[sender]))
        heard = []
        transport.register(0, heard.append)

        async def sender(node_id):
            for index in range(6):
                transport.send(node_id, 0, (node_id, index))
                await asyncio.sleep(0)

        for node_id in (1, 2, 3):
            transport.register(node_id, heard.append)
        await asyncio.gather(*(sender(node_id) for node_id in (1, 2, 3)))
        for _ in range(10):
            await clock.advance(1.0)
        assert len(heard) == 18
        arrived = [envelope.message for envelope in heard]
        for node_id in (1, 2, 3):
            assert [m for m in arrived if m[0] == node_id] == [(node_id, i) for i in range(6)]
        assert arrived.index((2, 5)) < arrived.index((1, 0))  # 2 overtook 1
        await transport.close()

    run(scenario())


# --------------------------------------------------------------------------- #
# the recovery fence
# --------------------------------------------------------------------------- #
def test_fence_drops_what_is_queued_for_live_nodes_only():
    transport = InMemoryTransport()
    heard = []

    def node_1(envelope):
        if envelope.message == "go":
            transport.send(1, 2, "for the live node")
            transport.send(1, 3, "for the crashed node")
            transport.fence(frozenset({3}))
        heard.append((1, envelope.message))

    transport.register(1, node_1)
    transport.register(2, lambda envelope: heard.append((2, envelope.message)))
    transport.register(3, lambda envelope: heard.append((3, envelope.message)))
    transport.send(2, 1, "go")
    assert heard == [(1, "go"), (3, "for the crashed node")]


def test_fence_drops_delayed_envelopes_and_the_channel_still_works():
    async def scenario():
        clock = VirtualClock()
        transport = InMemoryTransport(delay=lambda sender, receiver: 1.0)
        heard = []
        for node_id in (1, 2, 3):
            transport.register(node_id, heard.append)
        transport.send(1, 2, "stale")
        transport.send(1, 2, "stale too")
        transport.send(1, 3, "bound for a crashed node")
        await clock.advance(0.5)
        transport.fence(frozenset({3}))
        transport.send(1, 2, "fresh")
        await clock.advance(0.6)
        assert [envelope.message for envelope in heard] == ["bound for a crashed node"]
        await clock.advance(0.5)
        assert [envelope.message for envelope in heard][1:] == ["fresh"]
        await transport.close()

    run(scenario())


def test_delayed_envelopes_are_in_flight_together_and_stay_in_order():
    """Delay is per envelope from its own send, not queued behind the one
    before; an envelope with a shorter delay still never overtakes."""

    async def scenario():
        clock = VirtualClock()
        delays = iter([3.0, 1.0, 1.0])
        transport = InMemoryTransport(delay=lambda sender, receiver: next(delays))
        heard = []
        transport.register(1, heard.append)
        transport.register(2, heard.append)
        for index in range(3):
            transport.send(1, 2, index)
        await clock.advance(2.0)
        assert heard == []  # the 1-second ones wait behind the 3-second one
        await clock.advance(1.0)
        assert [envelope.message for envelope in heard] == [0, 1, 2]
        await transport.close()

    run(scenario())


def test_fence_keeps_queued_calls_that_are_not_envelopes():
    """Only envelopes are messages in flight; a plain queued call is not
    something the fence may drop."""
    transport = InMemoryTransport()
    heard = []

    def node_1(envelope):
        transport.send(1, 2, "dropped")
        transport.post(heard.append, "a plain call")
        transport.fence()

    transport.register(1, node_1)
    transport.register(2, heard.append)
    transport.send(2, 1, "go")
    assert heard == ["a plain call"]
