"""The client's half of a lock op: a grant or an ack reaches the caller as fields.

A packed grant resolves the op's future to its epoch and a packed ack to
``True``; only a refusal, or an answer whose fields did not pack, is a dict.
These tests hold what the client does with each: the epoch a grant carries is
the one its release packs, an acquire answered by an ack books the view's
epoch, and ``ok: false`` answers still drive the one retry loop's reroute and
fencing.  No socket: the connection's ``FrameProtocol`` sits on a recording
transport, or the client's connection is a stub that answers what it is told.
"""

from __future__ import annotations

import asyncio
from typing import Any, List

import pytest

from repro.exceptions import LockFencedError
from repro.runtime.failover import ClusterView
from repro.runtime.service import LockClient, _ClientConnection
from repro.runtime.transport_socket import (
    FRAME_HEADER,
    FrameProtocol,
    decode_body,
    encode_frame,
    pack_ack,
    pack_grant,
)

from .test_transport_socket import RecordingTransport


def run(coro):
    return asyncio.run(coro)


def test_a_packed_grant_or_ack_resolves_its_caller_to_a_field():
    async def scenario():
        conn = _ClientConnection("unused.sock")
        proto = FrameProtocol(conn._on_frame, conn._on_close, None, conn._on_answer)
        proto.connection_made(RecordingTransport())
        conn._proto = proto
        granted, acked, refused = (conn.send(f"op-{n}", b"") for n in range(3))
        refusal = {"ok": False, "code": "stale-shard", "error": "behind", "id": "op-2"}
        proto.data_received(pack_grant(7, "op-0") + pack_ack("op-1") + encode_frame(refusal))
        assert granted.result() == 7 and type(granted.result()) is int
        assert acked.result() is True
        assert refused.result() == refusal
        assert not conn._pending
        # A control call still returns the payload a bare ack stands for.
        answered = asyncio.ensure_future(conn.call("op-3", {"op": "shutdown", "id": "op-3"}))
        await asyncio.sleep(0)
        proto.data_received(pack_ack("op-3"))
        assert await answered == {"ok": True, "id": "op-3"}

    run(scenario())


class Stub:
    """A client connection that answers each op with the next scripted answer."""

    def __init__(self, *answers: Any) -> None:
        self.answers = list(answers)
        self.sent: List[dict] = []

    def send(self, uid, frame, timeout=None):
        self.sent.append(decode_body(frame[FRAME_HEADER.size :]))
        future = asyncio.get_running_loop().create_future()
        answer = self.answers.pop(0)
        future.set_result({**answer, "id": uid} if type(answer) is dict else answer)
        return future


def client_on(stub: Stub, epoch: int = 0) -> LockClient:
    client = LockClient(["/tmp/s.sock"])
    client._view = ClusterView(epoch=epoch, shards={0: "/tmp/s.sock"})

    async def stub_connection(shard, channel):
        return stub

    client._connection = stub_connection
    return client


@pytest.mark.parametrize(
    "answer, booked", [(5, 5), (True, 3), ({"ok": True, "epoch": 2**63}, 2**63)],
    ids=["packed grant", "ack", "json grant"],
)
def test_the_epoch_an_acquire_is_answered_with_is_what_its_release_packs(answer, booked):
    """A packed grant's epoch, the view's epoch (3) for an acquire answered
    by an ack — as the echo stub answers — and a JSON grant's epoch."""

    async def scenario():
        stub = Stub(answer, True)
        client = client_on(stub, epoch=3)
        await client.acquire("k", session=1)
        assert client._grants[(1, "k")] == booked
        await client.release("k", session=1)
        assert not client._grants
        return stub.sent

    acquired, released = run(scenario())
    assert acquired["op"] == "acquire" and acquired["epoch"] == 3
    assert released["op"] == "release" and released["grant_epoch"] == booked


def test_refusals_still_drive_the_reroute_and_the_fence():
    async def scenario():
        moved = ClusterView(epoch=4, shards={0: "/tmp/s.sock"}).to_dict()
        fenced = {"ok": False, "code": "fenced", "error": "grant was fenced"}
        stub = Stub({"ok": False, "code": "wrong-shard", "error": "moved", "view": moved}, 9,
                    fenced)
        client = client_on(stub, epoch=1)
        await client.acquire("k", session=1)
        assert client.retry_stats["reroutes"] == 1 and client._grants[(1, "k")] == 9
        with pytest.raises(LockFencedError, match="grant was fenced"):
            await client.release("k", session=1)
        assert client.retry_stats["fenced"] == 1 and not client._grants
        return stub.sent

    first, rerouted, release = run(scenario())
    assert (first["epoch"], rerouted["epoch"]) == (1, 4) and first["id"] == rerouted["id"]
    assert release["grant_epoch"] == 9 and release["epoch"] == 4
