"""Unit tests for the socket transport: framing, codec, reconnect, shutdown."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.messages import Privilege, Request
from repro.exceptions import RuntimeTransportError
from repro.runtime import AsyncDagNode, LocalCluster, SocketTransport
from repro.runtime.transport import Envelope
from repro.runtime.transport_socket import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameProtocol,
    decode_body,
    decode_envelope,
    decode_message,
    encode_envelope,
    encode_frame,
    encode_message,
    read_frame,
)
from repro.topology import star


def run(coro):
    return asyncio.run(coro)


def feed_reader(*chunks: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
def test_frame_round_trip():
    async def scenario():
        payloads = [{"op": "acquire", "key": "a", "id": 1}, {"x": [1, 2, {"y": None}]}]
        reader = feed_reader(*(encode_frame(p) for p in payloads))
        assert await read_frame(reader) == payloads[0]
        assert await read_frame(reader) == payloads[1]
        assert await read_frame(reader) is None  # clean EOF at a boundary

    run(scenario())


def test_read_frame_rejects_truncation_and_garbage():
    async def scenario():
        # Closed mid-header.
        with pytest.raises(RuntimeTransportError, match="mid-header"):
            await read_frame(feed_reader(b"\x00\x00"))
        # Closed mid-frame.
        frame = encode_frame({"a": 1})
        with pytest.raises(RuntimeTransportError, match="mid-frame"):
            await read_frame(feed_reader(frame[:-2]))
        # Oversized announced length.
        with pytest.raises(RuntimeTransportError, match="limit"):
            await read_frame(feed_reader(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)))
        # Valid length, invalid JSON.
        with pytest.raises(RuntimeTransportError, match="undecodable"):
            await read_frame(feed_reader(FRAME_HEADER.pack(4) + b"!!!!"))
        # JSON but not an object: "[" is not a frame kind.
        with pytest.raises(RuntimeTransportError, match="unknown frame kind"):
            await read_frame(feed_reader(FRAME_HEADER.pack(2) + b"[]"))

    run(scenario())


def test_encode_frame_rejects_oversized_payload():
    with pytest.raises(RuntimeTransportError, match="exceeds"):
        encode_frame({"blob": "x" * MAX_FRAME_BYTES})


def test_encode_frame_bytes_are_pinned():
    """One uncontended lock op on the wire — acquire, grant, release, ack —
    byte for byte: 4 packed frames, 172 bytes (``codec.frames_per_op`` /
    ``codec.bytes_per_op`` in ``perf/``).  Kind byte, big-endian signed
    64-bit integers, unsigned 16-bit tail lengths, then the UTF-8 tails."""
    zero, uid = b"\x00" * 8, b"1a2b-9f3c01d2:4821"
    session = b"\x00\x00\x00\x00\x00\x00\x00%"  # 37
    quartet = {
        b"\x00\x00\x000a" + session + zero + b"\x00\x08\x00\x13lock-517" + uid + b"3": {
            "op": "acquire", "key": "lock-517", "session": 37, "epoch": 0,
            "id": "1a2b-9f3c01d2:48213",
        },
        b"\x00\x00\x00\x1eg" + zero + b"\x00\x13" + uid + b"3": {
            "ok": True, "epoch": 0, "id": "1a2b-9f3c01d2:48213",
        },
        b"\x00\x00\x008r" + session + zero + zero + b"\x00\x08\x00\x13lock-517" + uid + b"4": {
            "op": "release", "key": "lock-517", "session": 37, "grant_epoch": 0, "epoch": 0,
            "id": "1a2b-9f3c01d2:48214",
        },
        b"\x00\x00\x00\x16k\x00\x13" + uid + b"4": {
            "ok": True, "id": "1a2b-9f3c01d2:48214",
        },
    }
    for wire, payload in quartet.items():
        assert encode_frame(payload) == wire
        assert decode_body(wire[4:]) == payload
    assert sum(len(wire) for wire in quartet) == 172
    # Negative integers and non-ASCII tails are inside the layouts.
    assert encode_frame({"id": "cl\u00e9", "ok": True, "epoch": -2}) == (
        b"\x00\x00\x00\x0fg\xff\xff\xff\xff\xff\xff\xff\xfe\x00\x04cl\xc3\xa9"
    )


def test_every_other_frame_is_the_json_text_it_always_was():
    """The control plane, every refusal and the peer envelopes, byte for byte
    as before the packed layouts: readable off a socket dump.  The encoder is
    built once at import; its output must not depend on that."""
    view = {"epoch": 1, "shards": {"0": "/tmp/s0.sock"}}
    pinned = {
        b'\x00\x00\x00\x19{"op":"stats","id":"c:1"}': {"op": "stats", "id": "c:1"},
        b'\x00\x00\x00\x18{"op":"view","id":"c:2"}': {"op": "view", "id": "c:2"},
        b'\x00\x00\x00){"op":"cancel","target":"c:9","id":"c:3"}': {
            "op": "cancel", "target": "c:9", "id": "c:3",
        },
        b'\x00\x00\x00\x18{"op":"shutdown","id":0}': {"op": "shutdown", "id": 0},
        b'\x00\x00\x00={"id":"c:4","ok":false,"error":"session 3 does not hold \'k\'"}': {
            "id": "c:4", "ok": False, "error": "session 3 does not hold 'k'",
        },
        b'\x00\x00\x00m{"ok":false,"code":"wrong-shard","error":"moved",'
        b'"view":{"epoch":1,"shards":{"0":"/tmp/s0.sock"}},"id":"c:5"}': {
            "ok": False, "code": "wrong-shard", "error": "moved", "view": view, "id": "c:5",
        },
        b'\x00\x00\x00({"id":"c:6","ok":true,"cancelled":false}': {
            "id": "c:6", "ok": True, "cancelled": False,
        },
        # A release whose grant epoch the client never learned has five keys,
        # like an acquire, and is not one of the four shapes.
        b'\x00\x00\x00;{"op":"release","key":"k","session":3,"epoch":0,"id":"c:7"}': {
            "op": "release", "key": "k", "session": 3, "epoch": 0, "id": "c:7",
        },
        # Non-ASCII stays escaped, None/float/nesting as json.dumps writes them.
        b'\x00\x00\x00-{"key":"cl\\u00e9","x":[1.5,null,{"y":false}]}': {
            "key": "cl\u00e9", "x": [1.5, None, {"y": False}],
        },
    }
    for wire, payload in pinned.items():
        assert encode_frame(payload) == wire
        assert decode_body(wire[4:]) == payload
    envelope = Envelope(sender=2, receiver=5, message=Request(sender=2, origin=2))
    assert encode_envelope(envelope) == (
        b'\x00\x00\x00L{"sender":2,"receiver":5,'
        b'"message":{"sender":2,"origin":2,"type":"request"}}'
    )


# --------------------------------------------------------------------------- #
# the frame protocol, driven on a fake transport
# --------------------------------------------------------------------------- #
class RecordingTransport:
    """The transport methods a FrameProtocol uses, recorded."""

    def __init__(self) -> None:
        self.writes = []
        self.closing = False
        self.aborted = False
        self.reading = True

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    def abort(self) -> None:
        self.closing = self.aborted = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


class Wired:
    """A FrameProtocol on a RecordingTransport, its callbacks recorded."""

    def __init__(self, on_frame=None) -> None:
        self.frames = []
        self.closes = []
        self.transport = RecordingTransport()
        self.proto = FrameProtocol(on_frame or self.frames.append, self.closes.append)
        self.proto.connection_made(self.transport)

    def feed(self, *chunks: bytes) -> "Wired":
        for chunk in chunks:
            self.proto.data_received(chunk)
        return self


THREE = [{"op": "acquire", "key": "cl\u00e9", "id": 1}, {"x": [1, 2, {"y": None}]}, {}]


def test_protocol_cuts_the_same_frames_however_the_bytes_arrive():
    async def scenario():
        wire = b"".join(encode_frame(payload) for payload in THREE)
        assert Wired().feed(wire).frames == THREE
        for split in range(1, len(wire)):
            assert Wired().feed(wire[:split], wire[split:]).frames == THREE, split
        wired = Wired().feed(*(wire[i : i + 1] for i in range(len(wire))))
        assert wired.frames == THREE
        # Nothing is left over, so the peer's EOF is a clean one.
        assert wired.closes == []
        wired.proto.eof_received()
        assert wired.closes == [None] and wired.transport.closing
        wired.proto.connection_lost(None)
        assert wired.closes == [None]  # told once

    run(scenario())


@pytest.mark.parametrize(
    "bad, reason",
    [
        (FRAME_HEADER.pack(MAX_FRAME_BYTES + 1), "limit"),
        (FRAME_HEADER.pack(4) + b"!!!!", "undecodable"),
        (FRAME_HEADER.pack(2) + b"\xff\xfe", "undecodable"),
        (FRAME_HEADER.pack(2) + b"[]", "unknown frame kind"),
        (FRAME_HEADER.pack(5) + b"{}{} ", "after the JSON value"),
    ],
)
def test_protocol_rejects_a_bad_frame_and_delivers_nothing_after_it(bad, reason):
    async def scenario():
        good = encode_frame({"id": 1})
        wired = Wired().feed(good + bad + good, good)
        assert wired.frames == [{"id": 1}]
        (error,) = wired.closes
        assert isinstance(error, RuntimeTransportError) and reason in str(error)
        assert wired.transport.closing and not wired.transport.aborted
        assert wired.proto.is_closing()
        wired.proto.connection_lost(None)
        assert wired.closes == [error]

    run(scenario())


def test_protocol_rejects_eof_inside_a_frame():
    async def scenario():
        good = encode_frame({"id": 1})
        for held in (good[:2], good[:-1]):  # inside the header, inside the body
            wired = Wired().feed(good + held)
            wired.proto.eof_received()
            assert wired.frames == [{"id": 1}]
            (error,) = wired.closes
            assert isinstance(error, RuntimeTransportError) and "mid-frame" in str(error)
            assert wired.transport.closing

    run(scenario())


def test_a_frame_body_is_exactly_one_json_object():
    """``raw_decode`` plus an end check, pinned: whitespace inside the value
    is JSON's business, whitespace or bytes around it are not a frame."""
    assert decode_body(b'{ "a" : [ 1 , 2 ] }') == {"a": [1, 2]}
    for body in (b' {"a":1}', b'{"a":1} ', b'{"a":1}\n', b'{"a":1}{"b":2}', b'{"a":1}x', b""):
        with pytest.raises(RuntimeTransportError, match="undecodable"):
            decode_body(body)


def test_a_handler_that_refuses_a_frame_closes_the_connection():
    async def scenario():
        def refuse(payload):
            raise RuntimeTransportError(f"not for me: {payload}")

        wired = Wired(refuse).feed(encode_frame({"id": 1}) * 2)
        (error,) = wired.closes
        assert "not for me" in str(error) and wired.transport.closing

    run(scenario())


def test_a_local_close_stops_delivery_within_the_chunk():
    async def scenario():
        wired = Wired(lambda payload: (wired.frames.append(payload), wired.proto.close()))
        wired.feed(encode_frame({"id": 1}) + encode_frame({"id": 2}))
        assert wired.frames == [{"id": 1}] and wired.closes == [None]

    run(scenario())


def test_protocol_flushes_one_pass_with_one_write():
    async def scenario():
        wired = Wired()
        proto, transport = wired.proto, wired.transport
        payloads = [{"id": index, "ok": True} for index in range(7)]
        for payload in payloads:
            proto.send(payload)
        assert transport.writes == []  # nothing leaves before the pass ends
        await asyncio.sleep(0)
        assert transport.writes == [b"".join(encode_frame(p) for p in payloads)]
        # The next pass is its own write; an explicit flush does not wait
        # for the pass to end, and the flush it pre-empted writes nothing.
        proto.send({"id": 7})
        proto.flush()
        assert transport.writes[1:] == [encode_frame({"id": 7})]
        await asyncio.sleep(0)
        assert len(transport.writes) == 2

    run(scenario())


def test_protocol_drops_frames_queued_on_a_closing_transport():
    async def scenario():
        wired = Wired()
        proto, transport = wired.proto, wired.transport
        proto.send({"id": 1})
        transport.closing = True  # the peer went away within the same pass
        proto.send({"id": 2})
        await asyncio.sleep(0)
        assert transport.writes == []
        proto.send({"id": 3})  # and later sends stay silent no-ops
        await asyncio.sleep(0)
        assert transport.writes == []

    run(scenario())


def test_a_full_write_buffer_pauses_reading_until_it_drains():
    async def scenario():
        wired = Wired()
        wired.proto.pause_writing()  # asyncio: the buffer passed its high-water mark
        assert not wired.transport.reading
        wired.proto.resume_writing()
        assert wired.transport.reading

    run(scenario())


# --------------------------------------------------------------------------- #
# protocol-message codec
# --------------------------------------------------------------------------- #
def test_message_codec_round_trip():
    request = decode_message(encode_message(Request(sender=3, origin=7)))
    assert isinstance(request, Request)
    assert (request.sender, request.origin) == (3, 7)
    assert isinstance(decode_message(encode_message(Privilege())), Privilege)


def test_message_codec_rejects_unknown_types():
    with pytest.raises(RuntimeTransportError, match="no wire codec"):
        encode_message(object())
    with pytest.raises(RuntimeTransportError, match="unknown wire message type"):
        decode_message({"type": "gossip"})


def test_envelope_round_trip_through_frame():
    async def scenario():
        envelope = Envelope(sender=2, receiver=5, message=Request(sender=2, origin=2))
        reader = feed_reader(encode_envelope(envelope))
        decoded = decode_envelope(await read_frame(reader))
        assert decoded.sender == 2 and decoded.receiver == 5
        assert decoded.message == Request(sender=2, origin=2)

    run(scenario())


def test_decode_envelope_rejects_malformed_payloads():
    with pytest.raises(RuntimeTransportError, match="malformed envelope"):
        decode_envelope({"sender": 1, "message": {"type": "privilege"}})


# --------------------------------------------------------------------------- #
# the transport itself (real unix sockets)
# --------------------------------------------------------------------------- #
@pytest.mark.network
def test_two_process_style_transports_exchange_messages(tmp_path):
    async def scenario():
        path_a = str(tmp_path / "a.sock")
        path_b = str(tmp_path / "b.sock")
        peers = {1: path_a, 2: path_b}
        a = SocketTransport(path_a, peers)
        b = SocketTransport(path_b, peers)
        inbox_1 = a.register(1)
        inbox_2 = b.register(2)
        await a.start()
        await b.start()
        try:
            a.send(1, 2, Request(sender=1, origin=1))
            b.send(2, 1, Privilege())
            got_2 = await asyncio.wait_for(inbox_2.get(), timeout=5)
            got_1 = await asyncio.wait_for(inbox_1.get(), timeout=5)
            assert got_2.message == Request(sender=1, origin=1)
            assert isinstance(got_1.message, Privilege)
            assert a.messages_sent == 1 and b.messages_sent == 1
        finally:
            await a.close()
            await b.close()

    run(scenario())


@pytest.mark.network
def test_local_sends_never_touch_the_socket(tmp_path):
    async def scenario():
        path = str(tmp_path / "only.sock")
        transport = SocketTransport(path, peers={1: path, 2: path})
        transport.register(1)
        inbox = transport.register(2)
        # No start(): local delivery must work without a bound socket.
        transport.send(1, 2, Privilege())
        envelope = inbox.get_nowait()
        assert isinstance(envelope.message, Privilege)
        # Remote sends without start() are refused loudly.
        transport._peers[3] = str(tmp_path / "other.sock")
        with pytest.raises(RuntimeTransportError, match="not started"):
            transport.send(1, 3, Privilege())
        await transport.close()

    run(scenario())


@pytest.mark.network
def test_concurrent_sends_preserve_per_channel_fifo(tmp_path):
    async def scenario():
        path_a = str(tmp_path / "a.sock")
        path_b = str(tmp_path / "b.sock")
        peers = {1: path_a, 2: path_b}
        a = SocketTransport(path_a, peers)
        b = SocketTransport(path_b, peers)
        a.register(1)
        inbox = b.register(2)
        await a.start()
        await b.start()
        try:
            total = 200
            for sequence in range(total):
                a.send(1, 2, Request(sender=1, origin=sequence))
            received = []
            for _ in range(total):
                envelope = await asyncio.wait_for(inbox.get(), timeout=10)
                received.append(envelope.message.origin)
            assert received == list(range(total))  # FIFO per channel
        finally:
            await a.close()
            await b.close()

    run(scenario())


@pytest.mark.network
def test_writer_reconnects_after_peer_restart(tmp_path):
    async def scenario():
        path_a = str(tmp_path / "a.sock")
        path_b = str(tmp_path / "b.sock")
        peers = {1: path_a, 2: path_b}
        a = SocketTransport(path_a, peers)
        b = SocketTransport(path_b, peers)
        a.register(1)
        inbox = b.register(2)
        await a.start()
        await b.start()
        try:
            a.send(1, 2, Request(sender=1, origin=0))
            first = await asyncio.wait_for(inbox.get(), timeout=5)
            assert first.message.origin == 0
            # Restart the receiving peer: same path, fresh server.
            await b.close()
            b = SocketTransport(path_b, peers)
            inbox = b.register(2)
            await b.start()
            # The writer task's connection is now dead; the next send must be
            # retried on a fresh connection (first write fails or the old
            # socket file was replaced — either path exercises reconnect).
            a.send(1, 2, Request(sender=1, origin=1))
            second = await asyncio.wait_for(inbox.get(), timeout=5)
            assert second.message.origin == 1
        finally:
            await a.close()
            await b.close()

    run(scenario())


@pytest.mark.network
def test_close_drains_queued_frames_before_teardown(tmp_path):
    async def scenario():
        path_a = str(tmp_path / "a.sock")
        path_b = str(tmp_path / "b.sock")
        peers = {1: path_a, 2: path_b}
        a = SocketTransport(path_a, peers)
        b = SocketTransport(path_b, peers)
        a.register(1)
        inbox = b.register(2)
        await a.start()
        await b.start()
        total = 50
        for sequence in range(total):
            a.send(1, 2, Request(sender=1, origin=sequence))
        # Close immediately: everything already accepted must still arrive.
        await a.close()
        received = []
        for _ in range(total):
            envelope = await asyncio.wait_for(inbox.get(), timeout=10)
            received.append(envelope.message.origin)
        assert received == list(range(total))
        await b.close()
        # And the closed transport refuses further work.
        with pytest.raises(RuntimeTransportError, match="closed"):
            a.send(1, 2, Privilege())

    run(scenario())


def test_register_rejects_duplicates_and_foreign_nodes(tmp_path):
    path = str(tmp_path / "a.sock")
    other = str(tmp_path / "b.sock")
    transport = SocketTransport(path, peers={1: path, 2: other})
    transport.register(1)
    with pytest.raises(RuntimeTransportError, match="already registered"):
        transport.register(1)
    with pytest.raises(RuntimeTransportError, match="mapped to peer address"):
        transport.register(2)


@pytest.mark.network
def test_dag_nodes_run_unchanged_across_two_socket_transports(tmp_path):
    """The tentpole contract: AsyncDagNode neither knows nor cares that its
    peers live behind a socket.  star(4) split across two transports, every
    node enters its critical section, exactly one token in the system."""

    async def scenario():
        path_a = str(tmp_path / "a.sock")
        path_b = str(tmp_path / "b.sock")
        topology = star(4)
        placement = {1: path_a, 2: path_a, 3: path_b, 4: path_b}
        a = SocketTransport(path_a, placement)
        b = SocketTransport(path_b, placement)
        pointers = topology.next_pointers()
        nodes = {}
        for node_id in topology.nodes:
            transport = a if placement[node_id] == path_a else b
            nodes[node_id] = AsyncDagNode(
                node_id,
                transport,
                holding=(node_id == topology.token_holder),
                next_node=pointers[node_id],
            )
        await a.start()
        await b.start()
        for node in nodes.values():
            node.start()
        try:
            in_cs = []

            async def exercise(node_id: int) -> None:
                node = nodes[node_id]
                await asyncio.wait_for(node.acquire(), timeout=10)
                in_cs.append(node_id)
                assert len(in_cs) == 1, f"mutual exclusion violated: {in_cs}"
                in_cs.remove(node_id)
                await node.release()

            await asyncio.gather(*(exercise(node_id) for node_id in topology.nodes))
            assert all(nodes[n].cs_entries == 1 for n in topology.nodes)
        finally:
            for node in nodes.values():
                await node.stop()
            await a.close()
            await b.close()

    run(scenario())


@pytest.mark.network
def test_local_cluster_accepts_a_prebuilt_socket_transport(tmp_path):
    async def scenario():
        path = str(tmp_path / "cluster.sock")
        topology = star(5)
        transport = SocketTransport(
            path, peers={node_id: path for node_id in topology.nodes}
        )
        await transport.start()
        async with LocalCluster(topology, transport=transport) as cluster:
            async with cluster.lock(4):
                assert cluster.token_location() == 4

    run(scenario())
