"""Unit tests for the lock service's wire: the frame codec and FrameProtocol."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import RuntimeTransportError
from repro.runtime.transport_socket import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    RECONNECT_DELAY_INITIAL,
    RECONNECT_DELAY_MAX,
    FrameProtocol,
    backoff_delays,
    decode_body,
    encode_frame,
    normalise_address,
    open_frame_connection,
    read_frame,
    start_frame_server,
)


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
    """The control plane and every refusal, byte for byte as before the packed
    layouts: readable off a socket dump.  The encoder is built once at import;
    its output must not depend on that."""
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


def test_abort_drops_the_connection_and_reports_once():
    async def scenario():
        wired = Wired()
        wired.proto.send({"id": 1})
        wired.proto.abort()
        assert wired.transport.aborted and wired.closes == [None]
        assert wired.proto.is_closing()
        await asyncio.sleep(0)  # the pass's flush finds the transport closing
        assert wired.transport.writes == []
        wired.proto.connection_lost(None)
        assert wired.closes == [None]

    run(scenario())


def test_a_closed_protocol_delivers_nothing_more():
    async def scenario():
        wired = Wired().feed(encode_frame({"id": 1}))
        wired.proto.close()
        wired.feed(encode_frame({"id": 2}), encode_frame({"id": 3}))
        assert wired.frames == [{"id": 1}] and wired.closes == [None]

    run(scenario())


# --------------------------------------------------------------------------- #
# addresses and backoff
# --------------------------------------------------------------------------- #
def test_normalise_address_gives_one_hashable_form():
    """A view read back from JSON holds ``[host, port]`` lists; the tuple it
    normalises to must equal and hash like the address it started as."""
    assert normalise_address(["127.0.0.1", "9001"]) == ("127.0.0.1", 9001)
    assert normalise_address(("127.0.0.1", 9001)) == ("127.0.0.1", 9001)
    assert normalise_address("/tmp/s0.sock") == "/tmp/s0.sock"
    routes = {normalise_address(["h", 1]): "tcp", normalise_address("/p"): "unix"}
    assert routes[("h", 1)] == "tcp" and routes["/p"] == "unix"


def test_backoff_delays_double_up_to_the_cap():
    delays = backoff_delays(0.25, 3.0)
    assert [next(delays) for _ in range(7)] == [0.25, 0.5, 1.0, 2.0, 3.0, 3.0, 3.0]
    defaults = backoff_delays()
    first = [next(defaults) for _ in range(12)]
    assert first[0] == RECONNECT_DELAY_INITIAL and first[-1] == RECONNECT_DELAY_MAX
    assert all(a <= b for a, b in zip(first, first[1:]))


# --------------------------------------------------------------------------- #
# framed peers on real sockets
# --------------------------------------------------------------------------- #
async def _echo_round_trip(address):
    """Serve an echo on ``address``; a client sends a burst and hangs up.
    Returns (bound address, frames the client got back, the two on_close
    arguments: server's, client's)."""
    server_closed, client_closed, echoed = [], [], []
    loop = asyncio.get_running_loop()
    done, hung_up = loop.create_future(), loop.create_future()

    def on_server_close(error):
        server_closed.append(error)
        hung_up.set_result(None)

    def accept() -> FrameProtocol:
        proto = FrameProtocol(lambda payload: proto.send(payload), on_server_close)
        return proto

    server, bound = await start_frame_server(address, accept)
    try:
        burst = [{"op": "acquire", "key": "k", "session": 1, "epoch": 0, "id": "c:1"},
                 {"op": "stats", "id": "c:2"}, {"ok": True, "id": "c:3"}]

        def on_frame(payload):
            echoed.append(payload)
            if len(echoed) == len(burst):
                done.set_result(None)

        client = await open_frame_connection(bound, on_frame, client_closed.append)
        for payload in burst:
            client.send(payload)
        await asyncio.wait_for(done, 5.0)
        client.close()
        await asyncio.wait_for(hung_up, 5.0)  # the server reads the EOF
    finally:
        server.close()
        await server.wait_closed()
    assert echoed == burst
    return bound, server_closed, client_closed


@pytest.mark.network
def test_framed_peers_exchange_frames_over_a_unix_socket(tmp_path):
    path = str(tmp_path / "echo.sock")
    bound, server_closed, client_closed = run(_echo_round_trip(path))
    assert bound == path
    assert server_closed == [None] and client_closed == [None]  # clean on both ends


@pytest.mark.network
def test_a_tcp_frame_server_on_port_zero_reports_the_port_it_bound():
    bound, server_closed, client_closed = run(_echo_round_trip(("127.0.0.1", 0)))
    host, port = bound
    assert host == "127.0.0.1" and isinstance(port, int) and port > 0
    assert server_closed == [None] and client_closed == [None]
