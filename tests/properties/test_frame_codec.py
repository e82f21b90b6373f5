"""The frame codec: what round-trips, which bodies are packed, what is refused.

Four payload shapes — acquire, grant, release, ack — travel as fixed layouts;
everything else is JSON text.  The property is one sentence: whatever
``encode_frame`` accepts, ``decode_body`` gives back, value *and type*.  The
oracle for "is this one of the four" is written out here a second time, from
the rule and not from the code, so the two can disagree.
"""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import RuntimeTransportError
from repro.runtime.service import LockClient
from repro.runtime.transport_socket import (
    FRAME_HEADER,
    FrameProtocol,
    decode_body,
    encode_frame,
    open_address_connection,
    pack_acquire,
    pack_release,
    start_frame_server,
)

INT64 = range(-(2**63), 2**63)
#: Key set -> the (name, value) that says which of the four it is.
SHAPES = {
    frozenset({"op", "key", "session", "epoch", "id"}): ("op", "acquire"),
    frozenset({"op", "key", "session", "grant_epoch", "epoch", "id"}): ("op", "release"),
    frozenset({"ok", "epoch", "id"}): ("ok", True),
    frozenset({"ok", "id"}): ("ok", True),
}


def is_packable(payload) -> bool:
    """The rule: exactly a shape's keys, exactly ``str`` / ``int`` in range."""
    head = SHAPES.get(frozenset(payload))
    if head is None:
        return False
    name, value = head
    if type(payload[name]) is not type(value) or payload[name] != value:
        return False
    for name in ("key", "id"):
        text = payload.get(name, "")
        try:
            if type(text) is not str or len(text.encode("utf-8")) > 0xFFFF:
                return False
        except UnicodeEncodeError:  # a lone surrogate: JSON can escape it, UTF-8 cannot
            return False
    return all(
        type(payload.get(name, 0)) is int and payload.get(name, 0) in INT64
        for name in ("session", "epoch", "grant_epoch")
    )


def same(left, right) -> bool:
    """Equal, and of equal types all the way down: ``True`` is not ``1``."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(same(left[k], right[k]) for k in left)
    if isinstance(left, list):
        return len(left) == len(right) and all(map(same, left, right))
    return left == right


def round_trips(payload) -> bytes:
    body = encode_frame(payload)[FRAME_HEADER.size :]
    assert same(decode_body(body), payload)
    assert (body[:1] != b"{") == is_packable(payload), body[:16]
    return body


# --------------------------------------------------------------------------- #
# strategies: the four shapes, then everything one step away from them
# --------------------------------------------------------------------------- #
names = st.text(max_size=24)
in_range = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: What a hand-written peer might put where an integer belongs.
not_an_integer = st.one_of(
    st.booleans(),
    st.integers(min_value=2**63, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**63) - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.text(max_size=4),
)
integer_field = st.one_of(in_range, in_range, in_range, not_an_integer)
string_field = st.one_of(names, names, names, st.integers(), st.none(), st.booleans())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)

shapes = st.one_of(
    st.fixed_dictionaries({
        "op": st.sampled_from(["acquire", "release", "cancel"]), "key": string_field,
        "session": integer_field, "epoch": integer_field, "id": string_field,
    }),
    st.fixed_dictionaries({
        "op": st.sampled_from(["release", "acquire"]), "key": string_field,
        "session": integer_field, "grant_epoch": integer_field, "epoch": integer_field,
        "id": string_field,
    }),
    st.fixed_dictionaries({
        "ok": st.sampled_from([True, True, False, 1]), "epoch": integer_field,
        "id": string_field,
    }),
    st.fixed_dictionaries({"ok": st.sampled_from([True, True, False, 1]), "id": string_field}),
)


@st.composite
def near_shapes(draw):
    """A shape as is, with one key more, or with one key fewer."""
    payload = dict(draw(shapes))
    step = draw(st.sampled_from(["as is", "as is", "extra", "missing"]))
    if step == "extra":
        payload[draw(st.sampled_from(["code", "error", "view", "x"]))] = draw(json_values)
    elif step == "missing":
        del payload[draw(st.sampled_from(sorted(payload)))]
    return payload


@settings(max_examples=400, deadline=None)
@given(near_shapes())
@example({"op": "acquire", "key": "k" * 65_535, "session": 1, "epoch": 0, "id": "i"})
@example({"op": "acquire", "key": "k" * 65_536, "session": 1, "epoch": 0, "id": "i"})
@example({"op": "acquire", "key": "é" * 32_768, "session": 1, "epoch": 0, "id": "i"})
@example({"ok": True, "id": "i" * 65_536})
@example({"ok": True, "epoch": 2**63, "id": "i"})
@example({"ok": True, "epoch": -(2**63), "id": "i"})
@example({"ok": True, "epoch": True, "id": "i"})
@example({"ok": 1, "id": "i"})
@example({"op": "release", "key": "clé", "session": -1, "grant_epoch": 0, "epoch": 0, "id": ""})
@example({"op": "acquire", "key": "\ud800", "session": 1, "epoch": 0, "id": "i"})
def test_whatever_is_encoded_comes_back_value_and_type(payload):
    round_trips(payload)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), json_values, max_size=6))
def test_any_json_object_comes_back_value_and_type(payload):
    round_trips(payload)


def test_the_oracle_and_the_codec_agree_on_the_plain_cases():
    packed = [
        {"op": "acquire", "key": "k", "session": 7, "epoch": 0, "id": "c:1"},
        {"ok": True, "epoch": 3, "id": "c:1"},
        {"op": "release", "key": "k", "session": 7, "grant_epoch": 3, "epoch": 3, "id": "c:2"},
        {"id": "c:2", "ok": True},  # key order is not part of a shape
    ]
    assert [round_trips(p)[:1] for p in packed] == [b"a", b"g", b"r", b"k"]
    text = [
        {"op": "acquire", "key": "k", "session": 7, "epoch": 0, "id": 1},
        {"op": "acquire", "key": "k", "session": 7.0, "epoch": 0, "id": "c:1"},
        {"op": "release", "key": "k", "session": 7, "epoch": 0, "id": "c:1"},
        {"op": "acquire", "key": "k", "session": 7, "grant_epoch": 0, "epoch": 0, "id": "c:1"},
        {"ok": False, "epoch": 3, "id": "c:1"},
        {"ok": True, "id": "c:1", "stats": {}},
        {},
    ]
    assert [round_trips(p)[:1] for p in text] == [b"{"] * len(text)


# --------------------------------------------------------------------------- #
# refusals
# --------------------------------------------------------------------------- #
QUARTET = [
    {"op": "acquire", "key": "clé-517", "session": 37, "epoch": 2, "id": "1a2b:48213"},
    {"ok": True, "epoch": 2, "id": "1a2b:48213"},
    {"op": "release", "key": "clé-517", "session": 37, "grant_epoch": 2, "epoch": 2,
     "id": "1a2b:48214"},
    {"ok": True, "id": "1a2b:48214"},
]


def _bad_bodies():
    """(why, body) for every way a packed body can be wrong."""
    for payload in QUARTET:
        body = encode_frame(payload)[FRAME_HEADER.size :]
        kind = body[:1].decode()
        for cut in range(1, len(body)):
            yield f"{kind} cut to {cut}", body[:cut]
        yield f"{kind} with a byte too many", body + b"x"
        # The tail lengths are the struct's last fields, two bytes each.
        tails = 2 if kind in "ar" else 1
        fixed = len(body) - len(payload["id"].encode()) - (
            len(payload["key"].encode()) if tails == 2 else 0
        )
        for index in range(tails):
            at = fixed - 2 * (tails - index)
            (length,) = struct.unpack_from(">H", body, at)
            for wrong in (length - 1, length + 1, 0xFFFF):
                patched = bytearray(body)
                struct.pack_into(">H", patched, at, wrong)
                yield f"{kind} length {index} {length}->{wrong}", bytes(patched)
        if tails == 2:
            # 0xC3 opens the key's two-byte "é"; 0x28 cannot continue it.
            at = body.index(b"\xc3")
            yield f"{kind} bad UTF-8 in the key", body[: at + 1] + b"(" + body[at + 2 :]
        yield f"{kind} bad UTF-8 in the id", body[:-1] + b"\xff"
    rest = encode_frame(QUARTET[3])[FRAME_HEADER.size + 1 :]
    for byte in range(256):
        if bytes([byte]) not in (b"{", b"a", b"g", b"r", b"k"):
            yield f"kind {byte:#04x}", bytes([byte]) + rest
    yield "empty", b""


BAD_BODIES = list(_bad_bodies())


def test_decode_body_refuses_every_malformed_packed_body():
    assert len(BAD_BODIES) > 300  # the generator did generate
    for why, body in BAD_BODIES:
        try:
            payload = decode_body(body)
        except RuntimeTransportError as exc:
            assert "undecodable frame" in str(exc), why
        else:
            pytest.fail(f"{why}: accepted as {payload}")


@pytest.mark.network
def test_a_live_connection_is_closed_by_a_bad_packed_frame_and_the_listener_stays_up(tmp_path):
    """Each malformed body, between two good frames, on a real socket: the
    good frame before it is served, the connection is closed with the reason,
    nothing after it is delivered — and the next connection is served."""
    picked = BAD_BODIES[:: max(1, len(BAD_BODIES) // 60)]

    async def scenario():
        served, closed = [], []

        def accept() -> FrameProtocol:
            frames: list = []
            served.append(frames)
            return FrameProtocol(frames.append, closed.append)

        server, address = await start_frame_server(str(tmp_path / "s.sock"), accept)
        good = encode_frame(QUARTET[0])
        try:
            for why, body in picked:
                reader, writer = await open_address_connection(address)
                writer.write(good + FRAME_HEADER.pack(len(body)) + body + good)
                assert await asyncio.wait_for(reader.read(), 5.0) == b"", why  # hung up on
                writer.close()
                await writer.wait_closed()
                assert served[-1] == [QUARTET[0]], why
                assert isinstance(closed[-1], RuntimeTransportError), why
                assert "undecodable frame" in str(closed[-1]), why
            assert len(served) == len(closed) == len(picked)
            reader, writer = await open_address_connection(address)
            writer.write(good * 2)
            writer.write_eof()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            await writer.wait_closed()
            assert served[-1] == [QUARTET[0]] * 2 and closed[-1] is None
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# the op path's fields: cut by the protocol, packed by the client
# --------------------------------------------------------------------------- #
class _Transport:
    """What a FrameProtocol calls on its transport, doing nothing."""

    closing = False

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    def write(self, data: bytes) -> None:
        pass


@st.composite
def op_bodies(draw):
    """A packed acquire or release body: whole, or cut, grown or with one byte changed."""
    key, ident = draw(names), draw(names)
    session, grant_epoch, epoch = draw(in_range), draw(in_range), draw(in_range)
    if draw(st.booleans()):
        frame = pack_acquire(key, session, epoch, ident)
    else:
        frame = pack_release(key, session, grant_epoch, epoch, ident)
    body = frame[FRAME_HEADER.size :]
    step = draw(st.sampled_from(["whole", "whole", "cut", "grown", "changed"]))
    if step == "cut":
        body = body[: draw(st.integers(min_value=1, max_value=len(body)))]
    elif step == "grown":
        body += draw(st.binary(min_size=1, max_size=3))
    elif step == "changed":
        at = draw(st.integers(min_value=1, max_value=len(body) - 1))
        body = body[:at] + bytes([draw(st.integers(0, 255))]) + body[at + 1 :]
    return body


#: The malformed bodies above whose kind byte is an acquire's or a release's.
BAD_OP_BODIES = [body for _why, body in BAD_BODIES if body[:1] in (b"a", b"r")]


@settings(max_examples=300, deadline=None)
@given(st.one_of(op_bodies(), st.sampled_from(BAD_OP_BODIES)))
def test_the_protocols_field_cut_agrees_with_decode_body(body):
    """A FrameProtocol with an ``on_op`` delivers exactly the fields
    ``decode_body`` gives for the body, or closes with the same reason it
    raises and delivers nothing — the good frame after it included."""

    async def scenario():
        ops, frames, closes = [], [], []
        proto = FrameProtocol(frames.append, closes.append, lambda *fields: ops.append(fields))
        proto.connection_made(_Transport())
        after = encode_frame(QUARTET[0])
        proto.data_received(FRAME_HEADER.pack(len(body)) + body + after)
        return ops, frames, closes

    ops, frames, closes = asyncio.run(scenario())
    try:
        payload = decode_body(body)
    except RuntimeTransportError as exc:
        assert (ops, frames) == ([], [])
        (error,) = closes
        assert isinstance(error, RuntimeTransportError) and str(error) == str(exc)
        return
    get = payload.get
    expected = (
        payload["op"], get("key"), get("session"), get("grant_epoch"), get("epoch"), get("id")
    )
    assert frames == [] and closes == []
    assert same(list(ops[0]), list(expected)) and len(ops) == 2


def _answer_with(epoch):
    """The stub shard's answer to everything: ok, and this grant epoch."""

    class Conn:
        def __init__(self) -> None:
            self.sent = []

        def send(self, uid, frame, timeout=None):
            self.sent.append((uid, frame))
            future = asyncio.get_running_loop().create_future()
            future.set_result({"ok": True, "epoch": epoch, "id": uid})
            return future

    return Conn()


@settings(max_examples=200, deadline=None)
@given(
    key=st.one_of(names, st.just("k" * 65_536), st.just("k\ud800")),
    session=st.one_of(in_range, st.integers(min_value=2**63, max_value=2**64), st.booleans()),
    granted=st.one_of(in_range, st.integers(min_value=2**63, max_value=2**64)),
)
@example(key="k", session=2**63, granted=0)
@example(key="k" * 65_536, session=1, granted=0)
@example(key="\ud800", session=1, granted=0)
@example(key="clé", session=1, granted=2**63)
def test_the_clients_frames_are_encode_frame_byte_for_byte(key, session, granted):
    """What ``LockClient`` queues for an acquire, its release and a release
    of no grant is what ``encode_frame`` writes for the payloads it always
    sent — packed where the fields fit, the same JSON text where they do not."""

    async def scenario():
        client = LockClient(["/tmp/s.sock"])
        conn = _answer_with(granted)

        async def stub_connection(shard, channel):
            return conn

        client._connection = stub_connection
        await client.acquire(key, session=session)
        await client.release(key, session=session)
        await client.release(key, session=session)  # holding no grant: no grant epoch
        await client.close()
        return conn.sent

    (acquire_id, acquired), (release_id, released), (bare_id, bare) = asyncio.run(scenario())
    assert acquired == encode_frame(
        {"op": "acquire", "key": key, "session": session, "epoch": 0, "id": acquire_id}
    )
    assert released == encode_frame({
        "op": "release", "key": key, "session": session, "grant_epoch": granted, "epoch": 0,
        "id": release_id,
    })
    assert bare == encode_frame(
        {"op": "release", "key": key, "session": session, "epoch": 0, "id": bare_id}
    )
