"""The lock service's wire: length-prefixed frames over unix or TCP sockets.

Shards and clients of :mod:`repro.runtime.service` talk through this module
and nothing else; the token trees inside a shard never touch a socket (they
run on :class:`repro.runtime.transport.InMemoryTransport`).

Wire format is length-prefixed: a 4-byte big-endian frame length, then a body
whose first byte says what it is.  ``{`` opens a UTF-8 JSON object, which is
every frame but four: the control plane and every refusal stay text a human
can read off a socket dump, independent of pickle.  The four frames of a lock
op — the only ones a running service exchanges by the thousand — are packed:
a kind byte, then big-endian the integers (signed 64-bit) and the byte length
of each string (unsigned 16-bit), then the strings' UTF-8 bytes:

    kind   payload                                  after the kind, then the tails
    ``a``  {op: acquire, key, session, epoch, id}   session epoch |key| |id|, key id
    ``r``  {op: release, key, session,              session grant_epoch epoch |key| |id|,
            grant_epoch, epoch, id}                 key id
    ``g``  {ok: true, epoch, id}                    epoch |id|, id
    ``k``  {ok: true, id}                           |id|, id

The codec is dict in, dict out, and picks by itself: a payload is packed when
its keys are exactly one of those shapes' and every field is exactly ``str``
/ ``int`` (not ``bool``) inside its layout's range, and is JSON otherwise — an
out-of-range session, an integer id, an acquire with one key more all travel
as text and come back as they went in.  Nothing selects or announces a
format: both ends are one build, and a JSON-encoded acquire from a
hand-written peer decodes as it always did.

Frames are read and written in one place, :class:`FrameProtocol`, an
``asyncio.Protocol`` that sits directly on the socket's transport: the lock
shard's connections and the lock client's are both instances of it, differing
only in the ``on_frame`` they are given.  :func:`read_frame` is the same rules
over an ``asyncio.StreamReader``, kept for raw peers (tests, the benchmark's
echo stub); both decode through :func:`decode_body`.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import RuntimeTransportError

#: A transport address: a unix-socket path or a ``(host, port)`` TCP pair.
Address = Union[str, Tuple[str, int]]

#: Frame header: one unsigned 32-bit big-endian payload length.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload.  Lock-service operations are tens
#: of bytes; anything near this limit is a
#: corrupted stream, and refusing it keeps a bad header from allocating
#: gigabytes.
MAX_FRAME_BYTES = 1 << 20

#: The client's retry backoff (seconds), :func:`backoff_delays`' defaults.
#: Short first retry so a shard restart costs little; capped so a dead shard
#: does not busy-loop.
RECONNECT_DELAY_INITIAL = 0.05
RECONNECT_DELAY_MAX = 1.0


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
#: ``json.dumps(..., separators=...)`` builds a fresh encoder on every call.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: The packed layouts (the module docstring's table): kind byte, integers,
#: tail lengths; the tails follow the struct.
_ACQUIRE = struct.Struct(">cqqHH")  # b"a" session epoch |key| |id|
_RELEASE = struct.Struct(">cqqqHH")  # b"r" session grant_epoch epoch |key| |id|
_GRANT = struct.Struct(">cqH")  # b"g" epoch |id|
_ACK = struct.Struct(">cH")  # b"k" |id|


def _pack_op(payload: Dict[str, Any]) -> Optional[bytes]:
    """An acquire's or a release's packed body; ``None`` for any other payload."""
    get = payload.get
    key, session, epoch, ident = get("key"), get("session"), get("epoch"), get("id")
    if not (type(key) is type(ident) is str and type(session) is type(epoch) is int):
        return None  # bool is not int here: True must come back True, not 1
    key, ident = key.encode(), ident.encode()
    op, granted = get("op"), get("grant_epoch")
    if op == "acquire" and len(payload) == 5:
        return _ACQUIRE.pack(b"a", session, epoch, len(key), len(ident)) + key + ident
    if op == "release" and type(granted) is int:
        return _RELEASE.pack(b"r", session, granted, epoch, len(key), len(ident)) + key + ident
    return None


def _pack_answer(payload: Dict[str, Any]) -> Optional[bytes]:
    """A grant's or an ack's packed body; ``None`` for any other payload."""
    ident, epoch = payload.get("id"), payload.get("epoch")
    if payload.get("ok") is not True or type(ident) is not str:
        return None
    ident = ident.encode()
    if len(payload) == 2:
        return _ACK.pack(b"k", len(ident)) + ident
    if type(epoch) is int:
        return _GRANT.pack(b"g", epoch, len(ident)) + ident
    return None


#: Key count -> the packer to try.  With the count right, every key it reads
#: being there makes the key set exactly the shape's.
_PACKERS = {2: _pack_answer, 3: _pack_answer, 5: _pack_op, 6: _pack_op}


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialise one payload as a length-prefixed frame.

    Packed when it is exactly one of the four lock-op shapes with every field
    inside its layout's range; the JSON text otherwise, whatever it holds.
    """
    packer = _PACKERS.get(len(payload))
    try:
        body = packer(payload) if packer is not None else None
    except (struct.error, UnicodeEncodeError):  # out of range, lone surrogate
        body = None
    if body is None:
        body = _encode_json(payload).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise RuntimeTransportError(
                f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            )
    return FRAME_HEADER.pack(len(body)) + body


#: ``json.loads`` strips whitespace with two regex calls around this one.
_decode_json = json.JSONDecoder().raw_decode


def decode_body(body: Union[bytes, bytearray]) -> Dict[str, Any]:
    """One frame body -> its payload; the one text of what a body must be.

    Either exactly one JSON object — bytes after it, or whitespace around it,
    make the frame as undecodable as bad UTF-8 does — or one of the four
    packed layouts, its struct whole and its tails filling the body exactly.
    """
    kind, end = body[:1], len(body)
    try:
        if kind == b"{":
            text = body.decode()
            payload, stop = _decode_json(text)
            if stop != len(text):
                raise ValueError(f"{len(text) - stop} characters after the JSON value")
            return payload
        if kind == b"a":
            _, session, epoch, key_len, id_len = _ACQUIRE.unpack_from(body)
            mid = _ACQUIRE.size + key_len
            if mid + id_len == end:
                return {
                    "op": "acquire", "key": body[mid - key_len : mid].decode(),
                    "session": session, "epoch": epoch, "id": body[mid:].decode(),
                }
        elif kind == b"g":
            _, epoch, id_len = _GRANT.unpack_from(body)
            if _GRANT.size + id_len == end:
                return {"ok": True, "epoch": epoch, "id": body[_GRANT.size :].decode()}
        elif kind == b"r":
            _, session, granted, epoch, key_len, id_len = _RELEASE.unpack_from(body)
            mid = _RELEASE.size + key_len
            if mid + id_len == end:
                return {
                    "op": "release", "key": body[mid - key_len : mid].decode(),
                    "session": session, "grant_epoch": granted, "epoch": epoch,
                    "id": body[mid:].decode(),
                }
        elif kind == b"k":
            _, id_len = _ACK.unpack_from(body)
            if _ACK.size + id_len == end:
                return {"ok": True, "id": body[_ACK.size :].decode()}
        else:
            raise ValueError(f"unknown frame kind {bytes(kind)!r}")
        raise ValueError(f"kind {kind.decode()!r} struct and tails do not fill {end} bytes")
    except (ValueError, struct.error) as exc:  # Unicode- and JSONDecodeError are ValueErrors
        raise RuntimeTransportError(f"undecodable frame: {exc}") from None


def _oversized(length: int) -> RuntimeTransportError:
    return RuntimeTransportError(
        f"frame header announces {length} bytes (limit {MAX_FRAME_BYTES}); "
        "corrupted stream?"
    )


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame from a stream; ``None`` on a clean EOF at a frame boundary.

    For raw peers (tests, the benchmark's echo stub); everything in this
    package reads through :class:`FrameProtocol`.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise RuntimeTransportError(
            f"peer closed mid-header ({len(exc.partial)}/{FRAME_HEADER.size} bytes)"
        ) from None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise _oversized(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise RuntimeTransportError(
            f"peer closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from None
    return decode_body(body)


class FrameProtocol(asyncio.Protocol):
    """One framed connection, both directions, straight on the transport.

    In: :meth:`data_received` cuts every whole frame out of what has arrived
    and calls ``on_frame(payload)`` for each, synchronously and in order.  A
    frame that breaks a rule (length over :data:`MAX_FRAME_BYTES`, a body
    :func:`decode_body` refuses, EOF inside a frame) or whose ``on_frame``
    raises :class:`RuntimeTransportError` closes this connection, and only
    this one.  ``on_close(error)`` is called exactly once, whoever ended the
    connection: ``None`` for a clean EOF or a local :meth:`close`, else the
    reason.  No frame is delivered after it.

    Out: frames reach a busy peer in bursts (one ``recv`` carries many), so
    their answers are ready in the same event-loop pass; :meth:`send` queues
    and the pass's one :meth:`flush` writes them with one ``write``.  Frames
    queued on a closing connection are dropped: the peer is gone and so is
    whoever awaited them.

    Back-pressure: while the transport's write buffer is over its high-water
    mark the connection is not read, so a peer that stops reading its answers
    stops being read.
    """

    __slots__ = ("transport", "_on_frame", "_on_close", "_loop", "_buffer", "_frames", "_closed")

    def __init__(
        self,
        on_frame: Callable[[Dict[str, Any]], None],
        on_close: Optional[Callable[[Optional[Exception]], None]] = None,
    ) -> None:
        self.transport: Any = None
        self._on_frame = on_frame
        self._on_close = on_close
        self._loop = asyncio.get_running_loop()
        self._buffer = bytearray()  # the incomplete frame at the end of the last chunk
        self._frames: List[bytes] = []
        self._closed = False

    # -- asyncio.Protocol ------------------------------------------------ #
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        if buffer:
            buffer += data
            chunk: Union[bytes, bytearray] = buffer
        else:
            chunk = data
        size = len(chunk)
        start = 0
        header = FRAME_HEADER.size
        unpack_from = FRAME_HEADER.unpack_from
        on_frame = self._on_frame
        try:
            while size - start >= header and not self._closed:
                (length,) = unpack_from(chunk, start)
                if length > MAX_FRAME_BYTES:
                    raise _oversized(length)
                end = start + header + length
                if end > size:
                    break
                payload = decode_body(chunk[start + header : end])
                start = end
                on_frame(payload)
        except RuntimeTransportError as exc:
            self.close(exc)
            return
        if chunk is buffer:
            del buffer[:start]
        elif start < size:
            buffer += data[start:]

    def eof_received(self) -> None:
        if self._buffer:
            held = len(self._buffer)
            self.close(RuntimeTransportError(f"peer closed mid-frame ({held} bytes of it read)"))
        else:
            self.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._finish(exc)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    # -- the owner's side ------------------------------------------------ #
    def send(self, payload: Dict[str, Any]) -> None:
        """Queue one frame; the first of a pass schedules the pass's flush."""
        if not self._frames:
            self._loop.call_soon(self.flush)
        self._frames.append(encode_frame(payload))

    def flush(self) -> None:
        """Write the queued frames, in queue order, with one ``write``."""
        frames, self._frames = self._frames, []
        if frames and not self.transport.is_closing():
            self.transport.write(b"".join(frames))

    def is_closing(self) -> bool:
        """True once nothing sent here can be answered any more."""
        return self._closed or self.transport.is_closing()

    def close(self, error: Optional[Exception] = None) -> None:
        """Stop reading now; what the transport already took is still written."""
        self._finish(error)
        self.transport.close()

    def abort(self) -> None:
        """Drop the connection, unwritten bytes included."""
        self._finish(None)
        self.transport.abort()

    def _finish(self, error: Optional[Exception]) -> None:
        if self._closed:
            return
        self._closed = True
        if self._on_close is not None:
            self._on_close(error)


def normalise_address(address: Address) -> Address:
    """Hashable canonical form (JSON round-trips tuples as lists)."""
    if isinstance(address, (list, tuple)):
        host, port = address
        return (str(host), int(port))
    return str(address)


async def open_address_connection(address: Address):
    """Open a stream to ``address`` (TCP pair or unix path): (reader, writer).

    For raw peers; :func:`open_frame_connection` is the framed counterpart.
    """
    if isinstance(address, tuple):
        return await asyncio.open_connection(address[0], address[1])
    return await asyncio.open_unix_connection(address)


async def open_frame_connection(
    address: Address,
    on_frame: Callable[[Dict[str, Any]], None],
    on_close: Optional[Callable[[Optional[Exception]], None]] = None,
) -> FrameProtocol:
    """Connect a :class:`FrameProtocol` to ``address`` (TCP pair or unix path)."""
    loop = asyncio.get_running_loop()
    factory = lambda: FrameProtocol(on_frame, on_close)  # noqa: E731
    if isinstance(address, tuple):
        _, protocol = await loop.create_connection(factory, address[0], address[1])
    else:
        _, protocol = await loop.create_unix_connection(factory, address)
    return protocol


async def start_frame_server(
    address: Address, factory: Callable[[], FrameProtocol]
) -> Tuple[asyncio.AbstractServer, Address]:
    """Listen on ``address`` with one ``factory()`` protocol per connection.

    Returns the server and the address actually bound: port 0 binds an
    ephemeral port, and peers must be told the real one.
    """
    loop = asyncio.get_running_loop()
    if isinstance(address, (tuple, list)):
        host, port = address
        server = await loop.create_server(factory, host, port)
        return server, (str(host), server.sockets[0].getsockname()[1])
    server = await loop.create_unix_server(factory, path=address)
    return server, str(address)


def backoff_delays(
    initial: float = RECONNECT_DELAY_INITIAL, cap: float = RECONNECT_DELAY_MAX
):
    """Infinite exponential backoff schedule: initial, 2x, 4x, ... capped."""
    delay = initial
    while True:
        yield delay
        delay = min(delay * 2, cap)
