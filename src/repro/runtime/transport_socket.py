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

Each layout has one positional packer (``pack_acquire`` ... ``pack_ack``:
fields in, the whole frame out, ``None`` when a field does not fit) and one
positional cutter (``cut_acquire`` ... ``cut_ack``: a buffer and a body's
bounds in it, the fields read in place out), and those are the layouts' one
text.  The public codec is dict in, dict out — :func:`encode_frame` /
:func:`decode_body`, built on those functions — and picks by itself: a
payload is packed when its keys are exactly one of those shapes' and every
field is exactly ``str`` / ``int`` (not ``bool``) inside its layout's range,
and is JSON otherwise — an out-of-range session, an integer id, an acquire
with one key more all travel as text and come back as they went in.  Nothing selects or announces a format: both ends are one
build, and a JSON-encoded acquire from a hand-written peer decodes as it
always did.

The dict form is for the control plane, refusals and raw peers.  A lock op
travels as fields both ways: the client packs its acquire or release with a
packer, the shard's :class:`FrameProtocol` hands a packed one's cut fields to
its ``on_op``, the shard packs the grant or ack back from fields — falling
back to :func:`encode_frame`'s JSON exactly where it would — and the
client's :class:`FrameProtocol` hands a packed grant's epoch, or ``True`` for
an ack, to its ``on_answer``.

Frames are read and written in one place, :class:`FrameProtocol`, an
``asyncio.Protocol`` that sits directly on the socket's transport: the lock
shard's connections and the lock client's are both instances of it, differing
only in the callbacks they are given.  :func:`read_frame` is the same rules
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

#: What frames are cut from: a received chunk, or the buffer holding a partial one.
Buffer = Union[bytes, bytearray]

#: Frame header: one unsigned 32-bit big-endian payload length.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload.  Lock-service operations are tens
#: of bytes; anything near this limit is a
#: corrupted stream, and refusing it keeps a bad header from allocating
#: gigabytes.
MAX_FRAME_BYTES = 1 << 20

#: The client's retry backoff (seconds): :func:`backoff_delays` starts at the
#: first and doubles up to the second.  Short first retry so a shard restart
#: costs little; capped so a dead shard does not busy-loop.
RECONNECT_DELAY_INITIAL = 0.05
RECONNECT_DELAY_MAX = 1.0


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #
#: ``json.dumps(..., separators=...)`` builds a fresh encoder on every call.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: The packed layouts (the module docstring's table), one struct per layout:
#: kind byte, integers, tail lengths; the tails follow the struct.
_ACQUIRE = struct.Struct(">cqqHH")  # b"a" session epoch |key| |id|
_RELEASE = struct.Struct(">cqqqHH")  # b"r" session grant_epoch epoch |key| |id|
_GRANT = struct.Struct(">cqH")  # b"g" epoch |id|
_ACK = struct.Struct(">cH")  # b"k" |id|
#: The same structs behind the frame header, so a packer writes a whole frame
#: with one ``pack``.
_ACQUIRE_FRAME, _RELEASE_FRAME, _GRANT_FRAME, _ACK_FRAME = (
    struct.Struct(FRAME_HEADER.format + layout.format[1:])
    for layout in (_ACQUIRE, _RELEASE, _GRANT, _ACK)
)


# One positional packer per layout: the whole frame, or ``None`` when a field
# is outside the layout — not exactly ``str`` / ``int`` (``bool`` is not an
# integer here: ``True`` must come back ``True``, not ``1``), an integer out of
# signed 64-bit range, a string over 65 535 UTF-8 bytes or with a lone
# surrogate.  A caller with ``None`` in hand sends the JSON text instead.
def pack_acquire(key: Any, session: Any, epoch: Any, ident: Any) -> Optional[bytes]:
    """An acquire's packed frame, or ``None`` when a field does not fit."""
    if type(key) is type(ident) is str and type(session) is type(epoch) is int:
        try:
            key, ident = key.encode(), ident.encode()
            return _ACQUIRE_FRAME.pack(
                _ACQUIRE.size + len(key) + len(ident), b"a", session, epoch, len(key), len(ident)
            ) + key + ident
        except (struct.error, UnicodeEncodeError):
            pass
    return None


def pack_release(
    key: Any, session: Any, grant_epoch: Any, epoch: Any, ident: Any
) -> Optional[bytes]:
    """A release's packed frame, or ``None`` when a field does not fit."""
    if type(key) is type(ident) is str and type(session) is type(grant_epoch) is type(epoch) is int:
        try:
            key, ident = key.encode(), ident.encode()
            return _RELEASE_FRAME.pack(
                _RELEASE.size + len(key) + len(ident),
                b"r", session, grant_epoch, epoch, len(key), len(ident),
            ) + key + ident
        except (struct.error, UnicodeEncodeError):
            pass
    return None


def pack_grant(epoch: Any, ident: Any) -> Optional[bytes]:
    """A grant's (``{ok: true, epoch, id}``) packed frame, or ``None``."""
    if type(ident) is str and type(epoch) is int:
        try:
            ident = ident.encode()
            return _GRANT_FRAME.pack(_GRANT.size + len(ident), b"g", epoch, len(ident)) + ident
        except (struct.error, UnicodeEncodeError):
            pass
    return None


def pack_ack(ident: Any) -> Optional[bytes]:
    """An ack's (``{ok: true, id}``) packed frame, or ``None``."""
    if type(ident) is str:
        try:
            ident = ident.encode()
            return _ACK_FRAME.pack(_ACK.size + len(ident), b"k", len(ident)) + ident
        except (struct.error, UnicodeEncodeError):
            pass
    return None


def _pack_op(payload: Dict[str, Any]) -> Optional[bytes]:
    """An acquire's or a release's frame as its packer writes it; ``None`` else."""
    get = payload.get
    op = get("op")
    if op == "acquire" and len(payload) == 5:
        return pack_acquire(get("key"), get("session"), get("epoch"), get("id"))
    if op == "release":
        return pack_release(
            get("key"), get("session"), get("grant_epoch"), get("epoch"), get("id")
        )
    return None


def _pack_answer(payload: Dict[str, Any]) -> Optional[bytes]:
    """A grant's or an ack's frame as its packer writes it; ``None`` else."""
    if payload.get("ok") is not True:
        return None
    if len(payload) == 2:
        return pack_ack(payload.get("id"))
    return pack_grant(payload.get("epoch"), payload.get("id"))


#: Key count -> the packer to try.  With the count right, every key it reads
#: being there makes the key set exactly the shape's.
_PACKERS = {2: _pack_answer, 3: _pack_answer, 5: _pack_op, 6: _pack_op}


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialise one payload as a length-prefixed frame.

    Packed when it is exactly one of the four lock-op shapes with every field
    inside its layout's range; the JSON text otherwise, whatever it holds.
    """
    packer = _PACKERS.get(len(payload))
    frame = packer(payload) if packer is not None else None
    if frame is not None:
        return frame
    body = _encode_json(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise RuntimeTransportError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return FRAME_HEADER.pack(len(body)) + body


# One positional cutter per layout: the body of that kind at
# ``buffer[start:end]`` -> its fields, read in place (no copy of the body).  A
# body whose struct is short (struct refuses the body alone: in place, it would
# read on into the next frame), whose tails do not fill it exactly, or whose
# strings are not UTF-8 raises ValueError or struct.error; whoever cut it
# refuses the frame with :func:`_undecodable`.
def cut_acquire(buffer: Buffer, start: int, end: int) -> Tuple[str, int, int, str]:
    """An ``a`` body -> (key, session, epoch, id)."""
    head = start + _ACQUIRE.size
    if head > end:
        _ACQUIRE.unpack_from(buffer[start:end])
    _, session, epoch, key_len, id_len = _ACQUIRE.unpack_from(buffer, start)
    mid = head + key_len
    if mid + id_len != end:
        raise ValueError(_unfilled("a", end - start))
    return buffer[head:mid].decode(), session, epoch, buffer[mid:end].decode()


def cut_release(buffer: Buffer, start: int, end: int) -> Tuple[str, int, int, int, str]:
    """An ``r`` body -> (key, session, grant_epoch, epoch, id)."""
    head = start + _RELEASE.size
    if head > end:
        _RELEASE.unpack_from(buffer[start:end])
    _, session, granted, epoch, key_len, id_len = _RELEASE.unpack_from(buffer, start)
    mid = head + key_len
    if mid + id_len != end:
        raise ValueError(_unfilled("r", end - start))
    return buffer[head:mid].decode(), session, granted, epoch, buffer[mid:end].decode()


def cut_grant(buffer: Buffer, start: int, end: int) -> Tuple[int, str]:
    """A ``g`` body -> (epoch, id)."""
    head = start + _GRANT.size
    if head > end:
        _GRANT.unpack_from(buffer[start:end])
    _, epoch, id_len = _GRANT.unpack_from(buffer, start)
    if head + id_len != end:
        raise ValueError(_unfilled("g", end - start))
    return epoch, buffer[head:end].decode()


def cut_ack(buffer: Buffer, start: int, end: int) -> str:
    """A ``k`` body -> its id."""
    head = start + _ACK.size
    if head > end:
        _ACK.unpack_from(buffer[start:end])
    _, id_len = _ACK.unpack_from(buffer, start)
    if head + id_len != end:
        raise ValueError(_unfilled("k", end - start))
    return buffer[head:end].decode()


def _unfilled(kind: str, size: int) -> str:
    return f"kind {kind!r} struct and tails do not fill {size} bytes"


def _undecodable(exc: Exception) -> RuntimeTransportError:
    return RuntimeTransportError(f"undecodable frame: {exc}")


#: ``json.loads`` strips whitespace with two regex calls around this one.
_decode_json = json.JSONDecoder().raw_decode


def decode_body(body: Buffer) -> Dict[str, Any]:
    """One frame body -> its payload; the one text of what a body must be.

    Either exactly one JSON object — bytes after it, or whitespace around it,
    make the frame as undecodable as bad UTF-8 does — or one of the four
    packed layouts, its struct whole and its tails filling the body exactly.
    """
    kind = body[:1]
    end = len(body)
    try:
        if kind == b"{":
            text = body.decode()
            payload, stop = _decode_json(text)
            if stop != len(text):
                raise ValueError(f"{len(text) - stop} characters after the JSON value")
            return payload
        if kind == b"a":
            key, session, epoch, ident = cut_acquire(body, 0, end)
            return {"op": "acquire", "key": key, "session": session, "epoch": epoch, "id": ident}
        if kind == b"g":
            epoch, ident = cut_grant(body, 0, end)
            return {"ok": True, "epoch": epoch, "id": ident}
        if kind == b"r":
            key, session, granted, epoch, ident = cut_release(body, 0, end)
            return {
                "op": "release", "key": key, "session": session, "grant_epoch": granted,
                "epoch": epoch, "id": ident,
            }
        if kind == b"k":
            return {"ok": True, "id": cut_ack(body, 0, end)}
        raise ValueError(f"unknown frame kind {bytes(kind)!r}")
    except (ValueError, struct.error) as exc:  # Unicode- and JSONDecodeError are ValueErrors
        raise _undecodable(exc) from None


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
    and calls ``on_frame(payload)`` for each, synchronously and in order.
    With an ``on_op``, a packed acquire or release never becomes a payload:
    its cutter's fields go to ``on_op(op, key, session, grant_epoch, epoch,
    id)`` instead (``op`` is ``"acquire"`` or ``"release"``, an acquire's
    ``grant_epoch`` is ``None``; :attr:`on_op` may be set later, to a handler
    bound to this protocol); with an ``on_answer``, a packed grant or ack
    goes to ``on_answer(id, epoch)`` or ``on_answer(id, True)``.  A frame
    that breaks a rule (length over :data:`MAX_FRAME_BYTES`, a body
    :func:`decode_body` refuses — a cutter refuses the same bodies with the
    same reason — EOF inside a frame) or whose handler raises
    :class:`RuntimeTransportError` closes this connection, and only this one.
    ``on_close(error)`` is called exactly once, whoever ended the connection:
    ``None`` for a clean EOF or a local :meth:`close`, else the reason;
    :attr:`closed` is true from then on.  No frame is delivered after it.

    Out: frames reach a busy peer in bursts (one ``recv`` carries many), so
    their answers are ready in the same event-loop pass; :meth:`send` (a
    payload) and :meth:`send_frame` (a frame already encoded, such as a
    packer's) queue, and the pass's one :meth:`flush` writes them with one
    ``write``.  Frames queued on a closing connection are dropped: the peer
    is gone and so is whoever awaited them.

    Back-pressure: while the transport's write buffer is over its high-water
    mark the connection is not read, so a peer that stops reading its answers
    stops being read.
    """

    __slots__ = (
        "transport", "closed", "on_op", "_on_frame", "_on_close", "_on_answer", "_loop",
        "_buffer", "_frames",
    )

    def __init__(
        self,
        on_frame: Callable[[Dict[str, Any]], None],
        on_close: Optional[Callable[[Optional[Exception]], None]] = None,
        on_op: Optional[Callable[[str, str, int, Optional[int], int, str], None]] = None,
        on_answer: Optional[Callable[[str, Union[int, bool]], None]] = None,
    ) -> None:
        self.transport: Any = None
        self.closed = False
        self.on_op = on_op
        self._on_frame = on_frame
        self._on_close = on_close
        self._on_answer = on_answer
        self._loop = asyncio.get_running_loop()
        self._buffer = bytearray()  # the incomplete frame at the end of the last chunk
        self._frames: List[bytes] = []

    # -- asyncio.Protocol ------------------------------------------------ #
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        if buffer:
            buffer += data
            chunk: Buffer = buffer
        else:
            chunk = data
        size = len(chunk)
        start = 0
        header = FRAME_HEADER.size
        unpack_from = FRAME_HEADER.unpack_from
        on_frame, on_op, on_answer = self._on_frame, self.on_op, self._on_answer
        try:
            while size - start >= header and not self.closed:
                (length,) = unpack_from(chunk, start)
                if length > MAX_FRAME_BYTES:
                    raise _oversized(length)
                head = start + header
                end = head + length
                if end > size:
                    break
                start = end
                kind = chunk[head] if length else 0
                if on_op is not None and (kind == 97 or kind == 114):  # b"a", b"r"
                    try:
                        if kind == 97:
                            key, session, epoch, ident = cut_acquire(chunk, head, end)
                            op, granted = "acquire", None
                        else:
                            key, session, granted, epoch, ident = cut_release(chunk, head, end)
                            op = "release"
                    except (ValueError, struct.error) as exc:
                        raise _undecodable(exc) from None
                    on_op(op, key, session, granted, epoch, ident)
                elif on_answer is not None and (kind == 103 or kind == 107):  # b"g", b"k"
                    try:
                        if kind == 103:
                            answer, ident = cut_grant(chunk, head, end)
                        else:
                            answer, ident = True, cut_ack(chunk, head, end)
                    except (ValueError, struct.error) as exc:
                        raise _undecodable(exc) from None
                    on_answer(ident, answer)
                else:
                    on_frame(decode_body(chunk[head:end]))
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
        """Queue one payload's frame (:func:`encode_frame`)."""
        self.send_frame(encode_frame(payload))

    def send_frame(self, frame: bytes) -> None:
        """Queue one encoded frame; the first of a pass schedules the pass's flush."""
        if not self._frames:
            self._loop.call_soon(self.flush)
        self._frames.append(frame)

    def flush(self) -> None:
        """Write the queued frames, in queue order, with one ``write``."""
        frames, self._frames = self._frames, []
        if frames and not self.transport.is_closing():
            self.transport.write(b"".join(frames))

    def is_closing(self) -> bool:
        """True once nothing sent here can be answered any more."""
        return self.closed or self.transport.is_closing()

    def close(self, error: Optional[Exception] = None) -> None:
        """Stop reading now; what the transport already took is still written."""
        self._finish(error)
        self.transport.close()

    def abort(self) -> None:
        """Drop the connection, unwritten bytes included."""
        self._finish(None)
        self.transport.abort()

    def _finish(self, error: Optional[Exception]) -> None:
        if self.closed:
            return
        self.closed = True
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
    on_answer: Optional[Callable[[str, Union[int, bool]], None]] = None,
) -> FrameProtocol:
    """Connect a :class:`FrameProtocol` to ``address`` (TCP pair or unix path)."""
    loop = asyncio.get_running_loop()
    factory = lambda: FrameProtocol(on_frame, on_close, None, on_answer)  # noqa: E731
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


def backoff_delays():
    """Infinite exponential backoff schedule: initial, 2x, 4x, ... capped."""
    delay = RECONNECT_DELAY_INITIAL
    while True:
        yield delay
        delay = min(delay * 2, RECONNECT_DELAY_MAX)
