"""One behaviour on both routes through a shard.

A shard answers an op from the ``on_frame`` call that cut it when nothing has
to be waited for (*inline*); an acquire that must wait for an agent or for
the token is answered from the stack of the release that grants it (*task*,
the name its test ids have carried since that route was a task).
Dedup, cancel, abandon, fencing and the fault path must not care which of the
two served the acquire, so each case here runs once on a key whose token is
at hand and once on a key somebody holds.

The shard runs in this process on a real unix socket; peers are raw framed
connections, so several ops can be put into one socket write — one pass of
the shard's read loop.  The last section is the wire under both routes:
back-pressure and the shutdown ack.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import tempfile
import time
from typing import Any, Callable, Dict, List

import pytest

from repro.exceptions import ShardUnavailableError
from repro.runtime.failover import ClusterView, owner_for_key
from repro.runtime.service import LockClient, LockServiceShard
from repro.runtime.transport_socket import (
    FRAME_HEADER,
    encode_frame,
    open_address_connection,
    read_frame,
)
from repro.spec import ObsSpec, RuntimeFaultSpec, RuntimeSpec, TopologySpec

pytestmark = pytest.mark.network

ROUTES = ("inline", "task")
BLOCKER = 99  # the session that holds a key so that an acquire must wait

_uids = itertools.count(1)


def run(coro):
    return asyncio.run(coro)


def small_spec(**overrides) -> RuntimeSpec:
    defaults: Dict[str, Any] = dict(
        topology=TopologySpec(kind="star", n=3), shards=1, socket="unix"
    )
    defaults.update(overrides)
    return RuntimeSpec(**defaults)


def acquire(key: str, session: int, *, uid: str = "", epoch: int = 0) -> Dict[str, Any]:
    return {
        "op": "acquire",
        "key": key,
        "session": session,
        "epoch": epoch,
        "id": uid or f"t:{next(_uids)}",
    }


def release(key: str, session: int, *, epoch: int = 0, **extra: Any) -> Dict[str, Any]:
    return {
        "op": "release",
        "key": key,
        "session": session,
        **extra,
        "epoch": epoch,
        "id": f"t:{next(_uids)}",
    }


async def until(predicate: Callable[[], Any], timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.001)


class Peer:
    """A raw framed connection: ops out without waiting, answers in."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    def send(self, *frames: Dict[str, Any]) -> None:
        """All of ``frames`` in one socket write: one pass of the read loop."""
        self.writer.write(b"".join(encode_frame(frame) for frame in frames))

    async def answer(self) -> Dict[str, Any]:
        frame = await asyncio.wait_for(read_frame(self.reader), timeout=5.0)
        assert frame is not None, "the shard closed the connection"
        return frame

    async def call(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self.send(frame)
        return await self.answer()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Serving:
    """A shard serving on a unix socket in this event loop, plus its peers."""

    def __init__(self, spec: RuntimeSpec, index: int = 0) -> None:
        self.shard = LockServiceShard(spec, index)
        self._directory = tempfile.TemporaryDirectory(prefix="repro-")
        self._peers: List[Peer] = []

    async def __aenter__(self) -> "Serving":
        await self.shard.start(os.path.join(self._directory.name, "s.sock"))
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        for peer in self._peers:
            await peer.close()
        await self.shard.close()
        self._directory.cleanup()

    async def peer(self) -> Peer:
        peer = Peer(*await open_address_connection(self.shard.address))
        self._peers.append(peer)
        return peer

    def tree_messages(self) -> int:
        return self.shard._pump.messages_sent

    async def block(self, blocker: Peer, key: str) -> None:
        assert (await blocker.call(acquire(key, BLOCKER)))["ok"]

    async def unblock(self, blocker: Peer, key: str) -> None:
        assert (await blocker.call(release(key, BLOCKER)))["ok"]

    async def granted(
        self, route: str, peer: Peer, blocker: Peer, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Send the acquire ``frame`` so that ``route`` serves it; its answer."""
        shard = self.shard
        if route == "task":
            await self.block(blocker, frame["key"])
        peer.send(frame)
        if route == "task":
            await until(lambda: frame["id"] in shard._inflight)
            await self.unblock(blocker, frame["key"])
        answer = await peer.answer()
        assert not shard._inflight
        return answer


# --------------------------------------------------------------------------- #
# dedup
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("route", ROUTES)
def test_redelivered_acquire_replays_the_grant_and_rebinds_the_hold(route):
    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            first, second, blocker = [await serving.peer() for _ in range(3)]
            frame = acquire("k", 5, uid="op-1")
            grant = await serving.granted(route, first, blocker, frame)
            assert grant == {"ok": True, "epoch": 0, "id": "op-1"}
            acquires = shard.stats["acquires"]
            first_conn = shard._held[(5, "k")].conn

            # The retry arrives on another connection: same answer, no second
            # grant, and the hold now lives and dies with that connection.
            assert await second.call(frame) == grant
            assert shard.stats["acquires"] == acquires
            await first.close()
            await until(lambda: first_conn.closed)
            assert (5, "k") in shard._held and shard.stats["abandoned"] == 0
            await second.close()
            await until(lambda: (5, "k") not in shard._held)
            assert shard.stats["abandoned"] == 1
            assert shard.stats["exclusion_violations"] == 0

    run(scenario())


def test_duplicate_of_a_waiting_acquire_joins_it():
    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            first, second, blocker = [await serving.peer() for _ in range(3)]
            frame = acquire("k", 5, uid="op-1")
            await serving.block(blocker, "k")
            first.send(frame)
            await until(lambda: "op-1" in shard._inflight)
            first_conn = shard._inflight["op-1"].requesters[0][0]
            second.send(frame)
            await until(lambda: len(shard._inflight["op-1"].requesters) == 2)
            await serving.unblock(blocker, "k")
            # One grant, told to everyone who asked, bound to the latest asker.
            grant = {"ok": True, "epoch": 0, "id": "op-1"}
            assert await first.answer() == grant and await second.answer() == grant
            assert shard.stats["acquires"] == 2  # the blocker's and this one
            await first.close()
            await until(lambda: first_conn.closed)
            assert (5, "k") in shard._held
            await second.close()
            await until(lambda: (5, "k") not in shard._held)

    run(scenario())


# --------------------------------------------------------------------------- #
# cancel
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("route", ROUTES)
def test_cancel_reclaims_a_granted_but_unconsumed_acquire(route):
    """The acquire completed and was cached, but the client's deadline beat
    the reply — cancel must free the hold so the key is not locked until the
    connection dies."""

    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            peer, blocker = await serving.peer(), await serving.peer()
            grant = await serving.granted(route, peer, blocker, acquire("k", 5, uid="op-1"))
            assert grant["ok"] is True
            cancel = {"op": "cancel", "target": "op-1", "id": "c-1"}
            assert await peer.call(cancel) == {"id": "c-1", "ok": True, "cancelled": True}
            assert shard.stats["cancelled"] == 1
            assert (5, "k") not in shard._held and "k" not in shard._holders
            # Unknown (here: already reclaimed) uid: a no-op.
            assert (await peer.call({**cancel, "id": "c-2"}))["cancelled"] is False
            # The key is free: a different session gets it without waiting,
            # and the cancelled uid re-executes instead of replaying its grant.
            assert (await peer.call(acquire("k", 6)))["ok"] is True
            assert not shard._inflight
            assert (await peer.call(release("k", 6)))["ok"] is True
            assert (await peer.call(acquire("k", 5, uid="op-1")))["ok"] is True
            assert shard.stats["exclusion_violations"] == 0

    run(scenario())


def test_an_acquire_its_caller_cancels_is_cancelled_on_the_shard():
    """The caller gives up on a waiting acquire (``wait_for`` timing out is
    one).  Left alone, the shard would grant it when the holder releases and
    bind the hold to the still-open connection: nobody would ever release
    it.  The client cancels it, so the grant goes straight back."""

    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            async with LockClient([shard.address], channels=1) as client:
                await client.acquire("k", session=1)
                waiting = asyncio.ensure_future(client.acquire("k", session=2))
                await until(lambda: shard._inflight)
                waiting.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiting
                await client.release("k", session=1)  # behind the cancel, on one connection
                stats = await client.stats(0)
                assert (stats["cancelled"], stats["held"]) == (1, 0)
                await client.acquire("k", session=3)
                assert shard._holders == {"k": 3} and client.retry_stats["cancels"] == 1
                assert shard.stats["exclusion_violations"] == 0

    run(scenario())


# --------------------------------------------------------------------------- #
# abandon
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("route", ROUTES)
def test_dropped_connection_abandons_its_holds(route):
    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            owner, other, blocker = [await serving.peer() for _ in range(3)]
            frame = acquire("k", 5, uid="op-1")
            assert (await serving.granted(route, owner, blocker, frame))["ok"] is True
            owner.send(acquire("k", 6))  # its answer will find the writer closed
            await owner.close()
            await until(lambda: (5, "k") not in shard._held)
            assert shard.stats["abandoned"] >= 1
            # Session 6's waiting acquire was granted to nobody and handed back.
            await until(lambda: not shard._inflight and not shard._holders)
            acquires = shard.stats["acquires"]
            # The grant died with the connection: its uid executes afresh.
            assert (await other.call(frame))["ok"] is True
            assert shard.stats["acquires"] == acquires + 1
            assert shard.stats["exclusion_violations"] == 0

    run(scenario())


def test_connection_lost_while_waiting_hands_the_grant_back():
    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            waiter, other, blocker = [await serving.peer() for _ in range(3)]
            frame = acquire("k", 5, uid="op-1")
            await serving.block(blocker, "k")
            waiter.send(frame)
            await until(lambda: "op-1" in shard._inflight)
            conn = shard._inflight["op-1"].requesters[0][0]
            await waiter.close()
            await until(lambda: conn.closed)
            await serving.unblock(blocker, "k")
            await until(lambda: not shard._inflight)
            assert shard.stats["abandoned"] == 1
            assert not shard._held and not shard._holders
            assert "op-1" not in shard._op_cache  # a retry must execute afresh
            assert (await other.call(frame))["ok"] is True

    run(scenario())


# --------------------------------------------------------------------------- #
# fencing and routing: answered on the spot, whatever the key is doing
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("route", ROUTES)
def test_fenced_release_is_answered_without_disturbing_the_key(route):
    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            shard.adopt_view(ClusterView(epoch=1, shards={0: None}).to_dict())
            stale, waiter, blocker = [await serving.peer() for _ in range(3)]
            waiting = acquire("k", 5, epoch=1)
            if route == "task":
                assert (await blocker.call(acquire("k", BLOCKER, epoch=1)))["ok"]
                waiter.send(waiting)
                await until(lambda: waiting["id"] in shard._inflight)
            # A grant from before the failover comes back to be released.
            fenced = release("k", 7, epoch=1, grant_epoch=0)
            answer = await stale.call(fenced)
            assert answer["ok"] is False and answer["code"] == "fenced"
            assert await stale.call(fenced) == answer  # a redelivery replays it
            assert shard.stats["fenced"] == 1
            if route == "task":
                assert shard._holders["k"] == BLOCKER
                assert waiting["id"] in shard._inflight
                assert (await blocker.call(release("k", BLOCKER, epoch=1)))["ok"]
                assert (await waiter.answer())["ok"] is True
            else:
                assert (await waiter.call(waiting))["ok"] is True
            assert shard.stats["exclusion_violations"] == 0

    run(scenario())


def test_misrouted_ops_are_answered_and_the_connection_keeps_serving():
    foreign = next(f"k-{i}" for i in range(100) if owner_for_key(f"k-{i}", (0, 1)) == 1)
    own = next(f"k-{i}" for i in range(100) if owner_for_key(f"k-{i}", (0, 1)) == 0)

    async def scenario():
        async with Serving(small_spec(shards=2)) as serving:
            shard = serving.shard
            peer = await serving.peer()
            shard.adopt_view(ClusterView(epoch=2, shards={0: None, 1: None}).to_dict())
            for make in (acquire, release):
                bug = await peer.call(make(foreign, 1, epoch=2))
                assert bug["ok"] is False and "routing bug" in bug["error"]
                behind = await peer.call(make(foreign, 1, epoch=1))
                assert behind["code"] == "wrong-shard" and behind["view"]["epoch"] == 2
                ahead = await peer.call(make(foreign, 1, epoch=3))
                assert ahead["code"] == "stale-shard" and "view" not in ahead
            assert shard.stats["errors"] == 6
            assert foreign not in shard._locks
            assert (await peer.call(acquire(own, 1, epoch=2)))["ok"] is True
            assert (await peer.call(release(own, 1, epoch=2)))["ok"] is True

    run(scenario())


@pytest.mark.parametrize(
    "field, value",
    [
        ("session", "abc"), ("session", 1.7), ("session", True), ("session", None),
        ("epoch", "0"), ("epoch", False), ("grant_epoch", "x"), ("grant_epoch", [1]),
    ],
)
def test_a_wrong_typed_integer_is_answered_and_costs_nobody_else_their_hold(field, value):
    """One connection carries many sessions.  A frame whose ``session``,
    ``epoch`` or ``grant_epoch`` is not an integer (``true`` is not one) is
    that op's error, like a missing key: it must not end the connection and
    with it every other session's hold."""

    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            peer = await serving.peer()
            assert (await peer.call(acquire("held", 1)))["ok"] is True
            for frame in (acquire("other", 2), release("other", 2, grant_epoch=0)):
                answer = await peer.call({**frame, field: value})
                assert answer["ok"] is False and "must be integers" in answer["error"]
            assert shard.stats["errors"] == 2 and shard.stats["abandoned"] == 0
            assert "other" not in shard._locks
            assert (await peer.call(release("held", 1)))["ok"] is True
            assert shard.stats["acquires"] == shard.stats["releases"] == 1

    run(scenario())


def test_an_op_without_a_string_id_is_refused_before_the_op_cache():
    """The op id is the dedup handle.  An acquire or release with no id, an
    empty one or one that is not a string is refused and counted under
    ``errors``: it is never cached, and it never replays another op's answer
    (an id-less release used to be answered with the id-less acquire's
    cached grant, leave the key held, and strand the next session on it;
    ``7`` and ``"7"`` used to share one cache entry)."""

    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            peer = await serving.peer()
            bare = {"op": "acquire", "key": "k", "session": 1, "epoch": 0}
            for ident in (None, "", 7):
                frame = bare if ident is None else {**bare, "id": ident}
                for op in ("acquire", "release"):
                    answer = await peer.call({**frame, "op": op})
                    assert answer == {
                        "id": ident, "ok": False, "error": "op needs a non-empty string 'id'"
                    }
            assert shard.stats["errors"] == 6 and not shard._op_cache and not shard._held
            assert (await peer.call(acquire("k", 1, uid="7")))["ok"] is True
            assert (await peer.call(release("k", 1)))["ok"] is True
            assert (await peer.call(acquire("k", 2, uid="8")))["ok"] is True
            assert shard.stats["acquires"] == 2 and shard.stats["releases"] == 1

    run(scenario())


def test_a_key_with_a_tree_is_served_unrouted_only_while_the_shard_is_in_the_view():
    """A key's tree stands in for the ring: built under a view that made the
    key this shard's, it stays this shard's while membership only shrinks.
    The flag behind that is membership itself — a shard voted out of the view
    answers ``fenced`` to a packed acquire and a packed release of a key whose
    tree it holds.  And a key first touched after a failover still reads the
    ring, and is still taken over once."""
    own = next(f"k-{i}" for i in range(100) if owner_for_key(f"k-{i}", (0, 1)) == 0)
    foreign = next(f"k-{i}" for i in range(100) if owner_for_key(f"k-{i}", (0, 1)) == 1)

    async def scenario():
        async with Serving(small_spec(shards=2)) as serving:
            shard = serving.shard
            peer = await serving.peer()
            assert (await peer.call(acquire(own, 1)))["ok"] is True
            shard.adopt_view(ClusterView(epoch=1, shards={0: None}).to_dict())  # 1 died
            assert (await peer.call(release(own, 1, grant_epoch=0)))["ok"] is True
            for _ in range(2):
                assert (await peer.call(acquire(foreign, 1, epoch=1)))["ok"] is True
                assert (await peer.call(release(foreign, 1, epoch=1)))["ok"] is True
            assert shard.stats["takeovers"] == 1
            assert (await peer.call(acquire(own, 1, epoch=1)))["ok"] is True
            shard.adopt_view(ClusterView(epoch=2, shards={1: None}).to_dict())  # 0 voted out
            for frame in (acquire(own, 2, epoch=2), release(own, 1, grant_epoch=1, epoch=2)):
                assert encode_frame(frame)[FRAME_HEADER.size] in b"ar"  # packed
                answer = await peer.call(frame)
                assert answer["ok"] is False and answer["code"] == "fenced"
            assert shard._held and shard.stats["errors"] == 2

    run(scenario())


# --------------------------------------------------------------------------- #
# one op path: a packed op and a JSON op are served alike
# --------------------------------------------------------------------------- #
def spelled(frame: Dict[str, Any], spelling: str) -> bytes:
    """``frame`` on the wire: packed, or the JSON text a hand-written peer sends."""
    if spelling == "json":
        body = json.dumps(frame).encode()
        return FRAME_HEADER.pack(len(body)) + body
    wire = encode_frame(frame)
    assert wire[FRAME_HEADER.size : FRAME_HEADER.size + 1] in (b"a", b"r")
    return wire


@pytest.mark.parametrize("route", ROUTES)
def test_a_packed_and_a_json_op_take_one_path(route):
    """One script, spelled packed and then as JSON text: acquire (served on
    ``route``), its duplicate, a waiting acquire and its cancel, the release
    that hands the key to it, and a release of nothing.  The answers match
    but for their ids, and so do the shard's books."""

    async def script(spelling: str):
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            peer, blocker, waiter = [await serving.peer() for _ in range(3)]
            uids = (f"{spelling}-{index}" for index in itertools.count())

            def send(to: Peer, frame: Dict[str, Any]) -> None:
                to.writer.write(spelled(frame, spelling))

            async def call(to: Peer, frame: Dict[str, Any]) -> Dict[str, Any]:
                send(to, frame)
                return await to.answer()

            answers = []
            first = acquire("k", 5, uid=next(uids))
            if route == "task":
                answers.append(await call(blocker, acquire("k", BLOCKER, uid=next(uids))))
            send(peer, first)
            if route == "task":
                await until(lambda: first["id"] in shard._inflight)
                answers.append(await call(blocker, release("k", BLOCKER, grant_epoch=0)))
            answers.append(await peer.answer())
            answers.append(await call(peer, first))  # the duplicate replays the grant
            waiting = acquire("k", 6, uid=next(uids))
            send(waiter, waiting)
            await until(lambda: waiting["id"] in shard._inflight)
            cancel = {"op": "cancel", "target": waiting["id"], "id": next(uids)}
            answers.append(await waiter.call(cancel))
            answers.append(await call(peer, release("k", 5, grant_epoch=0)))
            answers.append(await waiter.answer())  # granted, cancelled, handed back
            answers.append(await call(peer, release("k", 5, grant_epoch=0)))
            return [{k: v for k, v in a.items() if k != "id"} for a in answers], dict(shard.stats)

    packed, text = run(script("packed")), run(script("json"))
    assert packed == text
    answers, stats = packed
    assert answers[-5:] == [
        {"ok": True, "epoch": 0},
        {"ok": True, "cancelled": True},
        {"ok": True},
        {"ok": False, "code": "cancelled", "error": "acquire cancelled by client"},
        {"ok": False, "error": "session 5 does not hold 'k'"},
    ]
    assert (stats["acquires"], stats["cancelled"], stats["errors"]) == (
        2 if route == "task" else 1, 1, 1
    )


#: The fields a client op sends as JSON text instead of packed, and one it packs.
OFF_LAYOUT = {
    "session 2**63": ("k", 2**63),
    "key over 65535 bytes": ("k" * 65_536, 1),
    "lone surrogate": ("k\ud800", 1),
    "non-ASCII key": ("clé-ü", 1),
}


@pytest.mark.parametrize("case", sorted(OFF_LAYOUT))
def test_an_op_whose_fields_do_not_pack_still_completes(case):
    key, session = OFF_LAYOUT[case]

    async def scenario():
        async with Serving(small_spec()) as serving:
            async with LockClient([serving.shard.address], channels=1) as client:
                for _ in range(2):
                    await client.acquire(key, session=session)
                    await client.release(key, session=session)
                stats = await client.stats(0)
            assert stats["acquires"] == stats["releases"] == 2
            assert stats["errors"] == stats["held"] == stats["exclusion_violations"] == 0

    run(scenario())


def test_an_op_sent_on_a_closing_connection_reconnects_and_completes():
    """The socket's transport is closing but ``connection_lost`` has not run
    yet: the op sent on it must fail with ShardUnavailableError — at once, or
    when the connection's end fails every pending op — and the retry loop
    reconnects and completes it, on a new connection, after one retry."""

    async def scenario():
        async with Serving(small_spec()) as serving:
            async with LockClient([serving.shard.address], channels=1) as client:
                await client.acquire("k", session=1)
                await client.release("k", session=1)
                closing = client._conns[(0, 0)]
                closing._proto.transport.close()  # connection_lost is only scheduled
                assert closing._proto.transport.is_closing() and not closing._proto.closed
                await client.acquire("k", session=1)
                assert client.retry_stats["retries"] == 1
                assert client._conns[(0, 0)] is not closing and closing._proto.closed
                await client.release("k", session=1)
                stats = await client.stats(0)
            assert stats["acquires"] == stats["releases"] == 2
            assert stats["errors"] == stats["held"] == stats["exclusion_violations"] == 0

    run(scenario())


# --------------------------------------------------------------------------- #
# dropped frames: the client's retry meets the op cache on either route
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("route", ROUTES)
def test_dropped_frames_lose_no_op_on_either_route(route):
    sessions, pairs = 6, 5
    spec = small_spec(faults=RuntimeFaultSpec(drop_rate=0.1, seed=3))

    async def scenario():
        async with Serving(spec) as serving:
            shard = serving.shard

            async def session(client: LockClient, index: int) -> None:
                # Inline: a key to itself.  Task: everybody on one key.
                key = f"k-{index}" if route == "inline" else "k"
                for _ in range(pairs):
                    await client.acquire(key, session=index)
                    await client.release(key, session=index)

            async with LockClient(
                [shard.address], channels=2, op_timeout=0.15, max_retries=40
            ) as client:
                await asyncio.gather(*(session(client, index) for index in range(sessions)))
                assert client.retry_stats["deadline_timeouts"] > 0
            assert shard.stats["dropped_frames"] > 0
            assert shard.stats["acquires"] == shard.stats["releases"] == sessions * pairs
            assert shard.stats["errors"] == shard.stats["exclusion_violations"] == 0
            assert not shard._held and not shard._holders
            if route == "inline":
                assert serving.tree_messages() == 0
            else:
                assert serving.tree_messages() > 0

    run(scenario())


# --------------------------------------------------------------------------- #
# order
# --------------------------------------------------------------------------- #
def test_waiters_for_an_agent_are_granted_in_arrival_order():
    """star(3): session 1 in its critical section and sessions 2-3 asking the
    tree claim all three agents; 4-6 queue for an agent, and session 7, which
    arrives in the same pass as the first release, goes to the back."""

    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            peer = await serving.peer()
            assert (await peer.call(acquire("k", 1)))["ok"] is True
            frames = {session: acquire("k", session) for session in range(2, 8)}
            peer.send(*(frames[session] for session in range(2, 7)))
            keyed = shard._locks["k"]
            await until(lambda: len(keyed._waiters) == 3 and not keyed._free)
            session_of = {frame["id"]: session for session, frame in frames.items()}
            peer.send(release("k", 1), frames[7])
            order = []
            while len(order) < 6:
                answer = await peer.answer()
                assert answer["ok"] is True
                if answer["id"] in session_of:
                    assert len(shard._holders) == 1
                    order.append(session_of[answer["id"]])
                    peer.send(release("k", order[-1]))
            assert order == [2, 3, 4, 5, 6, 7]
            assert shard.stats["exclusion_violations"] == 0

    run(scenario())


# --------------------------------------------------------------------------- #
# the paper's cost unit, live
# --------------------------------------------------------------------------- #
def test_warm_key_reentry_costs_no_tree_message_and_contention_stays_bounded():
    spec = small_spec(topology=TopologySpec(kind="star", n=4))
    rounds = 25

    async def scenario():
        async with Serving(spec) as serving:
            async with LockClient([serving.shard.address], channels=2) as client:

                async def pairs(key: str, session: int) -> None:
                    for _ in range(rounds):
                        await client.acquire(key, session=session)
                        await client.release(key, session=session)

                async def tree_messages() -> int:
                    return (await client.stats(0))["tree_messages"]

                # Uncontended: the token idles where the last release left it
                # and the claim goes to that agent — zero messages, every time,
                # whichever session asks.
                await pairs("warm", 0)
                before = await tree_messages()
                await pairs("warm", 1)
                await pairs("warm", 2)
                assert await tree_messages() == before == 0

                # Contended: four sessions on one star(4) key pay real
                # REQUEST/PRIVILEGE traffic, at most D + 1 = 3 per acquire.
                await asyncio.gather(*(pairs("hot", session) for session in range(4)))
                spent = await tree_messages() - before
                assert 0 < spent <= 3 * 4 * rounds
                assert spent == serving.tree_messages()
                stats = await client.stats(0)
                assert stats["exclusion_violations"] == stats["held"] == 0

    run(scenario())


# --------------------------------------------------------------------------- #
# the client's half of the op path: freed by refcount
# --------------------------------------------------------------------------- #
def test_the_client_allocates_no_reference_cycle():
    """Every path a client op takes frees what it allocates by refcount.

    With the collector paused, rounds of two sessions contending for one key
    and of an acquire that misses its deadline on both attempts and sends a
    cancel leave nothing for ``gc.collect()`` to find.  (The shard runs in
    this process too; its own op path is pinned in ``test_keyed_lock.py``.)
    """
    rounds = 10

    async def contend(client: LockClient) -> None:
        async def pair(session: int) -> None:
            await client.acquire("k", session=session)
            await asyncio.sleep(0)  # the other session's acquire waits meanwhile
            await client.release("k", session=session)

        await asyncio.gather(pair(1), pair(2))

    async def miss_the_deadline(holder: LockClient, waiter: LockClient) -> None:
        await holder.acquire("k", session=1)
        with pytest.raises(ShardUnavailableError, match="deadline"):
            await waiter.acquire("k", session=3)
        await holder.release("k", session=1)

    async def scenario():
        async with Serving(small_spec()) as serving:
            address = serving.shard.address
            async with LockClient([address], channels=2) as holder, LockClient(
                [address], channels=1, op_timeout=0.05, max_retries=1
            ) as waiter:
                await contend(holder)  # builds the key's tree, which lives on
                await miss_the_deadline(holder, waiter)
                collector_was_on = gc.isenabled()
                gc.collect()
                gc.disable()
                try:
                    for _ in range(rounds):
                        await contend(holder)
                        await miss_the_deadline(holder, waiter)
                    assert gc.collect() == 0
                finally:
                    if collector_was_on:
                        gc.enable()
                assert waiter.retry_stats["deadline_timeouts"] == 2 * (rounds + 1)
            stats = serving.shard.stats
            assert (stats["cancelled"], stats["exclusion_violations"]) == (rounds + 1, 0)

    run(scenario())


# --------------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------------- #
def test_every_grant_is_observed_whichever_route_served_it():
    spec = small_spec(obs=ObsSpec(enabled=True))

    async def scenario():
        async with Serving(spec) as serving:
            shard = serving.shard
            peer, blocker = await serving.peer(), await serving.peer()
            for index in range(3):
                frame = acquire(f"free-{index}", 1)
                assert (await serving.granted("inline", peer, blocker, frame))["ok"]
            for index in range(2):
                frame = acquire(f"held-{index}", 2)
                assert (await serving.granted("task", peer, blocker, frame))["ok"]
            wait = shard.obs.snapshot()["metrics"]["shard.acquire_wait_ms"]
            assert shard.stats["acquires"] == 7  # 3 inline, 2 blockers, 2 waited
            assert wait["observed"] == wait["recorded"] == shard.stats["acquires"]
            # The two that waited met one requester ahead of them at most.
            depth = shard.obs.snapshot()["metrics"]["shard.queue_depth_max"]
            assert 0 <= depth["value"] <= 1

    run(scenario())


# --------------------------------------------------------------------------- #
# the wire
# --------------------------------------------------------------------------- #
def test_a_peer_that_never_reads_stops_being_read_and_starves_nobody():
    """Answers are no longer drained one by one, so reading must be what
    stops: a connection that pipelines without reading may fill its socket
    and one pass's worth of write buffer, not the shard's memory."""
    flood = encode_frame({"op": "cancel", "target": "nothing", "id": 0}) * 200_000

    async def scenario():
        async with Serving(small_spec()) as serving:
            deaf = await serving.peer()
            deaf.writer.transport.pause_reading()
            deaf.send({"op": "cancel", "target": "nothing", "id": 0})
            await until(lambda: len(serving.shard._connections) == 1)
            (shard_side,) = (proto.transport for proto in serving.shard._connections)
            deaf.writer.write(flood)
            await until(shard_side.get_write_buffer_size)  # its socket is full
            async with LockClient([serving.shard.address], channels=1) as client:
                for _ in range(50):
                    await client.acquire("k", session=1)
                    await client.release("k", session=1)
                assert (await client.stats(0))["acquires"] == 50
            # ~9 MB of answers were asked for; what the shard buffered is what
            # one pass could read, and the rest of the flood is still unsent.
            assert shard_side.get_write_buffer_size() < 1_000_000
            assert deaf.writer.transport.get_write_buffer_size() > len(flood) // 2
            deaf.writer.transport.abort()  # a close would wait for the flood to leave

    run(scenario())


def test_a_closed_shard_hangs_up_and_answers_nothing():
    """Closing the listener is not closing the shard: a connection accepted
    earlier must see the hang-up, lose its holds, and get no further answer
    from a shard whose trees are gone."""

    async def scenario():
        async with Serving(small_spec()) as serving:
            shard = serving.shard
            peer = await serving.peer()
            assert (await peer.call(acquire("k", 5)))["ok"] is True
            await asyncio.wait_for(shard.close(), 5.0)
            assert not shard._held and not shard._holders and not shard._connections
            assert shard.stats["abandoned"] == 1
            try:
                peer.send(acquire("fresh", 5))
                answer = await asyncio.wait_for(read_frame(peer.reader), 5.0)
            except (ConnectionError, OSError):
                answer = None  # a reset is a hang-up too
            assert answer is None
            assert not shard._locks

    run(scenario())


def test_shutdown_is_acknowledged_before_the_shard_stops():
    async def scenario():
        async with Serving(small_spec()) as serving:
            serve = asyncio.create_task(serving.shard.serve_until_shutdown())
            peer = await serving.peer()
            # The ack shares its pass with an answer that is still queued.
            peer.send({"op": "view", "id": 1}, {"op": "shutdown", "id": 0})
            assert (await peer.answer())["id"] == 1
            assert await peer.answer() == {"id": 0, "ok": True}
            assert await asyncio.wait_for(read_frame(peer.reader), 5.0) is None
            await asyncio.wait_for(serve, 5.0)

    run(scenario())
