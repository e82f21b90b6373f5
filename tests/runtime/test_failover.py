"""Shard failover: ring reassignment, views, the supervisor, fencing, chaos.

The network-marked tests are the PR's acceptance criteria made executable:
kill one of two shards under hundreds of concurrent sessions and verify that
every session still completes (client retry + key takeover), that no key is
ever granted twice (server-side ledger), and that a grant which died with its
shard is fenced rather than silently forgotten.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inspector import implicit_queue
from repro.exceptions import LockError, LockFencedError, ShardUnavailableError
from repro.runtime.failover import (
    ClusterSupervisor,
    ClusterView,
    owner_for_key,
)
from repro.runtime.service import (
    CONTROL_OP_TIMEOUT,
    LockClient,
    LockServiceCluster,
    LockServiceShard,
    _ClientConnection,
    _KeyedLock,
)
from repro.runtime.transport import InMemoryTransport
from repro.runtime.transport_socket import FRAME_HEADER, decode_body, encode_frame, read_frame
from repro.spec import RuntimeSpec, TopologySpec
from repro.topology import star


def run(coro):
    return asyncio.run(coro)


def small_spec(**overrides) -> RuntimeSpec:
    defaults = dict(
        topology=TopologySpec(kind="star", n=3),
        shards=2,
        socket="unix",
        heartbeat_interval=0.05,
        miss_window=0.5,
    )
    defaults.update(overrides)
    return RuntimeSpec(**defaults)


def key_owned_by(shard: int, shards: int) -> str:
    return next(f"key-{i}" for i in range(10_000) if owner_for_key(f"key-{i}", tuple(range(shards))) == shard)


# --------------------------------------------------------------------------- #
# the generalised ring
# --------------------------------------------------------------------------- #
def test_owner_for_key_matches_shard_for_key_under_full_membership():
    # Under the full membership the owner is a member, whatever order the
    # membership is listed in.
    for shards in (1, 2, 4, 7):
        members = tuple(range(shards))
        for i in range(200):
            key = f"key-{i}"
            assert owner_for_key(key, members) == owner_for_key(key, members[::-1]) < shards


def test_removing_a_shard_only_moves_its_own_keys():
    """Consistent hashing's minimal-movement property — what makes lazy
    takeover safe: a survivor's keys never change owner under failover."""
    members = (0, 1, 2, 3)
    survivors = (0, 1, 3)
    moved = stayed = 0
    for i in range(2000):
        key = f"key-{i}"
        before = owner_for_key(key, members)
        after = owner_for_key(key, survivors)
        if before == 2:
            assert after in survivors
            moved += 1
        else:
            assert after == before
            stayed += 1
    assert moved > 0 and stayed > 0  # both cases actually exercised


@settings(max_examples=60, deadline=None)
@given(
    shards=st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
    keys=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=30, unique=True),
    data=st.data(),
)
def test_a_surviving_shard_keeps_its_keys_through_any_removals(shards, keys, data):
    """The rule a shard's op path routes by: membership only shrinks, so once a
    key's owner survives a removal it owns the key in every later view, down
    to the last shard standing — whatever the shard ids and the removal order."""
    removals = data.draw(st.permutations(sorted(shards)))[:-1]
    view = ClusterView(epoch=0, shards=dict.fromkeys(shards))
    owners = {key: view.owner_for(key) for key in keys}
    for shard in removals:
        view = view.without(shard)
        for key, owner in owners.items():
            now = view.owner_for(key)
            assert now == owner_for_key(key, tuple(view.shards)) and now in view.shards
            if owner != shard:
                assert now == owner, (key, owner, now)
            owners[key] = now


def test_empty_membership_is_an_error():
    with pytest.raises(LockError, match="no live shards"):
        owner_for_key("k", ())


# --------------------------------------------------------------------------- #
# cluster views
# --------------------------------------------------------------------------- #
def test_view_round_trip_and_epoch_bump():
    view = ClusterView(epoch=0, shards={0: "/tmp/a.sock", 1: ("127.0.0.1", 9001)})
    restored = ClusterView.from_dict(view.to_dict())
    assert restored.epoch == 0
    assert restored.shards == {0: "/tmp/a.sock", 1: ("127.0.0.1", 9001)}

    shrunk = view.without(1)
    assert shrunk.epoch == 1
    assert set(shrunk.shards) == {0}
    # every key now lands on the lone survivor
    assert shrunk.owner_for("anything") == 0


# --------------------------------------------------------------------------- #
# fencing epochs (unit: straight against the shard's release path)
# --------------------------------------------------------------------------- #
def test_stale_grant_epoch_is_fenced_not_double_released():
    shard = LockServiceShard(small_spec(), 0)
    shard._view = ClusterView(epoch=2, shards={0: None})
    key = key_owned_by(0, 2)

    fenced = shard._release_op("op-1", key, session=7, grant_epoch=0, keyed=None)
    assert fenced["ok"] is False and fenced["code"] == "fenced"
    assert shard.stats["fenced"] == 1
    # idempotent: the retry replays the cached verdict, the counter stays put
    again = shard._release_op("op-1", key, session=7, grant_epoch=0, keyed=None)
    assert again == fenced
    assert shard.stats["fenced"] == 1

    # a current-epoch release with no hold is still the plain error
    with pytest.raises(LockError, match="does not hold"):
        shard._release_op("op-2", key, session=7, grant_epoch=2, keyed=None)


def test_routing_check_separates_bug_from_stale_views():
    spec = small_spec()
    shard = LockServiceShard(spec, 0)
    shard._view = ClusterView(epoch=3, shards={0: None, 1: None})
    foreign = key_owned_by(1, 2)

    # same epoch, wrong shard: a real client bug, loud
    with pytest.raises(LockError, match="routing bug"):
        shard._check_route(foreign, 3)
    # older epoch: retryable, and the fresh view rides along
    stale = shard._check_route(foreign, 1)
    assert stale["code"] == "wrong-shard" and stale["view"]["epoch"] == 3
    # newer epoch than ours: retryable, no view to offer
    ahead = shard._check_route(foreign, 5)
    assert ahead["code"] == "stale-shard" and "view" not in ahead


def test_fenced_out_shard_answers_fenced_for_every_op():
    """A shard that adopts a view excluding itself must self-fence: any
    acquire or release it still receives is answered code=fenced."""
    shard = LockServiceShard(small_spec(), 0)
    shard.adopt_view(ClusterView(epoch=1, shards={1: None}).to_dict())
    for key in ("anything", key_owned_by(0, 2)):
        fenced = shard._check_route(key, 0)
        assert fenced["ok"] is False and fenced["code"] == "fenced"


# --------------------------------------------------------------------------- #
# takeover trees
# --------------------------------------------------------------------------- #
def test_takeover_tree_regenerates_exactly_one_token():
    async def scenario():
        topology = small_spec().topology.build()
        keyed = _KeyedLock(topology, InMemoryTransport(), takeover=True)
        holders = [node.node_id for node in keyed.nodes.values() if node.holding]
        assert len(holders) == 1  # minted exactly one replacement PRIVILEGE
        ticket = keyed.try_acquire()  # and the tree actually works
        assert ticket in holders
        keyed.release(ticket)

    run(scenario())


def test_live_implicit_queue_anchors_on_the_executing_holder():
    """One granted acquire plus three queued ones: the FOLLOW chain chased
    from the agent *in its critical section* is the order of the next three
    grants, and ``queue_depth`` reads it (not the requesting-count fallback)."""

    async def scenario():
        keyed = _KeyedLock(star(4), InMemoryTransport())
        tickets = [keyed.try_acquire()]
        for _ in range(3):  # every REQUEST is delivered and chained on return
            keyed.acquire_then(tickets.append)
        assert len(tickets) == 1
        predicted = implicit_queue(keyed)
        assert len(predicted) == 3
        assert keyed.queue_depth() == 3
        granted = []
        for served in range(1, 4):
            keyed.release(tickets[-1])
            assert len(tickets) == served + 1
            granted.append(keyed.token_location())
        assert granted == predicted == tickets[1:]
        assert keyed.queue_depth() == 0
        keyed.release(tickets[-1])

    run(scenario())


def test_takeover_detected_across_multiple_epochs():
    """A key orphaned at epoch 1 but first touched after the epoch-2 failover
    is still a takeover: the immediately previous view already shows this
    shard as owner, so detection must look across the whole view history."""
    spec = small_spec(shards=3)
    key = "key-0"
    dead_first = owner_for_key(key, (0, 1, 2))
    survivors = tuple(s for s in (0, 1, 2) if s != dead_first)
    ours = owner_for_key(key, survivors)
    dead_second = next(s for s in survivors if s != ours)

    async def scenario():
        shard = LockServiceShard(spec, ours)
        full = ClusterView(epoch=0, shards={0: None, 1: None, 2: None})
        shard.adopt_view(full.without(dead_first).to_dict())
        shard.adopt_view(full.without(dead_first).without(dead_second).to_dict())
        # First touch only now, two epochs after the key's owner died.
        orphaned = shard._keyed_lock(key)
        assert shard.stats["takeovers"] == 1
        assert sum(node.holding for node in orphaned.nodes.values()) == 1
        # A key this shard owned from epoch 0 is not a takeover.
        native = next(
            f"key-{i}"
            for i in range(10_000)
            if owner_for_key(f"key-{i}", (0, 1, 2)) == ours
        )
        shard._keyed_lock(native)
        assert shard.stats["takeovers"] == 1
        await shard.close()

    run(scenario())


# --------------------------------------------------------------------------- #
# the supervisor (real pipes + processes, no sockets)
# --------------------------------------------------------------------------- #
def test_supervisor_detects_exit_and_pushes_the_new_view():
    context = multiprocessing.get_context()
    processes = [context.Process(target=time.sleep, args=(30,)) for _ in range(2)]
    for process in processes:
        process.start()
    parents, children = zip(*(context.Pipe(duplex=True) for _ in processes))
    view = ClusterView(epoch=0, shards={0: None, 1: None})
    supervisor = ClusterSupervisor(
        channels={i: (parents[i], processes[i]) for i in range(2)},
        view=view,
        heartbeat_interval=0.02,
        miss_window=5.0,  # only the sentinel should fire in this test
    )
    supervisor.start()
    try:
        processes[1].kill()
        deadline = time.monotonic() + 5.0
        while supervisor.view.epoch == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert supervisor.view.epoch == 1
        assert set(supervisor.view.shards) == {0}
        (event,) = supervisor.events
        assert event.shard == 1 and event.reason == "exited"
        assert event.detected_at >= event.last_heartbeat
        # the survivor got the push; ack it and the event completes
        assert children[0].poll(5.0)
        kind, pushed = children[0].recv()
        assert kind == "view" and pushed["epoch"] == 1
        children[0].send(("view-ack", 0, 1))
        deadline = time.monotonic() + 5.0
        while supervisor.events[0].completed_at is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert supervisor.events[0].completed_at is not None
    finally:
        supervisor.stop()
        for process in processes:
            process.kill()
            process.join(timeout=5.0)


def test_missed_heartbeat_zombie_gets_the_fencing_view():
    """A shard declared dead for silence while its process survives (a stall)
    must still be told: the supervisor pushes the epoch-bumped view down the
    zombie's own pipe so it adopts a view excluding itself and self-fences,
    instead of serving stale-view clients alongside its replacement."""
    context = multiprocessing.get_context()
    processes = [context.Process(target=time.sleep, args=(30,)) for _ in range(2)]
    for process in processes:
        process.start()
    parents, children = zip(*(context.Pipe(duplex=True) for _ in processes))
    supervisor = ClusterSupervisor(
        channels={i: (parents[i], processes[i]) for i in range(2)},
        view=ClusterView(epoch=0, shards={0: None, 1: None}),
        heartbeat_interval=0.02,
        miss_window=0.3,  # shard 1 never heartbeats; its process stays alive
    )
    supervisor.start()
    try:
        deadline = time.monotonic() + 5.0
        while supervisor.view.epoch == 0 and time.monotonic() < deadline:
            children[0].send(("heartbeat", 0))  # shard 0 keeps proving liveness
            time.sleep(0.02)
        assert supervisor.view.epoch == 1
        assert set(supervisor.view.shards) == {0}
        (event,) = supervisor.events
        assert event.shard == 1 and event.reason == "missed-heartbeats"
        # the zombie's own pipe got the push, and the view excludes it
        assert children[1].poll(5.0)
        kind, pushed = children[1].recv()
        assert kind == "view" and pushed["epoch"] == 1
        assert "1" not in pushed["shards"]
    finally:
        supervisor.stop()
        for process in processes:
            process.kill()
            process.join(timeout=5.0)


# --------------------------------------------------------------------------- #
# client retry semantics (stubbed connections, no sockets)
# --------------------------------------------------------------------------- #
def test_acquire_fenced_reroutes_while_release_fenced_raises():
    """code=fenced means 'your grant lost its protection' — true only for a
    release.  An acquire that reached a fenced-out shard holds nothing: the
    client must refresh the view and reroute, not surface a fencing error."""

    async def scenario():
        client = LockClient(["/tmp/a.sock", "/tmp/b.sock"], op_timeout=1.0)
        key = key_owned_by(0, 2)
        fresh = ClusterView(epoch=1, shards={1: "/tmp/b.sock"})
        calls = []

        class StubConn:
            def __init__(self, shard: int) -> None:
                self.shard = shard

            def send(self, uid, frame, timeout=None):
                # An op: its packed frame in, the future of its answer out.
                future = asyncio.get_running_loop().create_future()
                future.set_result(self.answer(decode_body(frame[FRAME_HEADER.size :])))
                return future

            async def call(self, uid, payload, timeout=None):
                return self.answer(payload)

            def answer(self, payload):
                op = payload["op"]
                calls.append((self.shard, op))
                if op == "view":
                    return {"ok": True, "epoch": 1, "view": fresh.to_dict()}
                if op == "acquire":
                    if self.shard == 0:
                        return {"ok": False, "code": "fenced", "error": "fenced out"}
                    return {"ok": True, "epoch": 1}
                if op == "release":
                    return {"ok": False, "code": "fenced", "error": "grant fenced"}
                return {"ok": True, "cancelled": False}

        async def stub_connection(shard, channel):
            return StubConn(shard)

        client._connection = stub_connection
        await client.acquire(key, session=3)  # fenced on 0 -> rerouted to 1
        assert client.view.epoch == 1
        assert client.retry_stats["reroutes"] == 1
        assert (0, "acquire") in calls and (1, "acquire") in calls
        with pytest.raises(LockFencedError):
            await client.release(key, session=3)
        assert client.retry_stats["fenced"] == 1
        await client.close()

    run(scenario())


@pytest.mark.parametrize("op_timeout", [None, 0.25])
def test_a_view_refresh_gets_the_control_deadline(op_timeout):
    """Every control call gets ``op_timeout``, or ``CONTROL_OP_TIMEOUT`` when
    that is unset — the ``view`` a retry asks every other shard for included."""

    async def scenario():
        client = LockClient(["/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"], op_timeout=op_timeout)
        asked = []

        async def stub_connection(shard, channel):
            return shard

        async def control(conn, frame, timeout):
            asked.append((conn, frame["op"], timeout))
            raise asyncio.TimeoutError  # unanswered: the refresh asks the next one

        client._connection = stub_connection
        client._control = control
        await client._refresh_view(suspect=1)
        await client.close()
        return asked

    deadline = CONTROL_OP_TIMEOUT if op_timeout is None else op_timeout
    assert run(scenario()) == [(0, "view", deadline), (2, "view", deadline)]


@pytest.mark.network
def test_call_on_a_connection_being_closed_fails_fast(tmp_path):
    """A session picks a connection, a sibling's retry starts closing it (its
    shard just died), and only then does the session's call run.  Nothing
    drains the write any more, so the call itself must notice: a frame queued
    on the closing connection is dropped, and waiting for its answer would
    hold the op until its deadline."""

    async def scenario():
        async def hang_up(reader, writer):
            writer.close()

        path = str(tmp_path / "dead.sock")
        server = await asyncio.start_unix_server(hang_up, path=path)
        # Twice: once the peer's hang-up has reached the connection, and once
        # a local close gets there first.
        for local_close in (False, True):
            conn = _ClientConnection(path)
            await conn.open()
            if local_close:
                conn.close()
            else:
                deadline = time.monotonic() + 5.0
                while not conn._proto.is_closing():  # the peer's EOF has been seen
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.001)
            with pytest.raises(ShardUnavailableError):
                await asyncio.wait_for(conn.call("op-1", {"op": "view", "id": "op-1"}), timeout=1.0)
            assert not conn._pending
            conn.close()
        server.close()
        await server.wait_closed()

    run(scenario())


@pytest.mark.network
def test_call_deadline_is_a_timer_on_the_pending_future(tmp_path):
    """``call(..., timeout)`` arms one timer: an unanswered op ends in
    ``asyncio.TimeoutError`` with nothing left pending, an answered one
    cancels its timer, and the connection serves the next call either way."""

    async def scenario():
        async def answer_even_ids(reader, writer):
            while (frame := await read_frame(reader)) is not None:
                if frame["id"] % 2 == 0:
                    writer.write(encode_frame({"id": frame["id"], "ok": True}))
            writer.close()

        path = str(tmp_path / "half-deaf.sock")
        server = await asyncio.start_unix_server(answer_even_ids, path=path)
        conn = _ClientConnection(path)
        await conn.open()
        loop = asyncio.get_running_loop()
        started = loop.time()
        with pytest.raises(asyncio.TimeoutError):
            await conn.call(1, {"op": "view", "id": 1}, 0.05)
        assert 0.04 <= loop.time() - started < 1.0 and not conn._pending
        assert await conn.call(2, {"op": "view", "id": 2}, 30.0) == {"id": 2, "ok": True}
        assert not conn._pending
        assert not [timer for timer in loop._scheduled if not timer.cancelled()]
        conn.close()
        server.close()
        await server.wait_closed()
        await asyncio.sleep(0.01)  # the peer reads our EOF and closes its end

    run(scenario())


@pytest.mark.network
@pytest.mark.parametrize("stray_id", [[1], {"a": 1}, None, 1.5], ids=repr)
def test_a_reply_with_an_id_nobody_sent_is_ignored(tmp_path, stray_id):
    """A reply's id is looked up among the pending calls; one that is not
    even hashable is as much nobody's as one that is merely unknown, and must
    not take the connection — and every caller multiplexed on it — down."""

    async def scenario():
        async def answer_twice(reader, writer):
            while (frame := await read_frame(reader)) is not None:
                writer.write(encode_frame({"id": stray_id, "ok": True}))
                writer.write(encode_frame({"id": frame["id"], "ok": True}))
            writer.close()

        path = str(tmp_path / "chatty.sock")
        server = await asyncio.start_unix_server(answer_twice, path=path)
        conn = _ClientConnection(path)
        await conn.open()
        for uid in ("op-1", "op-2"):
            assert await conn.call(uid, {"op": "view", "id": uid}, 5.0) == {"id": uid, "ok": True}
        assert not conn._pending and not conn._proto.is_closing()
        conn.close()
        server.close()
        await server.wait_closed()
        await asyncio.sleep(0.01)  # the peer reads our EOF and closes its end

    run(scenario())


# --------------------------------------------------------------------------- #
# end to end: fencing across a real crash
# --------------------------------------------------------------------------- #
@pytest.mark.network
def test_fenced_holder_cannot_release_after_takeover():
    spec = small_spec()
    victim_key = key_owned_by(1, 2)

    async def scenario(cluster):
        async with LockClient(cluster.addresses, op_timeout=5.0) as client:
            await client.acquire(victim_key, session=1)
            cluster.kill_shard(1)
            # another session takes the key over on the survivor...
            await client.acquire(victim_key, session=2)
            await client.release(victim_key, session=2)
            # ...so the pre-crash grant is fenced, loudly
            with pytest.raises(LockFencedError):
                await client.release(victim_key, session=1)
            stats = await client.stats(0)
            assert stats["takeovers"] >= 1
            assert stats["fenced"] >= 1
            assert stats["exclusion_violations"] == 0

    with LockServiceCluster(spec) as cluster:
        run(scenario(cluster))
        (event,) = cluster.failover_events
        assert event.shard == 1 and event.completed_at is not None


@pytest.mark.network
def test_client_without_survivors_raises_shard_unavailable():
    spec = small_spec(shards=2)

    async def scenario(cluster):
        async with LockClient(
            cluster.addresses, op_timeout=1.0, max_retries=2
        ) as client:
            cluster.kill_shard(0)
            cluster.kill_shard(1)
            with pytest.raises(ShardUnavailableError):
                await client.acquire("any-key", session=0)

    with LockServiceCluster(spec) as cluster:
        run(scenario(cluster))


@pytest.mark.network
def test_retry_exhaustion_cancels_the_inflight_acquire():
    """A client that gives up on a contended acquire must not leave the
    shard's still-inflight op to grant into a hold nobody will release: the
    exhaustion path sends a cancel, the grant is handed straight back, and
    the key stays available to everyone else."""
    spec = small_spec(shards=1)

    async def scenario(cluster):
        async with LockClient(cluster.addresses) as holder:
            async with LockClient(
                cluster.addresses, op_timeout=0.3, max_retries=1
            ) as impatient:
                await holder.acquire("contested", session=1)
                with pytest.raises(ShardUnavailableError):
                    await impatient.acquire("contested", session=2)
                assert impatient.retry_stats["cancels"] == 1
            await holder.release("contested", session=1)
            # the cancelled grant handed its token back: the key is not
            # wedged behind a hold bound to the impatient client
            await asyncio.wait_for(holder.acquire("contested", session=3), 5.0)
            await holder.release("contested", session=3)
            # the cancelled grant may be processed after session 3's: poll
            deadline = time.monotonic() + 5.0
            stats = await holder.stats(0)
            while stats["cancelled"] == 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
                stats = await holder.stats(0)
            assert stats["cancelled"] == 1
            assert stats["exclusion_violations"] == 0

    with LockServiceCluster(spec) as cluster:
        run(scenario(cluster))


# --------------------------------------------------------------------------- #
# end to end: the acceptance stress — kill a shard under 240 sessions
# --------------------------------------------------------------------------- #
@pytest.mark.network
def test_mid_run_shard_kill_loses_no_session_and_no_exclusion():
    spec = small_spec()
    sessions = 240
    ops = 6
    locks = 16

    async def scenario(cluster):
        async with LockClient(cluster.addresses, op_timeout=5.0) as client:
            holders = {}  # key -> (session, grant epoch): client-side cross-check
            true_violations = []
            completed = []
            fenced = 0
            pairs = 0

            async def worker(session_id):
                nonlocal fenced, pairs
                session = client.session(session_id)
                for n in range(ops):
                    key = f"lock-{(session_id * 5 + n) % locks}"
                    await session.acquire(key)
                    epoch = client._grants[(session_id, key)]
                    if key in holders:
                        other_session, other_epoch = holders[key]
                        if other_epoch == epoch:
                            # overlap inside one epoch is a genuine double
                            # grant; across epochs it is the fencing window
                            true_violations.append((key, other_session, session_id))
                    holders[key] = (session_id, epoch)
                    await asyncio.sleep(0)
                    if holders.get(key) == (session_id, epoch):
                        del holders[key]
                    try:
                        await session.release(key)
                    except LockFencedError:
                        fenced += 1
                    pairs += 1
                    if pairs == sessions:
                        # Mid-run by count, not by clock: five sixths of
                        # the pairs are still to come, however fast the
                        # service is.
                        cluster.kill_shard(1)
                completed.append(session_id)

            await asyncio.gather(*(worker(s) for s in range(sessions)))

            assert len(completed) == sessions  # no session lost to the crash
            assert true_violations == []
            stats = await client.stats(0)
            assert stats["exclusion_violations"] == 0  # the server-side ledger
            assert client.view.epoch == 1
            return fenced

    with LockServiceCluster(spec) as cluster:
        started = time.monotonic()
        run(scenario(cluster))
        wall = time.monotonic() - started
        (event,) = cluster.failover_events
        assert event.completed_at is not None
        takeover = event.completed_at - event.last_heartbeat
        assert takeover < 5.0  # bounded takeover, far under the op deadline
        assert wall < 60.0
