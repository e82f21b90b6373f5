"""A key's agent pool and the shard's waiting route, with nothing to wait for.

The token tree delivers on the stack of whoever sends, so every case here is
plain calls and immediate assertions: no socket, no task, no sleep.  A shard
is driven through ``_handle_op`` with a list's ``append`` as the connection's
``reply``.
"""

from __future__ import annotations

import asyncio
import gc
from typing import Any, Dict, List

from repro.runtime.failover import ClusterView, owner_for_key
from repro.runtime.service import LockServiceShard, _KeyedLock
from repro.spec import RuntimeSpec, TopologySpec
from repro.topology import star


def ask(keyed: _KeyedLock, granted) -> None:
    """An acquire the way the shard makes one: the token at hand, or a callback."""
    ticket = keyed.try_acquire()
    if ticket is None:
        keyed.acquire_then(granted)
    else:
        granted(ticket)


def test_four_agents_and_six_waiters_are_granted_in_arrival_order():
    keyed = _KeyedLock("k", star(4))
    grants: List[tuple] = []
    for asker in range(10):
        ask(keyed, lambda ticket, asker=asker: grants.append((asker, ticket)))
    assert [asker for asker, _ in grants] == [0]  # one holder, three asking, six queued
    assert not keyed._free and len(keyed._waiters) == 6
    for served in range(1, 10):
        keyed.release(grants[-1][1])
        assert [asker for asker, _ in grants] == list(range(served + 1))
        assert keyed.cluster.token_location() == grants[-1][1]
    keyed.release(grants[-1][1])
    assert keyed._free == set(keyed.cluster.nodes) and not keyed._waiters
    assert sum(node.cs_entries for node in keyed.cluster.nodes.values()) == 10


def test_two_thousand_abandoned_waiters_hand_the_token_on_in_one_call():
    keyed = _KeyedLock("k", star(4))
    holder = keyed.try_acquire()
    handed_on = []

    def abandoned(ticket: int) -> None:
        handed_on.append(ticket)
        keyed.release(ticket)

    last = []
    for _ in range(2000):
        keyed.acquire_then(abandoned)
    keyed.acquire_then(last.append)
    keyed.release(holder)  # no RecursionError: the stack does not grow per hand-off
    assert len(handed_on) == 2000 and len(last) == 1
    assert keyed.cluster.node(last[0]).in_critical_section


# --------------------------------------------------------------------------- #
# the shard's waiting route
# --------------------------------------------------------------------------- #
def spec(**overrides: Any) -> RuntimeSpec:
    return RuntimeSpec(
        **{"topology": TopologySpec(kind="star", n=4), "shards": 1, "socket": "unix", **overrides}
    )


class Connection:
    """What a shard keeps of a connection: its state, and where answers go."""

    def __init__(self, shard: LockServiceShard) -> None:
        self.shard = shard
        self.state = {"open": True}
        self.answers: List[Dict[str, Any]] = []

    def op(self, op: str, uid: str, **fields: Any) -> None:
        frame = {"op": op, "id": uid, "epoch": 0, **fields}
        self.shard._handle_op(frame, self.state, self.answers.append)

    def take(self) -> List[Dict[str, Any]]:
        answers = list(self.answers)
        self.answers.clear()  # in place: waiting acquires hold its ``append``
        return answers


def test_a_cancelled_and_an_abandoned_waiter_hand_the_token_on_within_the_release():
    async def scenario():
        shard = LockServiceShard(spec(), 0)
        holder, gone, patient = Connection(shard), Connection(shard), Connection(shard)
        holder.op("acquire", "a-1", key="k", session=1)
        assert holder.take() == [{"ok": True, "epoch": 0, "id": "a-1"}]
        patient.op("acquire", "a-2", key="k", session=2)
        gone.op("acquire", "a-3", key="k", session=3)
        patient.op("acquire", "a-4", key="k", session=4)
        patient.op("cancel", "c-1", target="a-2")
        gone.state["open"] = False
        assert set(shard._inflight) == {"a-2", "a-3", "a-4"}
        assert patient.take() == [{"id": "c-1", "ok": True, "cancelled": True}]

        holder.op("release", "r-1", key="k", session=1)
        # One call: the cancelled acquire and the abandoned one were granted
        # and released, the third got the lock, and only then the release's ok.
        assert [answer["id"] for answer in patient.take()] == ["a-2", "a-4"]
        assert gone.take() == [
            {"ok": False, "code": "abandoned", "error": "connection lost", "id": "a-3"}
        ]
        assert holder.take() == [{"ok": True, "id": "r-1"}]
        assert not shard._inflight and shard._holders == {"k": 4}
        stats = shard.stats
        assert (stats["acquires"], stats["cancelled"], stats["abandoned"]) == (2, 1, 1)
        assert stats["exclusion_violations"] == stats["errors"] == 0
        patient.op("release", "r-2", key="k", session=4)
        assert not shard._held and stats["releases"] == 2
        await shard.close()

    asyncio.run(scenario())


def test_a_shards_task_count_does_not_depend_on_its_key_count():
    async def scenario():
        counts = []
        for keys in (8, 256):
            shard = LockServiceShard(spec(), 0)
            connection = Connection(shard)
            for index in range(keys):
                # Two sessions per key, so every key also has an acquire waiting.
                connection.op("acquire", f"a-{index}", key=f"k-{index}", session=1)
                connection.op("acquire", f"b-{index}", key=f"k-{index}", session=2)
            assert len(shard._locks) == keys and len(shard._inflight) == keys
            counts.append(len(asyncio.all_tasks()))
            await shard.close()
        assert counts == [1, 1]  # this test's own

    asyncio.run(scenario())


def test_the_op_path_allocates_no_reference_cycle():
    """Every route through ``_handle_op`` frees what it allocates by refcount.

    With the collector paused, rounds of an inline acquire, two waiting
    acquires (one cancelled), an abandoned one, the releases that hand the
    token on, a wrong-shard and a same-epoch misroute and two ``ok: false``
    refusals leave nothing for ``gc.collect()`` to find.
    """
    own = next(f"k-{i}" for i in range(100) if owner_for_key(f"k-{i}", (0, 1)) == 0)
    foreign = next(f"k-{i}" for i in range(100) if owner_for_key(f"k-{i}", (0, 1)) == 1)

    def one_round(shard: LockServiceShard, index: int) -> None:
        holder, patient, gone = Connection(shard), Connection(shard), Connection(shard)

        def op(connection: Connection, name: str, tag: str, **fields: Any) -> None:
            connection.op(name, f"{index}-{tag}", **{"epoch": 2, **fields})

        def answers(connection: Connection) -> List[tuple]:
            return [
                (a["id"].split("-")[-1], a["ok"], a.get("code")) for a in connection.take()
            ]

        op(holder, "acquire", "a1", key=own, session=1)
        op(patient, "acquire", "a2", key=own, session=2)
        op(gone, "acquire", "a3", key=own, session=3)
        op(patient, "acquire", "a4", key=own, session=4)
        op(patient, "cancel", "c1", target=f"{index}-a2")
        gone.state["open"] = False
        op(holder, "acquire", "a5", key=own, session=1)  # already holds it
        op(holder, "release", "r1", key=own, session=1)
        op(patient, "release", "r2", key=own, session=4)
        op(holder, "release", "r3", key=own, session=1)  # holds nothing
        op(holder, "acquire", "w1", key=foreign, session=1, epoch=1)
        op(holder, "release", "b1", key=foreign, session=1)  # same epoch
        assert answers(holder) == [
            ("a1", True, None), ("a5", False, None), ("r1", True, None),
            ("r3", False, None), ("w1", False, "wrong-shard"), ("b1", False, None),
        ]
        assert answers(patient) == [
            ("c1", True, None), ("a2", False, "cancelled"), ("a4", True, None),
            ("r2", True, None),
        ]
        assert answers(gone) == [("a3", False, "abandoned")]

    async def scenario():
        shard = LockServiceShard(spec(shards=2), 0)
        shard.adopt_view(ClusterView(epoch=2, shards={0: None, 1: None}).to_dict())
        one_round(shard, -1)  # builds the key's tree, which lives on
        collector_was_on = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for index in range(40):
                one_round(shard, index)
            assert gc.collect() == 0
        finally:
            if collector_was_on:
                gc.enable()
        stats = shard.stats
        assert (stats["cancelled"], stats["abandoned"], stats["errors"]) == (41, 41, 4 * 41)
        assert stats["exclusion_violations"] == 0 and not shard._inflight
        await shard.close()

    asyncio.run(scenario())
