"""How many Python calls one lock op makes on both ends of the wire, counted,
not timed.

One client session on one channel and an in-process shard on a real unix
socket share one event loop, so a single ``sys.setprofile`` hook sees both
ends of an acquire + release pair: the client's retry loop and its
connection, the ``FrameProtocol`` that cuts each frame on either side, the
shard's op path and the key's token tree.  As in
``tests/sim/test_call_counts.py``, only ``call`` events of functions defined
under ``src/repro`` count (comprehensions excluded: 3.12 inlines them), so the
figures are exact and the same on every CPython CI runs (3.9, 3.11, 3.12).

Two pairs are pinned on a warm key: an *uncontended* one — the token idles on
a free agent, the paper's zero-message re-entry, which is what
``svc_wide_k1024`` runs almost every time — and a *contended* one, two
sessions on one key, where the second acquire waits in the tree and is
granted from the stack of the first release.  A third table pins the
*hand-off* by itself, with no socket and no loop: one key's tree
(``_KeyedLock``) on its own pump, an agent in the critical section, a second
agent asking (its REQUEST) and the first releasing (the PRIVILEGE and the
grant).  A change that moves a count re-pins it here and records in
``CHANGES.md`` the before/after measurement that justifies the move; a
failure prints the per-function table, pinned against now, largest move
first.

``python -m tests.runtime.test_op_path_calls`` (from the repository root,
``src`` on ``PYTHONPATH``) prints all three tables.
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile
from collections import Counter
from typing import Dict

import pytest

from repro.runtime.service import LockClient, LockServiceShard, _KeyedLock
from repro.runtime.transport import InMemoryTransport
from repro.spec import RuntimeSpec, TopologySpec
from repro.topology import star

from ..sim.test_call_counts import _INLINED, _PACKAGE, moved_table

#: pair -> calls per function for one acquire + release (both sessions' in
#: the contended pair), and for the hand-off alone.
PINNED: Dict[str, Dict[str, int]] = {
    "uncontended": {
        "core/node.py:release_cs": 1,
        "core/node.py:request_cs": 1,
        "runtime/node_runtime.py:_enter_critical_section": 1,
        "runtime/service.py:_acquire_op": 1,
        "runtime/service.py:_answer": 2,
        "runtime/service.py:_call_loop": 4,
        "runtime/service.py:_grant": 1,
        "runtime/service.py:_lock_op": 2,
        "runtime/service.py:_on_answer": 2,
        "runtime/service.py:_release_op": 1,
        "runtime/service.py:acquire": 1,
        "runtime/service.py:release": 2,
        "runtime/service.py:send": 2,
        "runtime/service.py:try_acquire": 1,
        "runtime/transport_socket.py:cut_ack": 1,
        "runtime/transport_socket.py:cut_acquire": 1,
        "runtime/transport_socket.py:cut_grant": 1,
        "runtime/transport_socket.py:cut_release": 1,
        "runtime/transport_socket.py:data_received": 4,
        "runtime/transport_socket.py:flush": 4,
        "runtime/transport_socket.py:pack_ack": 1,
        "runtime/transport_socket.py:pack_acquire": 1,
        "runtime/transport_socket.py:pack_grant": 1,
        "runtime/transport_socket.py:pack_release": 1,
        "runtime/transport_socket.py:send_frame": 4,
    },
    "contended": {
        "core/messages.py:__init__": 2,
        "core/node.py:_handle_privilege": 1,
        "core/node.py:_handle_request": 2,
        "core/node.py:release_cs": 2,
        "core/node.py:request_cs": 2,
        "runtime/cluster.py:send": 3,
        "runtime/node_runtime.py:_check_may_ask": 1,
        "runtime/node_runtime.py:_enter_critical_section": 2,
        "runtime/node_runtime.py:acquire_then": 1,
        "runtime/service.py:_acquire_granted": 1,
        "runtime/service.py:_acquire_op": 2,
        "runtime/service.py:_answer": 4,
        "runtime/service.py:_call_loop": 8,
        "runtime/service.py:_grant": 2,
        "runtime/service.py:_lock_op": 4,
        "runtime/service.py:_on_answer": 4,
        "runtime/service.py:_release_op": 2,
        "runtime/service.py:acquire": 2,
        "runtime/service.py:acquire_then": 1,
        "runtime/service.py:release": 4,
        "runtime/service.py:send": 4,
        "runtime/service.py:try_acquire": 2,
        "runtime/transport.py:drain": 2,
        "runtime/transport.py:plain_call": 1,
        "runtime/transport.py:post": 1,
        "runtime/transport_socket.py:cut_ack": 2,
        "runtime/transport_socket.py:cut_acquire": 2,
        "runtime/transport_socket.py:cut_grant": 2,
        "runtime/transport_socket.py:cut_release": 2,
        "runtime/transport_socket.py:data_received": 6,
        "runtime/transport_socket.py:flush": 6,
        "runtime/transport_socket.py:pack_ack": 2,
        "runtime/transport_socket.py:pack_acquire": 2,
        "runtime/transport_socket.py:pack_grant": 2,
        "runtime/transport_socket.py:pack_release": 2,
        "runtime/transport_socket.py:send_frame": 8,
    },
    "handoff": {
        "core/messages.py:__init__": 1,
        "core/node.py:_handle_privilege": 1,
        "core/node.py:_handle_request": 1,
        "core/node.py:release_cs": 1,
        "core/node.py:request_cs": 1,
        "runtime/cluster.py:send": 2,
        "runtime/node_runtime.py:_check_may_ask": 1,
        "runtime/node_runtime.py:_enter_critical_section": 1,
        "runtime/node_runtime.py:acquire_then": 1,
        "runtime/service.py:acquire_then": 1,
        "runtime/service.py:release": 1,
        "runtime/transport.py:drain": 2,
        "runtime/transport.py:plain_call": 1,
        "runtime/transport.py:post": 1,
    },
}


async def _pair(client: LockClient, session: int) -> None:
    await client.acquire("k", session=session)
    await asyncio.sleep(0)  # a contending session's acquire reaches the shard meanwhile
    await client.release("k", session=session)


def _counter(calls: Counter):
    """A ``sys.setprofile`` hook counting the package's calls into ``calls``."""

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_PACKAGE) and code.co_name not in _INLINED:
                module = code.co_filename[len(_PACKAGE):].replace(os.sep, "/")
                calls[f"{module}:{code.co_name}"] += 1

    return profile


def count_handoff() -> Dict[str, int]:
    """One contended hand-off on a ``star(4)`` key's tree, no socket and no
    loop: agent 1 is in the critical section, agent 2 asks, agent 1 releases
    and agent 2 is granted.  The package's calls per ``<module>:<function>``."""
    transport = InMemoryTransport()
    keyed = _KeyedLock(star(4), transport)
    granted: list = []
    holder = keyed.try_acquire()
    calls: Counter = Counter()
    sys.setprofile(_counter(calls))
    try:
        keyed.acquire_then(granted.append)
        keyed.release(holder)
    finally:
        sys.setprofile(None)
    assert (holder, granted, transport.messages_sent) == (1, [2], 2)  # a REQUEST, a PRIVILEGE
    return dict(calls)


def count_pair(pair: str) -> Dict[str, int]:
    """Run ``pair`` (``"uncontended"``, ``"contended"``, or ``"handoff"`` for
    :func:`count_handoff`) once on a warm key; the package's calls per
    ``<module>:<function>``, both ends together."""
    if pair == "handoff":
        return count_handoff()
    sessions = {"uncontended": (1,), "contended": (1, 2)}[pair]
    calls: Counter = Counter()
    profile = _counter(calls)

    async def scenario() -> None:
        spec = RuntimeSpec(topology=TopologySpec(kind="star", n=4), shards=1, socket="unix")
        shard = LockServiceShard(spec, 0)
        with tempfile.TemporaryDirectory(prefix="repro-") as directory:
            await shard.start(os.path.join(directory, "s.sock"))
            try:
                async with LockClient([shard.address], channels=1) as client:
                    # Warm: the key's tree built, the connection open, the
                    # token idling on the agent the next acquire claims.
                    await asyncio.gather(*(_pair(client, session) for session in (1, 2)))
                    for session in sessions:
                        await _pair(client, session)
                    sys.setprofile(profile)
                    try:
                        await asyncio.gather(*(_pair(client, session) for session in sessions))
                    finally:
                        sys.setprofile(None)
                    assert client.retry_stats["retries"] == client.retry_stats["reroutes"] == 0
            finally:
                await shard.close()
        assert shard.stats["exclusion_violations"] == shard.stats["errors"] == 0

    asyncio.run(scenario())
    return dict(calls)


def table(calls: Dict[str, int]) -> str:
    """Calls per function, most first, with the total."""
    width = max(len(name) for name in calls)
    rows = sorted(calls.items(), key=lambda row: (-row[1], row[0]))
    lines = [f"{name:<{width}} {count:>5}" for name, count in rows]
    return "\n".join(lines + [f"{'total':<{width}} {sum(calls.values()):>5}"])


@pytest.mark.parametrize(
    "pair",
    [
        pytest.param("uncontended", marks=pytest.mark.network),
        pytest.param("contended", marks=pytest.mark.network),
        "handoff",
    ],
)
def test_a_lock_op_makes_its_pinned_calls(pair):
    calls = count_pair(pair)
    pinned = PINNED[pair]
    if calls != pinned:
        pytest.fail(
            f"the {pair} pair's calls per function moved "
            f"({sum(pinned.values())} pinned, {sum(calls.values())} now)\n"
            + moved_table(pinned, calls),
            pytrace=False,
        )


if __name__ == "__main__":
    for name, heading in (
        ("uncontended", "uncontended pair"),
        ("contended", "contended pair"),
        ("handoff", "contended hand-off, one key's tree, no socket"),
    ):
        print(f"{heading}\n{table(count_pair(name))}\n")
