"""A networked, sharded lock service over the DAG protocol.

The multi-lock namespace the ROADMAP calls the "millions of users" story made
literal: every lock *key* is its own little mutual-exclusion problem, solved
by its own DAG token tree (shaped by the same :class:`~repro.spec.TopologySpec`
names the simulator uses), and the key namespace is consistent-hashed across
``shards`` worker processes.  Client sessions speak length-prefixed frames
(the :mod:`repro.runtime.transport_socket` wire format) over unix or TCP
sockets:

    acquire {key, session, epoch, id}  ->  {id, ok, epoch}   (blocks until granted)
    release {key, session, epoch, grant_epoch, id}  ->  {id, ok}
    cancel  {target, id}        ->  {id, ok, cancelled}      (give up acquire `target`)
    stats   {id}                ->  {id, ok, stats}
    view    {id}                ->  {id, ok, epoch, view}    (current membership)
    shutdown {id}               ->  {id, ok}                 (graceful shard exit)

The first two rows with ``ok: true`` answers are the whole traffic of a
healthy service, and exactly those four frames travel packed (kind bytes
``a`` ``g`` / ``r`` ``k``, layouts in the transport's docstring).  Every other
frame — the four control ops, any ``ok: false`` answer with its ``code`` /
``error`` / ``view``, an op whose fields do not fit the layout — is a JSON
object, and the codec takes a JSON acquire or release from a hand-written
peer as readily as a packed one.  ``session``, ``epoch`` and ``grant_epoch``
must be integers; one that is not is that op's ``ok: false``, not the
connection's end.

Inside a shard, each key's tree is a :class:`~repro.runtime.cluster
.LocalCluster` of :class:`~repro.runtime.node_runtime.AsyncDagNode` *agents*
over an in-process transport.  A client acquire claims a free agent (one
outstanding protocol request per agent, the paper's P1 precondition),
preferring the one idling on the token: an uncontended key is re-entered
with zero messages and answered inside the ``data_received`` call that cut
its frame from the socket, while concurrent sessions on the same key claim
different agents and are serialised by real REQUEST/PRIVILEGE traffic.  The
tree delivers those messages on the stack of whoever sends one, so an acquire
that had to wait is granted, booked and answered inside the ``data_received``
call that cut the *release* ahead of it: no tree and no waiter owns a task.
Both ends of a connection are a :class:`~repro.runtime.transport_socket
.FrameProtocol` on the socket's transport — no stream reader, no reader task
— and every answer queued during one event-loop pass leaves in one write.

The shard pool reuses the sweep runner's process pattern — one
``multiprocessing.Process`` per shard with a private control pipe, the parent
multiplexing on :func:`multiprocessing.connection.wait` — and keeps the pipe
for the service's whole lifetime: shards heartbeat over it, and the parent's
:class:`~repro.runtime.failover.ClusterSupervisor` pushes epoch-stamped
:class:`~repro.runtime.failover.ClusterView` updates back down when a shard
dies.  Failover is then three local moves:

* a survivor that owns a dead shard's key *takes it over* lazily — the key's
  token died with its shard, so the fresh tree self-issues a replacement
  PRIVILEGE through :func:`repro.core.recovery.regenerate_token`;
* grants from a previous epoch are *fenced* — a holder that outlived its
  shard gets :class:`~repro.exceptions.LockFencedError` on release instead
  of silently corrupting exclusion;
* the client retries idempotently — every op keeps one id across attempts
  (shards deduplicate redeliveries), re-resolves ownership from the freshest
  view it can fetch, and backs off exponentially until the retry budget ends;
  an acquire whose budget ends sends a best-effort ``cancel`` so a grant
  still inflight is handed back rather than orphaned under a hold nobody
  will ever release.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket as socket_module
import tempfile
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import partial
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.inspector import implicit_queue, waiting_nodes
from repro.exceptions import (
    InvariantViolation,
    LockError,
    LockFencedError,
    ShardUnavailableError,
)
from repro.runtime.failover import (
    RING_VNODES,
    ClusterSupervisor,
    ClusterView,
    FailoverEvent,
    _hash64,
    owner_for_key,
)
from repro.obs.registry import MetricsRegistry
from repro.runtime.cluster import LocalCluster
from repro.runtime.transport_socket import (
    FRAME_HEADER,
    Address,
    FrameProtocol,
    backoff_delays,
    encode_frame,
    normalise_address,
    open_frame_connection,
    start_frame_server,
)
from repro.sim.rng import SeededRNG
from repro.spec import RuntimeSpec
from repro.topology.base import Topology

__all__ = [
    "RING_VNODES",
    "LockClient",
    "LockServiceCluster",
    "LockServiceShard",
    "LockSession",
    "owner_for_key",
]

#: How long `LockServiceCluster.start` waits for every shard to bind.
READY_TIMEOUT_SECONDS = 30.0

#: Completed-op results remembered per shard for duplicate suppression.
OP_CACHE_SIZE = 65536

#: Default client retry budget: attempts beyond the first per op.
DEFAULT_MAX_RETRIES = 8

#: Deadline for control-plane calls (stats, view, cancel) when the client has
#: no ``op_timeout`` of its own.  Unlike an acquire these never block on lock
#: contention, so an unanswered frame (``drop_rate``, a dead peer) is the only
#: way they can stall — bound it, or one dropped frame hangs the caller.
CONTROL_OP_TIMEOUT = 5.0


# --------------------------------------------------------------------------- #
# per-key token tree
# --------------------------------------------------------------------------- #
class _KeyedLock:
    """One lock key's DAG token tree plus its agent pool.

    The tree is a :class:`~repro.runtime.cluster.LocalCluster`; its nodes are
    the agents and a *ticket* is the id of a claimed one.  A session acquire
    claims a free agent (at most one outstanding request per agent —
    procedure P1's precondition) and enters the tree's critical section
    through it; with every agent claimed, acquires queue FIFO and
    :meth:`release` puts the first of them on the freed agent.  The token
    stays with the agent that last released it and the claim prefers that
    agent, so an uncontended key is re-entered with zero messages (the
    paper's best case); any other agent pays the REQUEST/PRIVILEGE traffic,
    which is what serialises contending sessions.

    A *takeover* tree is one rebuilt on a survivor after the key's previous
    shard died: the old token is gone with its process, so the fresh tree is
    stripped of its token and :meth:`LocalCluster.regenerate_token`
    self-issues the replacement PRIVILEGE — the PR 6 recovery path, live.
    """

    __slots__ = ("key", "cluster", "created_epoch", "_agents", "_free", "_waiters")

    def __init__(
        self, key: str, topology: Topology, *, epoch: int = 0, takeover: bool = False
    ) -> None:
        self.key = key
        self.created_epoch = epoch
        self.cluster = LocalCluster(topology)
        self._agents = self.cluster.nodes
        for node in self._agents.values():
            node.start()
        if takeover:
            # The token died with the old shard: drop the constructor's
            # token and mint the replacement through the recovery path.
            for node in self._agents.values():
                node.holding = False
            self.cluster.regenerate_token()
        self._free = set(self._agents)  # tickets of unclaimed agents
        self._waiters: Deque[Callable[[int], None]] = deque()

    def try_acquire(self) -> Optional[int]:
        """Enter through the free agent idling on the token, if there is one.

        No message and no wait; ``None`` when the token is elsewhere.
        """
        for ticket in self._free:
            node = self._agents[ticket]
            if node.holding:
                self._free.remove(ticket)
                node.request_cs()
                return ticket
        return None

    def acquire_then(self, granted: Callable[[int], None]) -> None:
        """Enter the key's critical section, then call ``granted(ticket)``.

        What is left when :meth:`try_acquire` finds nothing: any free agent
        — or, with none free, the first one released after every earlier
        waiter got theirs — asks the tree for the token.
        """
        if self._free:
            self._agents[self._free.pop()].acquire_then(granted)
        else:
            self._waiters.append(granted)

    def release(self, ticket: int) -> None:
        """Leave the critical section; the agent goes to the first waiter."""
        node = self._agents[ticket]
        node.release_cs()
        if self._waiters:
            node.acquire_then(self._waiters.popleft())
        else:
            self._free.add(ticket)

    def queue_depth(self) -> int:
        """Requesters stacked behind this key's token, via the inspector.

        The paper's deduction, live: chase FOLLOW pointers from the node that
        has the token (idle or executing).  While the token is in transit the
        chain has no anchor, so the count of requesting agents stands in; a
        mid-churn duplicate sighting is reported as depth 0 rather than
        raised — the reading is advisory, the protocol's own invariant checks
        live in the property tests.
        """
        try:
            depth = len(implicit_queue(self.cluster))
            if depth == 0:
                return len(waiting_nodes(self.cluster))
            return depth
        except InvariantViolation:
            return 0

    async def close(self) -> None:
        await self.cluster.stop()


# --------------------------------------------------------------------------- #
# the shard server
# --------------------------------------------------------------------------- #
@dataclass
class _Hold:
    """One granted lock: who holds it, on which connection, at which epoch."""

    uid: str
    key: str
    session: int
    ticket: int
    epoch: int
    conn_state: Dict[str, bool]


#: How an op's answer leaves: the connection's :meth:`FrameProtocol.send`.
Reply = Callable[[Dict[str, Any]], None]


@dataclass
class _Inflight:
    """One acquire waiting for its grant; duplicates join instead of re-executing."""

    #: (conn state, reply, op id) of everyone who asked, in arrival order.
    requesters: List[Tuple[Dict[str, bool], Reply, Any]]
    cancelled: bool = False  #: the client gave up; release on grant


class LockServiceShard:
    """One worker process's slice of the lock namespace.

    Owns the keys the current :class:`ClusterView` assigns to ``index`` and
    serves the frame protocol for them.  Each connection is a
    :class:`FrameProtocol` whose ``on_frame`` serves an op on the spot when
    it needs no wait — every release, stats, view and cancel, every
    duplicate, and an acquire whose key has a free agent idling on the token
    — and answers of one event-loop pass leave in one write.  An acquire that
    must wait for an agent or for the token leaves a callback with the key's
    tree and is answered from the stack of the release that grants it, so one
    blocked session never stalls a connection's other sessions; a dropped
    connection releases everything its sessions held (and lets waiting
    acquires finish, then releases them immediately — a DAG request, once
    sent, must be served).  :meth:`close` hangs up on every connection before
    it stops the trees, so a closed shard answers nothing.
    """

    def __init__(self, spec: RuntimeSpec, index: int) -> None:
        if not 0 <= index < spec.shards:
            raise LockError(f"shard index {index} outside 0..{spec.shards - 1}")
        self.spec = spec
        self.index = index
        self.address: Optional[Address] = None
        # One (frozen) topology shared by every key's tree: each cluster keeps
        # a reference to the one it was built from, and a copy per key is a
        # kilobyte of containers every garbage collection would walk.
        self._lock_topology = spec.topology.build()
        self._locks: Dict[str, _KeyedLock] = {}
        self._holders: Dict[str, int] = {}  # key -> session
        self._held: Dict[Tuple[int, str], _Hold] = {}  # (session, key) -> hold
        self._inflight: Dict[str, _Inflight] = {}
        self._op_cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._view = ClusterView(
            epoch=0, shards={shard: None for shard in range(spec.shards)}
        )
        # Every adopted view, oldest first (current last).  Takeover detection
        # must look across *all* of them: a key orphaned at epoch N may be
        # first touched only after a later epoch-N+1 failover, when the
        # immediately previous view already shows this shard as owner.
        self._views: List[ClusterView] = [self._view]
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()  # the live FrameProtocols this shard accepted
        self._shutdown = asyncio.Event()
        self._control_pipe: Any = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        faults = spec.faults
        self._drop_rate = faults.drop_rate if faults is not None else 0.0
        self._drop_rng = SeededRNG(
            faults.seed if faults is not None else 0,
            label=f"runtime-faults/shard-{index}",
        )
        self.stats: Dict[str, int] = {
            "acquires": 0,
            "releases": 0,
            "errors": 0,
            "exclusion_violations": 0,
            "abandoned": 0,
            "cancelled": 0,
            "takeovers": 0,
            "fenced": 0,
            "dropped_frames": 0,
        }
        # Observability: a disabled registry hands out no-op instruments, so
        # the acquire path below keeps its instrument calls either way and
        # only the explicitly guarded clock/queue-walk reads cost anything.
        obs_spec = spec.obs
        self._obs_enabled = obs_spec.enabled if obs_spec is not None else False
        self.obs = MetricsRegistry(
            enabled=self._obs_enabled,
            sample_every=obs_spec.sample_every if obs_spec is not None else 1,
        )
        self._acquire_wait_ms = self.obs.histogram("shard.acquire_wait_ms")
        self._queue_depth_max = self.obs.gauge("shard.queue_depth_max")
        self.obs.gauge("shard.index").set(index)
        self.obs.gauge("shard.inflight").set_function(lambda: len(self._inflight))
        self.obs.gauge("shard.keys").set_function(lambda: len(self._locks))
        self.obs.gauge("shard.held").set_function(lambda: len(self._holders))
        self.obs.gauge("shard.epoch").set_function(lambda: self._view.epoch)
        for stat_name in self.stats:
            self.obs.gauge(f"shard.stats.{stat_name}").set_function(
                lambda name=stat_name: self.stats[name]
            )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, address: Address) -> None:
        """Bind the shard's listening socket (port 0 -> ephemeral, recorded)."""
        self._server, self.address = await start_frame_server(address, self._accept)

    def attach_control(self, pipe: Any) -> None:
        """Wire the duplex control pipe: heartbeats out, view pushes in.

        The reader side is a daemon thread (a blocking ``recv`` loop) that
        trampolines messages onto the event loop; everything this shard
        *sends* — the heartbeat stream and view acks — goes from the loop
        thread, so the pipe never sees two writers.
        """
        self._control_pipe = pipe
        loop = asyncio.get_running_loop()

        def read_control() -> None:
            while True:
                try:
                    message = pipe.recv()
                except (EOFError, OSError):
                    return
                if isinstance(message, tuple) and message and message[0] == "view":
                    loop.call_soon_threadsafe(self.adopt_view, message[1])

        threading.Thread(
            target=read_control, name=f"shard-{self.index}-control", daemon=True
        ).start()
        self._heartbeat_task = asyncio.create_task(self._heartbeat())

    async def _heartbeat(self) -> None:
        while not self._shutdown.is_set():
            try:
                self._control_pipe.send(("heartbeat", self.index))
            except (BrokenPipeError, OSError):
                return  # the parent is gone; nothing left to reassure
            await asyncio.sleep(self.spec.heartbeat_interval)

    def adopt_view(self, view_dict: Dict[str, Any]) -> None:
        """Adopt a pushed membership view (ignoring anything older than ours)."""
        view = ClusterView.from_dict(view_dict)
        if view.epoch < self._view.epoch:
            return
        if view.epoch > self._view.epoch:
            self._views.append(view)
        else:
            self._views[-1] = view  # same epoch, fresher addresses
        self._view = view
        if self._control_pipe is not None:
            try:
                self._control_pipe.send(("view-ack", self.index, view.epoch))
            except (BrokenPipeError, OSError):
                pass

    def obs_section(self) -> Dict[str, Any]:
        """The stats frame's observability block (obs-enabled shards only).

        ``queue_depths`` is the paper's implicit queue deduced per live key
        — current depth, not a high watermark; the watermark rides in the
        registry as ``shard.queue_depth_max``, sampled on every acquire.
        """
        return {
            "registry": self.obs.snapshot(),
            "queue_depths": {
                key: self._locks[key].queue_depth() for key in sorted(self._locks)
            },
        }

    def schedule_faults(self) -> None:
        """Arm this shard's declarative crash schedule (``spec.faults``)."""
        if self.spec.faults is None:
            return
        loop = asyncio.get_running_loop()
        for crash in self.spec.faults.crashes:
            if crash.shard == self.index:
                # A real crash, not a graceful exit: no teardown, no flushes.
                loop.call_later(crash.at, os._exit, 1)

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except (asyncio.CancelledError, Exception):
                pass
            self._heartbeat_task = None
        # Hang up first: every connection's holds are abandoned while the
        # trees still run, and nothing is served from here on.
        for proto in list(self._connections):
            proto.abort()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for keyed in self._locks.values():
            await keyed.close()
        self._locks.clear()

    # ------------------------------------------------------------------ #
    # the frame protocol
    # ------------------------------------------------------------------ #
    def _accept(self) -> FrameProtocol:
        """One client connection: each frame is served as it is cut.

        Back-pressure is the protocol's: a peer that stops reading its
        answers stops being read.  ``state`` is what holds and waiting
        acquires keep of the connection, to see whether it is still there.
        """
        state = {"open": True}

        def on_frame(frame: Dict[str, Any]) -> None:
            if frame.get("op") == "shutdown":
                reply({"id": frame.get("id"), "ok": True})
                proto.flush()  # the ack must leave before the process does
                self._shutdown.set()
                proto.close()
            elif self._drop_rate > 0.0 and self._drop_rng.random() < self._drop_rate:
                # The injected fault: the frame was "lost on the wire".
                # The client's deadline fires and its retry (same op id)
                # is deduplicated if the original did get through.
                self.stats["dropped_frames"] += 1
            else:
                self._handle_op(frame, state, reply)

        def on_close(error: Optional[Exception]) -> None:
            # A reset peer or a broken frame is just a disconnect.
            state["open"] = False
            self._connections.discard(proto)
            # Release everything this connection's sessions still hold; a
            # waiting acquire sees state["open"] is False when granted and
            # releases itself (counted under "abandoned").
            for hold in list(self._held.values()):
                if hold.conn_state is state:
                    self._abandon(hold)

        proto = FrameProtocol(on_frame, on_close)
        reply = proto.send
        self._connections.add(proto)
        return proto

    def _abandon(self, hold: _Hold, *, stat: str = "abandoned") -> None:
        """Reclaim a hold whose owner connection died (or gave up on it)."""
        self._held.pop((hold.session, hold.key), None)
        self._holders.pop(hold.key, None)
        # A retried acquire must re-execute, not replay the cached grant.
        self._op_cache.pop(hold.uid, None)
        keyed = self._locks.get(hold.key)
        if keyed is not None:
            self.stats[stat] += 1
            keyed.release(hold.ticket)

    def _cancel_uid(self, uid: str) -> bool:
        """Cancel an acquire the client has given up on (retry budget spent).

        Without this, an op still blocked in the token protocol would later
        grant and bind its hold to the (still-open) requesting connection —
        locked until that connection closes, since the caller already raised
        and will never release.  Covers both phases: a waiting acquire is
        flagged to release itself on grant, and a grant that completed but
        was never consumed (the reply raced the deadline) is reclaimed.
        """
        record = self._inflight.get(uid)
        if record is not None:
            record.cancelled = True
            return True
        for hold in list(self._held.values()):
            if hold.uid == uid:
                self._abandon(hold, stat="cancelled")
                return True
        return False

    def _cache_op(self, uid: str, payload: Dict[str, Any]) -> None:
        self._op_cache[uid] = payload
        while len(self._op_cache) > OP_CACHE_SIZE:
            self._op_cache.popitem(last=False)

    def _handle_op(self, frame: Dict[str, Any], state: Dict[str, bool], reply: Reply) -> None:
        """Serve one op and answer it, unless it is an acquire that must wait."""
        op = frame.get("op")
        op_id = frame.get("id")
        try:
            if op == "stats":
                stats_payload = {
                    **self.stats,
                    "shard": self.index,
                    "epoch": self._view.epoch,
                    "keys": len(self._locks),
                    "held": len(self._holders),
                    # The paper's cost unit, live: REQUEST + PRIVILEGE
                    # messages sent inside every key's token tree so far.
                    "tree_messages": sum(
                        keyed.cluster.transport.messages_sent
                        for keyed in self._locks.values()
                    ),
                }
                if self._obs_enabled:
                    stats_payload["obs"] = self.obs_section()
                reply({"id": op_id, "ok": True, "stats": stats_payload})
                return
            if op == "view":
                reply(
                    {
                        "id": op_id,
                        "ok": True,
                        "epoch": self._view.epoch,
                        "view": self._view.to_dict(),
                    }
                )
                return
            if op == "cancel":
                # No route check: a shard the key moved away from must still
                # honour cancels for state it already holds.
                target = str(frame.get("target", ""))
                reply({"id": op_id, "ok": True, "cancelled": self._cancel_uid(target)})
                return
            key = frame.get("key")
            session = frame.get("session", 0)
            if op not in ("acquire", "release"):
                raise LockError(f"unknown op {op!r}")
            if not isinstance(key, str) or not key:
                raise LockError("op needs a non-empty string 'key'")
            # A packed frame's integers are integers by construction, a JSON
            # frame's are whatever its peer wrote; past this line they are
            # used as they come.  bool is not an integer here.
            epoch, grant_epoch = frame.get("epoch", 0), frame.get("grant_epoch", 0)
            if not (type(session) is type(epoch) is type(grant_epoch) is int):
                raise LockError("'session', 'epoch' and 'grant_epoch' must be integers")
            payload = self._check_route(key, frame)
            if payload is not None:
                self.stats["errors"] += 1
            elif op == "acquire":
                payload = self._acquire_op(str(op_id), key, session, (state, reply, op_id))
                if payload is None:
                    return  # the grant will answer it
            else:
                payload = self._release_op(str(op_id), key, session, frame)
            reply({**payload, "id": op_id})
        except LockError as exc:
            self.stats["errors"] += 1
            reply({"id": op_id, "ok": False, "error": str(exc)})

    def _check_route(self, key: str, frame: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Ownership check against the current view.

        Same-epoch disagreement is a client routing bug (loud, not
        retryable); an op routed under an older epoch gets the fresh view to
        re-resolve against; one routed under a *newer* epoch than ours is
        asked to retry until our own view catches up.
        """
        view = self._view
        if self.index not in view.shards:
            # Fenced-off zombie: the supervisor declared us dead (e.g. a
            # long stall) but the process survived.  Serving anything could
            # double-grant against our replacement.
            return {
                "ok": False,
                "code": "fenced",
                "error": f"shard {self.index} was fenced out of the cluster view",
            }
        owner = view.owner_for(key)
        if owner == self.index:
            return None
        frame_epoch = frame.get("epoch", 0)
        if frame_epoch == view.epoch:
            raise LockError(
                f"key {key!r} belongs to shard {owner}, not {self.index} "
                "(client routing bug)"
            )
        if frame_epoch < view.epoch:
            return {
                "ok": False,
                "code": "wrong-shard",
                "error": f"key {key!r} belongs to shard {owner} at epoch {view.epoch}",
                "view": view.to_dict(),
            }
        return {
            "ok": False,
            "code": "stale-shard",
            "error": (
                f"op routed under epoch {frame_epoch} but shard {self.index} "
                f"is still at {view.epoch}"
            ),
        }

    def _keyed_lock(self, key: str) -> _KeyedLock:
        keyed = self._locks.get(key)
        if keyed is None:
            # Takeover iff any *earlier* adopted view assigned the key
            # elsewhere.  Membership only shrinks, so once a key lands on
            # this shard it never leaves — one foreign owner anywhere in the
            # history means the key arrived through a failover.
            takeover = self._view.epoch > 0 and any(
                past.owner_for(key) != self.index for past in self._views[:-1]
            )
            keyed = _KeyedLock(
                key, self._lock_topology, epoch=self._view.epoch, takeover=takeover
            )
            self._locks[key] = keyed
            if takeover:
                self.stats["takeovers"] += 1
        return keyed

    def _acquire_op(
        self, uid: str, key: str, session: int, requester: Tuple[Dict[str, bool], Reply, Any]
    ) -> Optional[Dict[str, Any]]:
        """The acquire's answer, or ``None`` when its grant gives (or gave) it."""
        cached = self._op_cache.get(uid)
        if cached is not None:
            # Duplicate of a completed acquire: re-bind the hold (if it still
            # stands) to the connection retrying it, then replay the result.
            hold = self._held.get((session, key))
            if hold is not None and hold.uid == uid:
                hold.conn_state = requester[0]
                self._holders[key] = session
            return cached
        existing = self._inflight.get(uid)
        if existing is not None:
            # Duplicate of a waiting acquire: join it.  The grant binds to
            # the most recent requester still connected.
            existing.requesters.append(requester)
            return None
        if (session, key) in self._held:
            self.stats["errors"] += 1
            payload = {"ok": False, "error": f"session {session} already holds {key!r}"}
            self._cache_op(uid, payload)
            return payload
        keyed = self._keyed_lock(key)
        started = time.perf_counter() if self._obs_enabled else 0.0
        ticket = keyed.try_acquire()
        if ticket is not None:
            # An agent idles on the token: nobody is queued, nothing to wait for.
            hold = _Hold(uid, key, session, ticket, self._view.epoch, requester[0])
            return self._grant(hold, 0, started)
        record = _Inflight(requesters=[requester])
        self._inflight[uid] = record
        depth = keyed.queue_depth() if self._obs_enabled else 0
        keyed.acquire_then(
            partial(self._acquire_granted, uid, key, session, keyed, record, depth, started)
        )
        return None

    def _acquire_granted(
        self,
        uid: str,
        key: str,
        session: int,
        keyed: _KeyedLock,
        record: _Inflight,
        depth: int,
        started: float,
        ticket: int,
    ) -> None:
        """A waiting acquire is in its critical section: answer everyone who asked.

        Runs on the stack of whatever moved the token — usually the release
        that freed it.
        """
        del self._inflight[uid]
        owner_state = next(
            (asker[0] for asker in reversed(record.requesters) if asker[0]["open"]),
            None,
        )
        if record.cancelled:
            # The client spent its retry budget and asked us to cancel:
            # the grant has no consumer, so hand the token straight back.
            # Cached so a straggling duplicate replays the cancellation.
            self.stats["cancelled"] += 1
            keyed.release(ticket)
            payload = {
                "ok": False,
                "code": "cancelled",
                "error": "acquire cancelled by client",
            }
            self._cache_op(uid, payload)
        elif owner_state is None:
            # Every connection that asked is gone: the grant has no
            # owner, so hand the token straight back.  Not cached — a
            # later retry of this uid must execute a fresh acquire.
            self.stats["abandoned"] += 1
            keyed.release(ticket)
            payload = {"ok": False, "code": "abandoned", "error": "connection lost"}
        else:
            hold = _Hold(uid, key, session, ticket, self._view.epoch, owner_state)
            payload = self._grant(hold, depth, started)
        for _state, reply, op_id in record.requesters:
            reply({**payload, "id": op_id})

    def _grant(self, hold: _Hold, depth: int, started: float) -> Dict[str, Any]:
        """Book one grant — the one place, for the inline and the waiting route.

        ``depth`` is the key's implicit queue as the acquire found it and
        ``started`` when it arrived (both read only with obs enabled).
        """
        if self._obs_enabled:
            self._queue_depth_max.update_max(depth)
            self._acquire_wait_ms.observe((time.perf_counter() - started) * 1000.0)
        if hold.key in self._holders:
            # The per-key tree + agent pool make this unreachable; counting
            # rather than asserting keeps the service observable if a future
            # change breaks the invariant.
            self.stats["exclusion_violations"] += 1
        self._holders[hold.key] = hold.session
        self._held[(hold.session, hold.key)] = hold
        self.stats["acquires"] += 1
        payload = {"ok": True, "epoch": hold.epoch}
        self._cache_op(hold.uid, payload)
        return payload

    def _release_op(
        self, uid: str, key: str, session: int, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        cached = self._op_cache.get(uid)
        if cached is not None:
            return cached
        hold = self._held.pop((session, key), None)
        if hold is None:
            grant_epoch = frame.get("grant_epoch")
            if grant_epoch is not None and grant_epoch < self._view.epoch:
                # The grant predates a failover: the holder's shard died and
                # the key moved on.  Rejecting (rather than "ok") tells the
                # holder its critical section lost its protection.
                self.stats["fenced"] += 1
                payload = {
                    "ok": False,
                    "code": "fenced",
                    "error": (
                        f"grant for {key!r} at epoch {grant_epoch} was fenced: "
                        f"the cluster is at epoch {self._view.epoch}"
                    ),
                }
                self._cache_op(uid, payload)
                return payload
            raise LockError(f"session {session} does not hold {key!r}")
        self._holders.pop(key, None)
        self._op_cache.pop(hold.uid, None)  # the grant is spent; never replay it
        self._locks[key].release(hold.ticket)
        self.stats["releases"] += 1
        payload = {"ok": True}
        self._cache_op(uid, payload)
        return payload


def _shard_main(spec_dict: Dict[str, Any], index: int, address, pipe) -> None:
    """Child-process entry point: bind, report readiness, heartbeat, serve."""
    spec = RuntimeSpec.from_dict(spec_dict)

    async def _serve() -> None:
        shard = LockServiceShard(spec, index)
        try:
            await shard.start(address)
        except Exception as exc:  # pragma: no cover - bind failures
            pipe.send(("error", f"{type(exc).__name__}: {exc}"))
            pipe.close()
            return
        pipe.send(("ready", shard.address))
        shard.attach_control(pipe)
        shard.schedule_faults()
        await shard.serve_until_shutdown()

    asyncio.run(_serve())


# --------------------------------------------------------------------------- #
# the parent-side cluster controller
# --------------------------------------------------------------------------- #
class LockServiceCluster:
    """Starts ``spec.shards`` shard processes and supervises them until stop.

    Synchronous on purpose (start/stop bracket an ``asyncio.run`` client
    phase).  Usable as a context manager::

        with LockServiceCluster(RuntimeSpec(shards=2)) as cluster:
            asyncio.run(drive(cluster.addresses))

    While running, a :class:`~repro.runtime.failover.ClusterSupervisor`
    thread watches every shard's heartbeats and process sentinel;
    :attr:`view` is the current membership and :attr:`failover_events` the
    takeover timeline of every death it handled.  :meth:`kill_shard` is the
    chaos hook: SIGKILL, no goodbye, exactly what the supervisor is for.
    """

    def __init__(
        self,
        spec: RuntimeSpec,
        *,
        socket_dir: Optional[str] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.spec = spec
        self.addresses: List[Address] = []
        self._host = host
        self._socket_dir = socket_dir
        self._own_socket_dir: Optional[tempfile.TemporaryDirectory] = None
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._pipes: Dict[int, Any] = {}
        self._supervisor: Optional[ClusterSupervisor] = None

    def start(self) -> None:
        if self._processes:
            raise LockError("cluster is already started")
        context = multiprocessing.get_context()
        if self.spec.socket == "unix" and self._socket_dir is None:
            self._own_socket_dir = tempfile.TemporaryDirectory(prefix="repro-locks-")
            self._socket_dir = self._own_socket_dir.name
        for index in range(self.spec.shards):
            if self.spec.socket == "unix":
                address: Address = os.path.join(self._socket_dir, f"shard-{index}.sock")
            else:
                address = (self._host, 0)
            parent_end, child_end = context.Pipe(duplex=True)
            process = context.Process(
                target=_shard_main,
                args=(self.spec.to_dict(), index, address, child_end),
                daemon=True,
            )
            process.start()
            child_end.close()
            self._pipes[index] = parent_end
            self._processes.append(process)
        # Sweep-runner pattern: multiplex the readiness pipes with a deadline
        # so a shard that dies before binding surfaces as an error, not a hang.
        self.addresses = [None] * self.spec.shards  # type: ignore[list-item]
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        pending = {pipe: index for index, pipe in self._pipes.items()}
        try:
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise LockError(
                        f"shards {sorted(pending.values())} did not report "
                        f"ready within {READY_TIMEOUT_SECONDS}s"
                    )
                for pipe in mp_connection.wait(list(pending), timeout=remaining):
                    index = pending.pop(pipe)
                    try:
                        status, detail = pipe.recv()
                    except EOFError:
                        status, detail = "error", "shard died before binding"
                    if status != "ready":
                        raise LockError(f"shard {index} failed to start: {detail}")
                    self.addresses[index] = (
                        tuple(detail) if isinstance(detail, (list, tuple)) else detail
                    )
        except Exception:
            self.stop()
            raise
        view = ClusterView(
            epoch=0,
            shards={index: address for index, address in enumerate(self.addresses)},
        )
        # Address-complete epoch-0 view first (shards start with ids only),
        # then hand the pipes to the supervisor for the service's lifetime.
        for pipe in self._pipes.values():
            try:
                pipe.send(("view", view.to_dict()))
            except (BrokenPipeError, OSError):
                pass
        self._supervisor = ClusterSupervisor(
            channels={
                index: (self._pipes[index], self._processes[index])
                for index in self._pipes
            },
            view=view,
            heartbeat_interval=self.spec.heartbeat_interval,
            miss_window=self.spec.miss_window,
        )
        self._supervisor.start()

    # ------------------------------------------------------------------ #
    # supervision surface
    # ------------------------------------------------------------------ #
    @property
    def view(self) -> Optional[ClusterView]:
        """The supervisor's current membership view (None before start)."""
        return self._supervisor.view if self._supervisor is not None else None

    @property
    def failover_events(self) -> List[FailoverEvent]:
        """Every failover the supervisor has handled, oldest first."""
        return self._supervisor.events if self._supervisor is not None else []

    def register_metrics(self, registry: Any, *, prefix: str = "cluster") -> None:
        """Register the supervisor's cluster view into an obs registry."""
        if self._supervisor is not None:
            self._supervisor.register_metrics(registry, prefix=prefix)

    def kill_shard(self, index: int) -> None:
        """SIGKILL shard ``index`` (the chaos hook; the supervisor notices)."""
        if not 0 <= index < len(self._processes):
            raise LockError(f"no shard {index} to kill")
        self._processes[index].kill()

    def stop(self) -> None:
        """Graceful shutdown frame per shard, then terminate stragglers."""
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        for index, process in enumerate(self._processes):
            if not process.is_alive():
                continue
            address = self.addresses[index] if index < len(self.addresses) else None
            if address is not None:
                _send_shutdown(address)
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        self.addresses = []
        for pipe in self._pipes.values():
            try:
                pipe.close()
            except OSError:
                pass
        self._pipes = {}
        if self._own_socket_dir is not None:
            self._own_socket_dir.cleanup()
            self._own_socket_dir = None
            self._socket_dir = None

    def __enter__(self) -> "LockServiceCluster":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def _send_shutdown(address: Address) -> None:
    """Fire one shutdown frame over a plain blocking socket (best effort)."""
    try:
        if isinstance(address, tuple):
            sock = socket_module.create_connection(address, timeout=5.0)
        else:
            sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(address)
        with sock:
            sock.sendall(encode_frame({"op": "shutdown", "id": 0}))
            # Wait for the ack (or EOF) so the frame is not lost in a reset.
            try:
                sock.recv(FRAME_HEADER.size + 64)
            except OSError:
                pass
    except OSError:
        pass


# --------------------------------------------------------------------------- #
# the client
# --------------------------------------------------------------------------- #
class LockClient:
    """An async client multiplexing many sessions over few connections.

    ``channels`` connections are opened per shard; sessions are assigned to
    channels round-robin, and every op carries a session id plus a
    client-unique op id, so thousands of concurrent sessions share a handful
    of sockets (the per-peer connection reuse story, client-side).

    Failures are survivable by construction: every op keeps its id across
    attempts (shards deduplicate, so a retry never double-acquires), a
    connection failure or ``op_timeout`` triggers re-resolution against the
    freshest cluster view any live shard will serve, and attempts back off
    exponentially until ``max_retries`` is spent.  A *release* whose grant
    was fenced by a failover raises :class:`LockFencedError` — the one
    failure that must *not* be retried into silence; an *acquire* answered
    ``fenced`` holds nothing (it merely reached a shard voted out of the
    view), so it refreshes and reroutes like any misroute.  An acquire that
    exhausts its retries sends a best-effort ``cancel`` for its op id first,
    so a grant still working its way through the token protocol is handed
    back instead of binding a hold nobody will ever release.

    Deadlines: ``op_timeout`` (off by default — a contended acquire may
    legitimately block for a long time) bounds every op.  Running against a
    service with ``drop_rate`` faults *requires* it: a dropped frame is
    never answered.  Control-plane calls (stats, view, cancel) never block
    on contention and always get a deadline (:data:`CONTROL_OP_TIMEOUT`
    when ``op_timeout`` is unset).
    """

    def __init__(
        self,
        addresses: Sequence[Address],
        *,
        channels: int = 8,
        op_timeout: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        trace: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        if not addresses:
            raise LockError("LockClient needs at least one shard address")
        if channels < 1:
            raise LockError(f"channels must be >= 1, got {channels}")
        if op_timeout is not None and op_timeout <= 0:
            raise LockError(f"op_timeout must be > 0, got {op_timeout}")
        self._view = ClusterView(
            epoch=0, shards=dict(enumerate(normalise_address(a) for a in addresses))
        )
        self._channels = channels
        self._op_timeout = op_timeout
        self._max_retries = max_retries
        self._conns: Dict[Tuple[int, int], _ClientConnection] = {}
        self._grants: Dict[Tuple[int, str], int] = {}  # (session, key) -> epoch
        self._client_id = f"{os.getpid():x}-{os.urandom(4).hex()}"
        self._op_counter = 0
        self._closed = False
        self.retry_stats: Dict[str, int] = {
            "retries": 0,
            "reroutes": 0,
            "fenced": 0,
            "deadline_timeouts": 0,
            "cancels": 0,
        }
        #: Op-lifecycle trace sink: when set, every acquire/release appends a
        #: span dict (absolute ``perf_counter`` start/end; the exporter
        #: normalises against the run origin).  ``None`` costs nothing.
        self._trace = trace
        #: What acquire/release go through: the retry loop, wrapped in a span
        #: only when there is a trace to put it in.
        self._call = self._call_loop if trace is None else self._traced_call

    def register_metrics(self, registry: Any, *, prefix: str = "client") -> None:
        """Register this client's retry ledger into an obs registry."""
        registry.gauge(f"{prefix}.ops").set_function(lambda: self._op_counter)
        registry.gauge(f"{prefix}.epoch").set_function(lambda: self._view.epoch)
        for stat_name in self.retry_stats:
            registry.gauge(f"{prefix}.{stat_name}").set_function(
                lambda name=stat_name: self.retry_stats[name]
            )

    @property
    def shards(self) -> int:
        return len(self._view.shards)

    @property
    def view(self) -> ClusterView:
        """The membership view this client currently routes under."""
        return self._view

    async def connect(self) -> None:
        """Open every channel eagerly (lazy open also happens per send)."""
        for shard in self._view.shards:
            for channel in range(self._channels):
                await self._connection(shard, channel)

    async def close(self) -> None:
        self._closed = True
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        await asyncio.sleep(0)  # one pass: the transports close their sockets in it

    async def __aenter__(self) -> "LockClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    async def acquire(self, key: str, *, session: int = 0) -> None:
        response = await self._call(
            {"op": "acquire", "key": key, "session": session}, key=key, session=session
        )
        self._grants[(session, key)] = int(response.get("epoch", self._view.epoch))

    async def release(self, key: str, *, session: int = 0) -> None:
        frame = {"op": "release", "key": key, "session": session}
        grant_epoch = self._grants.get((session, key))
        if grant_epoch is not None:
            frame["grant_epoch"] = grant_epoch
        try:
            await self._call(frame, key=key, session=session)
        finally:
            self._grants.pop((session, key), None)

    async def stats(self, shard: int) -> Dict[str, Any]:
        conn = await self._connection(shard, 0)
        deadline = self._control_timeout()
        try:
            response = await self._control(conn, {"op": "stats"}, deadline)
        except asyncio.TimeoutError:
            raise ShardUnavailableError(
                f"stats on shard {shard} exceeded its {deadline}s deadline"
            ) from None
        return response["stats"]

    def _control_timeout(self) -> float:
        return self._op_timeout if self._op_timeout is not None else CONTROL_OP_TIMEOUT

    def _control(self, conn: "_ClientConnection", frame: Dict[str, Any], timeout: float):
        """One control-plane call (stats, view, cancel) under its own op id."""
        uid = self._next_uid()
        return conn.call(uid, {**frame, "id": uid}, timeout)

    def session(self, session_id: int) -> "LockSession":
        return LockSession(self, session_id)

    # ------------------------------------------------------------------ #
    # the retry loop
    # ------------------------------------------------------------------ #
    async def _traced_call(
        self, frame: Dict[str, Any], *, key: str, session: int
    ) -> Dict[str, Any]:
        started = time.perf_counter()
        retries_before = self.retry_stats["retries"] + self.retry_stats["reroutes"]
        outcome = "error"
        try:
            response = await self._call_loop(frame, key=key, session=session)
            outcome = "ok"
            return response
        except LockFencedError:
            outcome = "fenced"
            raise
        except ShardUnavailableError:
            outcome = "unavailable"
            raise
        finally:
            retried = (
                self.retry_stats["retries"]
                + self.retry_stats["reroutes"]
                - retries_before
            )
            self._trace.append(
                {
                    "name": f"{frame.get('op')} {key}",
                    "cat": str(frame.get("op")),
                    "tid": session,
                    "start": started,
                    "end": time.perf_counter(),
                    "args": {"key": key, "outcome": outcome, "retried": retried},
                }
            )

    async def _call_loop(
        self, frame: Dict[str, Any], *, key: str, session: int
    ) -> Dict[str, Any]:
        if self._closed:
            raise LockError("client is closed")
        uid = self._next_uid()  # ONE id for every attempt: the dedup handle
        channel = session % self._channels
        attempts = 0
        delays = backoff_delays()
        # The last failure's text, not the exception: a raised exception held
        # in this frame's locals is a reference cycle through its traceback.
        reason: Optional[str] = None
        while attempts <= self._max_retries:
            view = self._view
            if not view.shards:
                raise ShardUnavailableError("no live shards in the cluster view")
            shard = view.owner_for(key)
            payload = {**frame, "epoch": view.epoch, "id": uid}
            try:
                conn = self._conns.get((shard, channel)) or await self._connection(shard, channel)
                response = await conn.call(uid, payload, self._op_timeout)
            except asyncio.TimeoutError:
                self.retry_stats["deadline_timeouts"] += 1
                reason = f"op on shard {shard} exceeded its {self._op_timeout}s deadline"
                attempts += 1
                self.retry_stats["retries"] += 1
                await self._refresh_view(suspect=shard)
                continue  # the timeout already consumed the backoff's worth
            except (ShardUnavailableError, ConnectionError, OSError) as exc:
                reason = (
                    str(exc)
                    if isinstance(exc, ShardUnavailableError)
                    else f"shard {shard} unreachable: {exc}"
                )
                self._drop_connections(shard)
                attempts += 1
                self.retry_stats["retries"] += 1
                await self._refresh_view(suspect=shard)
                await asyncio.sleep(next(delays))
                continue
            if response.get("ok"):
                return response
            code = response.get("code")
            if code == "wrong-shard":
                # The shard is ahead of us and attached its view: adopt it
                # and re-route immediately (no backoff; adoption is
                # monotonic, so this cannot ping-pong).
                if "view" in response:
                    self._adopt_view(ClusterView.from_dict(response["view"]))
                attempts += 1
                self.retry_stats["reroutes"] += 1
                continue
            if code in ("stale-shard", "abandoned"):
                # The shard lags our view (or lost our connection mid-grant):
                # give it a beat to catch up, then retry the same op id.
                reason = response.get("error", code)
                attempts += 1
                self.retry_stats["retries"] += 1
                await asyncio.sleep(next(delays))
                continue
            if code == "fenced":
                if frame.get("op") == "release":
                    # The grant lost its protection: the holder's critical
                    # section ran unfenced and must hear about it, loudly.
                    self.retry_stats["fenced"] += 1
                    raise LockFencedError(response.get("error", "grant was fenced"))
                # A fenced *acquire* holds nothing — it just reached a shard
                # that was voted out of the view we routed under.  Routing
                # problem, not a lost grant: refresh and reroute.
                reason = response.get("error", f"shard {shard} was fenced out")
                attempts += 1
                self.retry_stats["reroutes"] += 1
                await self._refresh_view(suspect=shard)
                await asyncio.sleep(next(delays))
                continue
            raise LockError(response.get("error", "lock service error"))
        if frame.get("op") == "acquire":
            await self._cancel_acquire(uid, key, session)
        raise ShardUnavailableError(
            reason or f"op {uid} exhausted its {self._max_retries} retries"
        )

    def _next_uid(self) -> str:
        self._op_counter += 1
        return f"{self._client_id}:{self._op_counter}"

    async def _cancel_acquire(self, uid: str, key: str, session: int) -> None:
        """Best-effort server-side cancel for an acquire this client gave up on.

        Without it, an op still inflight on the shard would eventually grant
        and bind its hold to our (still-open) connection — locked until the
        connection closes, because the caller saw an error and will never
        release.  Failure here is acceptable: the cancel only matters while
        the shard is alive and reachable, which is exactly when it works.
        """
        view = self._view
        if not view.shards:
            return
        try:
            shard = view.owner_for(key)
            conn = await self._connection(shard, session % self._channels)
            await self._control(
                conn, {"op": "cancel", "target": uid}, self._control_timeout()
            )
            self.retry_stats["cancels"] += 1
        except (LockError, ConnectionError, OSError, asyncio.TimeoutError):
            return

    def _adopt_view(self, view: ClusterView) -> None:
        if view.epoch <= self._view.epoch:
            return
        self._view = view
        for shard in {key[0] for key in self._conns}.difference(view.shards):
            self._drop_connections(shard)

    def _drop_connections(self, shard: int) -> None:
        for key in [key for key in self._conns if key[0] == shard]:
            self._conns.pop(key).close()

    async def _refresh_view(self, *, suspect: Optional[int] = None) -> None:
        """Ask any live shard for its view; adopt the freshest answer."""
        for shard in sorted(self._view.shards):
            if shard == suspect:
                continue
            try:
                conn = await self._connection(shard, 0)
                response = await self._control(conn, {"op": "view"}, 2.0)
            except (ShardUnavailableError, ConnectionError, OSError, asyncio.TimeoutError):
                continue
            if response.get("ok") and "view" in response:
                self._adopt_view(ClusterView.from_dict(response["view"]))
                return

    async def _connection(self, shard: int, channel: int) -> "_ClientConnection":
        conn = self._conns.get((shard, channel))
        if conn is None:
            address = self._view.shards.get(shard)
            if address is None:
                raise ShardUnavailableError(f"no address for shard {shard}")
            conn = _ClientConnection(address)
            await conn.open()
            self._conns[(shard, channel)] = conn
        return conn


class _ClientConnection:
    """One framed connection: coalesced frames out, answers matched to callers in.

    A :class:`FrameProtocol` hands every answer to :meth:`_on_frame` as it is
    cut from the socket, which resolves the future of the caller that sent
    that op id; when the connection ends, for whatever reason, every caller
    still waiting fails with :class:`ShardUnavailableError`.  No flow control
    on the way out: every caller awaits its own answer, so at most one frame
    per caller is ever queued.
    """

    def __init__(self, address: Address) -> None:
        self._address = address
        self._proto: Optional[FrameProtocol] = None
        self._pending: Dict[str, asyncio.Future] = {}

    async def open(self) -> None:
        try:
            self._proto = await open_frame_connection(
                self._address, self._on_frame, self._on_close
            )
        except (ConnectionError, OSError) as exc:
            raise ShardUnavailableError(
                f"cannot reach lock shard at {self._address!r}: {exc}"
            ) from None

    def close(self) -> None:
        if self._proto is not None:
            self._proto.close()

    async def call(
        self, op_id: str, frame: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send ``frame`` (which carries ``"id": op_id``) and await its answer.

        With a ``timeout`` the wait ends in :class:`asyncio.TimeoutError`.
        """
        if self._proto is None or self._proto.is_closing():
            # A frame queued on a closing connection is dropped and a future
            # registered on a closed one never resolves: fail fast and let
            # the caller reconnect.
            raise ShardUnavailableError("lock service connection is not open")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[op_id] = future
        timer = None if timeout is None else loop.call_later(timeout, _expire, future)
        try:
            self._proto.send(frame)
            return await future
        finally:
            # A failed future holds its exception, and the exception's
            # traceback holds this frame: drop the future, or that is a cycle.
            future = None
            self._pending.pop(op_id, None)
            if timer is not None:
                timer.cancel()

    def _on_frame(self, response: Dict[str, Any]) -> None:
        try:
            future = self._pending.get(response.get("id"))
        except TypeError:  # an id that cannot be hashed is no caller's
            return
        if future is not None and not future.done():
            future.set_result(response)

    def _on_close(self, error: Optional[Exception]) -> None:
        failure = ShardUnavailableError(
            "lock service connection closed"
            if error is None
            else f"lock service connection failed: {error}"
        )
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failure)


def _expire(future: asyncio.Future) -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class LockSession:
    """One logical client session: a session id bound to a shared client."""

    __slots__ = ("_client", "session_id")

    def __init__(self, client: LockClient, session_id: int) -> None:
        self._client = client
        self.session_id = session_id

    async def acquire(self, key: str) -> None:
        await self._client.acquire(key, session=self.session_id)

    async def release(self, key: str) -> None:
        await self._client.release(key, session=self.session_id)

    def locked(self, key: str) -> "_SessionLockContext":
        return _SessionLockContext(self, key)


class _SessionLockContext:
    __slots__ = ("_session", "_key")

    def __init__(self, session: LockSession, key: str) -> None:
        self._session = session
        self._key = key

    async def __aenter__(self) -> None:
        await self._session.acquire(self._key)

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self._session.release(self._key)
