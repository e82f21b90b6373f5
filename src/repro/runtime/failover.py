"""Crash detection and key takeover for the sharded lock service.

Three pieces, all parent-process side (the shard-side halves live in
:mod:`repro.runtime.service`):

* **The ring, generalised.**  PR 7's consistent hash mapped keys over
  ``range(shards)``; failover needs the same ring over an *arbitrary* set of
  surviving shard ids.  The vnode labels are unchanged, so when a shard dies
  only its own ranges move (consistent hashing's minimal-movement property):
  every key a survivor already owned stays put, which is what makes lazy
  takeover safe.

* **Cluster views.**  A :class:`ClusterView` is an epoch-stamped membership
  map (shard id -> address).  Epochs only grow; every client op carries the
  epoch it routed under, and grants are fenced by it — a holder that
  outlived its shard finds its release rejected rather than corrupting
  exclusion.

* **The supervisor.**  :class:`ClusterSupervisor` is a parent-process thread
  multiplexing every shard's control pipe (heartbeats, view acks) and
  process sentinel — the sweep runner's readiness-pipe pattern, kept running
  for the whole service lifetime.  A shard is declared dead when its process
  exits (sentinel — immediate) or its heartbeats go silent for
  ``miss_window`` seconds (a hung process).  Death bumps the epoch, shrinks
  the view, and pushes the new view down every surviving pipe — plus,
  best-effort, down the dead shard's own pipe, so a process that was merely
  stalled adopts a view excluding itself and self-fences rather than serving
  stale-view clients alongside its replacement; the matching
  :class:`FailoverEvent` records the timeline (last heartbeat, detection,
  every survivor's acknowledgement) that ``repro lockbench --faults``
  reports as time-to-takeover.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import LockError
from repro.runtime.transport_socket import Address, normalise_address

#: Virtual nodes per shard on the consistent-hash ring.  Enough that key load
#: stays within a few percent of uniform for any realistic shard count.
RING_VNODES = 64


# --------------------------------------------------------------------------- #
# consistent hashing
# --------------------------------------------------------------------------- #
def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@lru_cache(maxsize=128)
def _ring(shard_ids: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The sorted hash ring over ``shard_ids``: (point, owner) parallel tuples."""
    points = sorted(
        (_hash64(f"shard:{shard}:vnode:{vnode}"), shard)
        for shard in shard_ids
        for vnode in range(RING_VNODES)
    )
    return tuple(p for p, _ in points), tuple(s for _, s in points)


def owner_for_key(key: str, shard_ids: Tuple[int, ...]) -> int:
    """The live shard owning ``key``: first ring point clockwise of its hash.

    Pure function of ``(key, shard_ids)`` via sha256 — every client and every
    shard agrees on ownership with no coordination — and *stable under
    membership change*: removing a shard from ``shard_ids`` only reassigns
    the keys that shard owned.
    """
    if not shard_ids:
        raise LockError("no live shards to own keys")
    hashes, owners = _ring(tuple(sorted(shard_ids)))
    index = bisect.bisect_right(hashes, _hash64(f"key:{key}"))
    return owners[index % len(owners)]


# --------------------------------------------------------------------------- #
# membership views
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ClusterView:
    """An epoch-stamped membership map: live shard id -> address.

    Addresses may be ``None`` before the parent's first push (routing only
    needs the ids); epochs only grow, and every adopter ignores views older
    than what it already holds.
    """

    epoch: int
    shards: Mapping[int, Optional[Address]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", dict(self.shards))
        shard_ids = tuple(self.shards)
        object.__setattr__(self, "_shard_ids", shard_ids)  # once, not per op
        # A one-shard view owns every key: no ring to read.  A caller on the
        # op path reads this before it calls owner_for.
        object.__setattr__(self, "only_shard", shard_ids[0] if len(shard_ids) == 1 else None)

    def owner_for(self, key: str) -> int:
        if self.only_shard is not None:
            return self.only_shard
        return owner_for_key(key, self._shard_ids)

    def without(self, shard: int) -> "ClusterView":
        """The next epoch's view with ``shard`` removed."""
        survivors = {s: a for s, a in self.shards.items() if s != shard}
        return ClusterView(epoch=self.epoch + 1, shards=survivors)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "shards": {
                str(shard): list(address) if isinstance(address, tuple) else address
                for shard, address in self.shards.items()
            },
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ClusterView":
        shards = {
            int(shard): None if address is None else normalise_address(address)
            for shard, address in (data.get("shards") or {}).items()
        }
        return ClusterView(epoch=int(data.get("epoch", 0)), shards=shards)


@dataclass
class FailoverEvent:
    """One shard death and its takeover timeline (parent monotonic clock)."""

    shard: int
    epoch: int  #: the epoch the failover *created*
    reason: str  #: ``"exited"`` (sentinel/pipe EOF) or ``"missed-heartbeats"``
    last_heartbeat: float
    detected_at: float
    completed_at: Optional[float] = None  #: every survivor acked the epoch


def failover_spans(
    events: List["FailoverEvent"], *, origin: float
) -> List[Dict[str, Any]]:
    """Failover timelines as trace spans for the Chrome exporter.

    ``origin`` is the run's ``time.monotonic()`` start (the supervisor's
    clock); each event renders as one span from the dead shard's last
    heartbeat to the moment every survivor acknowledged the new epoch (or to
    detection, if acknowledgements are still outstanding).
    """
    spans: List[Dict[str, Any]] = []
    for event in events:
        end = event.completed_at if event.completed_at is not None else event.detected_at
        spans.append(
            {
                "name": f"failover shard {event.shard}",
                "cat": "failover",
                "tid": event.shard,
                "start": event.last_heartbeat - origin,
                "end": end - origin,
                "args": {
                    "epoch": event.epoch,
                    "reason": event.reason,
                    "detection_ms": round(
                        (event.detected_at - event.last_heartbeat) * 1000, 3
                    ),
                },
            }
        )
    return spans


# --------------------------------------------------------------------------- #
# the supervisor
# --------------------------------------------------------------------------- #
@dataclass
class _ShardChannel:
    pipe: Any  #: duplex multiprocessing Connection to the shard
    process: Any  #: the shard's Process (for its sentinel)
    last_heartbeat: float = 0.0
    acked_epoch: int = 0


class ClusterSupervisor(threading.Thread):
    """Watches every shard's heartbeats and process sentinel; runs failover.

    Owns the authoritative :attr:`view` once started: on a death it bumps
    the epoch, pushes the shrunken view down every surviving control pipe,
    and records a :class:`FailoverEvent`; the event is *completed* when all
    survivors have acknowledged (so its span covers detection **and** every
    shard adopting the new ownership map).
    """

    def __init__(
        self,
        *,
        channels: Dict[int, Tuple[Any, Any]],
        view: ClusterView,
        heartbeat_interval: float,
        miss_window: float,
    ) -> None:
        super().__init__(name="lock-cluster-supervisor", daemon=True)
        now = time.monotonic()
        self._channels: Dict[int, _ShardChannel] = {
            shard: _ShardChannel(pipe=pipe, process=process, last_heartbeat=now)
            for shard, (pipe, process) in channels.items()
        }
        self._heartbeat_interval = heartbeat_interval
        self._miss_window = miss_window
        self._lock = threading.Lock()
        self._view = view
        self._events: List[FailoverEvent] = []
        self._halt = threading.Event()

    # ------------------------------------------------------------------ #
    # observers (any thread)
    # ------------------------------------------------------------------ #
    @property
    def view(self) -> ClusterView:
        with self._lock:
            return self._view

    @property
    def events(self) -> List[FailoverEvent]:
        with self._lock:
            return list(self._events)

    def register_metrics(self, registry: Any, *, prefix: str = "cluster") -> None:
        """Register the supervisor's view of the cluster into an obs registry.

        Callback gauges only — reads take the supervisor lock at snapshot
        time, the watch loop pays nothing.
        """
        registry.gauge(f"{prefix}.epoch").set_function(lambda: self.view.epoch)
        registry.gauge(f"{prefix}.live_shards").set_function(
            lambda: len(self.view.shards)
        )
        registry.gauge(f"{prefix}.failovers").set_function(lambda: len(self.events))

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # the watch loop (supervisor thread)
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        while not self._halt.is_set():
            with self._lock:
                live = {
                    shard: channel
                    for shard, channel in self._channels.items()
                    if shard in self._view.shards
                }
            if not live:
                # Every shard is gone; nothing left to watch, but stay
                # responsive to stop() rather than exiting early.
                self._halt.wait(self._heartbeat_interval)
                continue
            waitables: List[Any] = []
            by_waitable: Dict[Any, Tuple[int, str]] = {}
            for shard, channel in live.items():
                waitables.append(channel.pipe)
                by_waitable[channel.pipe] = (shard, "pipe")
                sentinel = channel.process.sentinel
                waitables.append(sentinel)
                by_waitable[sentinel] = (shard, "sentinel")
            ready = mp_connection.wait(waitables, timeout=self._heartbeat_interval)
            now = time.monotonic()
            dead: Dict[int, str] = {}
            for waitable in ready:
                shard, kind = by_waitable[waitable]
                if kind == "sentinel":
                    dead.setdefault(shard, "exited")
                    continue
                channel = live[shard]
                try:
                    while channel.pipe.poll():
                        self._handle_message(shard, channel, channel.pipe.recv(), now)
                except (EOFError, OSError):
                    dead.setdefault(shard, "exited")
            for shard, channel in live.items():
                if shard in dead:
                    continue
                if now - channel.last_heartbeat > self._miss_window:
                    dead[shard] = "missed-heartbeats"
            for shard, reason in dead.items():
                self._declare_dead(shard, reason, now)

    def _handle_message(
        self, shard: int, channel: _ShardChannel, message: Any, now: float
    ) -> None:
        kind = message[0] if isinstance(message, tuple) and message else None
        if kind == "heartbeat":
            channel.last_heartbeat = now
        elif kind == "view-ack":
            channel.last_heartbeat = now  # an ack proves liveness too
            channel.acked_epoch = max(channel.acked_epoch, int(message[2]))
            self._check_completions(now)

    def _declare_dead(self, shard: int, reason: str, now: float) -> None:
        with self._lock:
            if shard not in self._view.shards:
                return
            new_view = self._view.without(shard)
            self._view = new_view
            self._events.append(
                FailoverEvent(
                    shard=shard,
                    epoch=new_view.epoch,
                    reason=reason,
                    last_heartbeat=self._channels[shard].last_heartbeat,
                    detected_at=now,
                )
            )
            survivors = {
                s: self._channels[s] for s in new_view.shards if s in self._channels
            }
        payload = ("view", new_view.to_dict())
        broken: List[int] = []
        for survivor, channel in survivors.items():
            try:
                channel.pipe.send(payload)
            except (BrokenPipeError, OSError):
                broken.append(survivor)
        # Best-effort push to the declared-dead shard too.  A shard declared
        # dead for missed heartbeats may merely be stalled — its process (and
        # pipe) still alive.  Adopting a view that excludes itself turns such
        # a zombie into a self-fencing server (every op answered with
        # code=fenced) instead of a second owner serving stale-view clients
        # alongside the survivor that took its keys over.
        dead_channel = self._channels.get(shard)
        if dead_channel is not None:
            try:
                dead_channel.pipe.send(payload)
            except (BrokenPipeError, OSError):
                pass  # actually dead; nothing to fence
        self._check_completions(now)
        for survivor in broken:  # a push that failed is itself a death signal
            self._declare_dead(survivor, "exited", now)

    def _check_completions(self, now: float) -> None:
        with self._lock:
            for event in self._events:
                if event.completed_at is not None:
                    continue
                survivors = [
                    shard for shard in self._view.shards if shard in self._channels
                ]
                if all(
                    self._channels[shard].acked_epoch >= event.epoch
                    for shard in survivors
                ):
                    event.completed_at = now


__all__ = [
    "RING_VNODES",
    "ClusterSupervisor",
    "ClusterView",
    "FailoverEvent",
    "failover_spans",
    "owner_for_key",
]
