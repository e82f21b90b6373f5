"""Workload data types: critical-section requests and schedules.

Also the collector pause that building a schedule and replaying one both run
under (:class:`paused_collector`).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter, le
from typing import Iterator, List, Tuple

from repro.exceptions import WorkloadError


class CSRequest:
    """One critical-section request in a workload.

    A hand-rolled frozen ``__slots__`` value object, like the messages in
    :mod:`repro.core.messages` (``dataclass(slots=True)`` needs Python 3.10
    and CI runs 3.9): a heavy schedule holds one instance per request for
    the whole replay, 56 bytes each with no ``__dict__`` beside it.  Equality,
    hash and repr are those of a frozen dataclass with the same fields.

    ``__init__`` is the only Python frame a generator spends per request:
    the generators build requests positionally, a heavy round in one
    ``map(CSRequest, ...)``, and the three fields are stored through the
    slots' own member descriptors, bound once at import, rather than looked
    up through ``object.__setattr__`` on every call.

    Attributes:
        node: the node that issues the request.
        arrival_time: virtual time at which the request is issued.
        cs_duration: how long the node stays inside its critical section once
            it gets in.
    """

    __slots__ = ("node", "arrival_time", "cs_duration")

    def __init__(self, node: int, arrival_time: float, cs_duration: float = 1.0) -> None:
        if not arrival_time >= 0:  # a NaN too
            raise WorkloadError(f"arrival time must be non-negative, got {arrival_time}")
        if not cs_duration >= 0:
            raise WorkloadError(f"CS duration must be non-negative, got {cs_duration}")
        _set_node(self, node)
        _set_arrival_time(self, arrival_time)
        _set_cs_duration(self, cs_duration)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt through __init__: the default slot-state protocol restores
        # with setattr, which a frozen instance refuses.
        return (self.__class__, (self.node, self.arrival_time, self.cs_duration))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.node, self.arrival_time, self.cs_duration) == (
                other.node, other.arrival_time, other.cs_duration
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.node, self.arrival_time, self.cs_duration))

    def __repr__(self) -> str:
        return (
            f"CSRequest(node={self.node!r}, arrival_time={self.arrival_time!r}, "
            f"cs_duration={self.cs_duration!r})"
        )


# The slots' member descriptors store past the frozen ``__setattr__``.
_set_node = CSRequest.node.__set__
_set_arrival_time = CSRequest.arrival_time.__set__
_set_cs_duration = CSRequest.cs_duration.__set__

_by_node = attrgetter("node")
_by_arrival_time = attrgetter("arrival_time")


@dataclass(frozen=True)
class Workload:
    """An ordered schedule of critical-section requests.

    The schedule may contain several requests by the same node; the driver
    serialises them (a node never has two outstanding requests, matching the
    paper's assumption) by delaying a request until the node's previous one
    has completed.
    """

    requests: Tuple[CSRequest, ...]
    description: str = ""

    def __post_init__(self) -> None:
        # By arrival time, then node id, with no key object per request: kept if
        # already so (checked in C), else sorted in two stable one-key passes.
        requests = tuple(self.requests)
        keys = (list(map(_by_arrival_time, requests)), list(map(_by_node, requests)))
        if not all(map(le, zip(*keys), islice(zip(*keys), 1, None))):
            del keys
            ordered = sorted(requests, key=_by_node)
            ordered.sort(key=_by_arrival_time)
            requests = tuple(ordered)
        object.__setattr__(self, "requests", requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[CSRequest]:
        return iter(self.requests)

    @property
    def nodes(self) -> List[int]:
        """Distinct nodes that appear in the workload, sorted."""
        return sorted({request.node for request in self.requests})

    @classmethod
    def single(cls, node: int) -> "Workload":
        """A workload with one immediate request by ``node``."""
        return cls(
            requests=(CSRequest(node, 0.0),),
            description=f"single request by node {node}",
        )


class paused_collector:
    """Run the ``with`` body with the cyclic garbage collector paused.

    Building a schedule and replaying one each allocate hundreds of
    thousands of tracked objects (a heavy schedule's requests, a replay's
    queued entries and messages) and no reference cycle among them
    (``tests/workload/test_replay_gc.py`` holds both premises), so reference
    counting frees all of it and every collector pass inside would only
    re-walk objects that are still alive.  :meth:`WorkloadSpec.build
    <repro.spec.WorkloadSpec.build>` and :meth:`ExperimentDriver.run
    <repro.workload.driver.ExperimentDriver.run>` run under it.  On the way
    out — return or raise — the collector is re-enabled only if it was
    enabled on the way in: a caller who had it off keeps it off.  Cyclic
    garbage made before the ``with`` waits through it too, so a caller that
    drops one large system and builds the next collects in between
    (:func:`repro.bench.setup_cost.run_setup_benchmark` does).

    A class, not a generator: re-enabling is the last thing ``__exit__``
    does, so the collection the paused allocations have made due runs at
    the caller's next allocation, outside the ``with``.  A generator would
    allocate its ``StopIteration`` after re-enabling and collect inside.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._was_enabled:
            gc.enable()
