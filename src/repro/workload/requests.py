"""Workload data types: critical-section requests and schedules.

A schedule is stored as columns — arrival times, nodes and durations — not
as request objects.  Also the collector pause a replay runs under
(:class:`paused_collector`).
"""

from __future__ import annotations

import gc
from itertools import chain, islice, repeat
from operator import attrgetter, eq, le
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.exceptions import WorkloadError


class CSRequest:
    """One critical-section request in a workload.

    A hand-rolled frozen ``__slots__`` value object, like the messages in
    :mod:`repro.core.messages` (``dataclass(slots=True)`` needs Python 3.10
    and CI runs 3.9), 56 bytes with no ``__dict__`` beside it.  Equality,
    hash and repr are those of a frozen dataclass with the same fields.

    A :class:`Workload` stores columns and builds requests only for a
    caller that iterates it, positionally in one ``map(CSRequest, ...)``;
    the three fields are stored through the slots' own member descriptors,
    bound once at import, rather than looked up through
    ``object.__setattr__`` on every call.

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
_by_cs_duration = attrgetter("cs_duration")


class Columns:
    """A schedule's arrival times, nodes and durations as three lists.

    Normalised on construction: ``durations`` is ``None`` when every
    duration is the default 1.0 (the generators pass ``None`` outright), and
    the columns are put in ``(arrival_time, node)`` order — kept if already
    so, which is checked in C with no key tuple per request, else permuted
    by two stable one-key passes over the indices, so equal requests keep
    their input order.
    """

    __slots__ = ("times", "nodes", "durations")

    def __init__(
        self, times: List[float], nodes: List[int], durations: Optional[List[float]]
    ) -> None:
        if durations is not None and durations.count(1.0) == len(durations):
            durations = None
        if not all(map(le, zip(times, nodes), islice(zip(times, nodes), 1, None))):
            order = sorted(range(len(times)), key=nodes.__getitem__)
            order.sort(key=times.__getitem__)
            times = list(map(times.__getitem__, order))
            nodes = list(map(nodes.__getitem__, order))
            if durations is not None:
                durations = list(map(durations.__getitem__, order))
        self.times = times
        self.nodes = nodes
        self.durations = durations

    def __len__(self) -> int:
        return len(self.times)

    def __reduce__(self):
        return (self.__class__, (self.times, self.nodes, self.durations))

    def draw(self) -> Tuple[Iterator[float], Iterator[int], Iterator[float]]:
        """Fresh iterators over the three columns."""
        durations = self.durations
        return (
            iter(self.times),
            iter(self.nodes),
            repeat(1.0) if durations is None else iter(durations),
        )


class HeavyRounds:
    """The heavy-demand schedule's columns as one small value.

    Every node, in ascending id order, requests once in each of ``rounds``
    rounds; round ``r`` arrives at time ``float(r)`` and every duration is
    1.0.  The value holds the sorted node tuple and the round count, so it
    costs O(n) memory at any round count: each :meth:`draw` repeats the
    tuple ``rounds`` times in C, and a round's requests share one time
    float.  Picklable, and weakly referenceable as every schedule is.
    """

    __slots__ = ("nodes", "rounds", "__weakref__")

    def __init__(self, nodes: Iterable[int], rounds: int) -> None:
        self.nodes = tuple(sorted(nodes))
        self.rounds = rounds

    def __len__(self) -> int:
        return len(self.nodes) * self.rounds

    def __reduce__(self):
        return (self.__class__, (self.nodes, self.rounds))

    def draw(self) -> Tuple[Iterator[float], Iterator[int], Iterator[float]]:
        """Fresh iterators over the three columns, drawn lazily."""
        nodes, rounds = self.nodes, self.rounds
        return (
            chain.from_iterable(map(repeat, map(float, range(rounds)), repeat(len(nodes)))),
            chain.from_iterable(repeat(nodes, rounds)),
            repeat(1.0),
        )


class Workload:
    """An ordered schedule of critical-section requests.

    The schedule may contain several requests by the same node; the driver
    serialises them (a node never has two outstanding requests, matching the
    paper's assumption) by delaying a request until the node's previous one
    has completed.

    A workload stores columns, not requests: :class:`Columns` (three lists)
    or, for the heavy-demand tier, :class:`HeavyRounds` (one node tuple and
    a round count).  ``Workload(requests=..., description=...)`` takes
    requests in any order and sorts them by ``(arrival_time, node)``; the
    generators hand their columns to :meth:`of`.  The driver replays
    :meth:`arrivals`; :class:`CSRequest` objects are built only for a caller
    that iterates the workload or reads :attr:`requests`.
    """

    __slots__ = ("_columns", "description", "__weakref__")

    def __init__(self, requests: Iterable[CSRequest], description: str = "") -> None:
        requests = tuple(requests)
        self._columns = Columns(
            list(map(_by_arrival_time, requests)),
            list(map(_by_node, requests)),
            list(map(_by_cs_duration, requests)),
        )
        self.description = description

    @classmethod
    def of(cls, columns: Union[Columns, HeavyRounds], description: str) -> "Workload":
        """A workload over ``columns``, which it keeps as they are."""
        workload = cls.__new__(cls)
        workload._columns = columns
        workload.description = description
        return workload

    def __reduce__(self):
        return (self.of, (self._columns, self.description))

    def __len__(self) -> int:
        return len(self._columns)

    def arrivals(self) -> Tuple[Iterator[float], Iterator[int], Iterator[float]]:
        """Fresh iterators over the arrival times, the nodes and the
        durations, in schedule order (the durations never run out)."""
        return self._columns.draw()

    def __iter__(self) -> Iterator[CSRequest]:
        times, nodes, durations = self._columns.draw()
        return map(CSRequest, nodes, times, durations)

    @property
    def requests(self) -> Tuple[CSRequest, ...]:
        """The schedule as request objects, built afresh on every read."""
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.description == other.description
            and len(self) == len(other)
            and all(map(eq, zip(*self.arrivals()), zip(*other.arrivals())))
        )

    def __hash__(self) -> int:
        return hash((self.description, len(self)))

    def __repr__(self) -> str:
        return f"Workload({len(self)} requests, description={self.description!r})"

    @property
    def nodes(self) -> List[int]:
        """Distinct nodes that appear in the workload, sorted."""
        return sorted(set(self._columns.draw()[1]))

    @classmethod
    def single(cls, node: int) -> "Workload":
        """A workload with one immediate request by ``node``."""
        return cls(
            requests=(CSRequest(node, 0.0),),
            description=f"single request by node {node}",
        )


class paused_collector:
    """Run the ``with`` body with the cyclic garbage collector paused.

    A replay allocates hundreds of thousands of tracked objects (its queued
    entries and messages) and no reference cycle among them
    (``tests/workload/test_replay_gc.py`` holds the premise), so reference
    counting frees all of it and every collector pass inside would only
    re-walk objects that are still alive.  :meth:`ExperimentDriver.run
    <repro.workload.driver.ExperimentDriver.run>` and the setup benchmark's
    arrival load run under it.  On the way
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
