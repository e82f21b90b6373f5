"""Workload data types: critical-section requests and schedules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.exceptions import WorkloadError


class CSRequest:
    """One critical-section request in a workload.

    A hand-rolled frozen ``__slots__`` value object, like the messages in
    :mod:`repro.core.messages` (``dataclass(slots=True)`` needs Python 3.10
    and CI runs 3.9): a heavy schedule holds one instance per request for
    the whole replay, 56 bytes each with no ``__dict__`` beside it.  Equality,
    hash and repr are those of a frozen dataclass with the same fields.

    Attributes:
        node: the node that issues the request.
        arrival_time: virtual time at which the request is issued.
        cs_duration: how long the node stays inside its critical section once
            it gets in.
    """

    __slots__ = ("node", "arrival_time", "cs_duration")

    def __init__(self, node: int, arrival_time: float, cs_duration: float = 1.0) -> None:
        if arrival_time < 0:
            raise WorkloadError(f"arrival time must be non-negative, got {arrival_time}")
        if cs_duration < 0:
            raise WorkloadError(f"CS duration must be non-negative, got {cs_duration}")
        store = object.__setattr__
        store(self, "node", node)
        store(self, "arrival_time", arrival_time)
        store(self, "cs_duration", cs_duration)

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
        ordered = tuple(sorted(self.requests, key=lambda r: (r.arrival_time, r.node)))
        object.__setattr__(self, "requests", ordered)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[CSRequest]:
        return iter(self.requests)

    @property
    def nodes(self) -> List[int]:
        """Distinct nodes that appear in the workload, sorted."""
        return sorted({request.node for request in self.requests})

    @classmethod
    def single(cls, node: int, *, cs_duration: float = 1.0) -> "Workload":
        """A workload with one immediate request by ``node``."""
        return cls(
            requests=(CSRequest(node=node, arrival_time=0.0, cs_duration=cs_duration),),
            description=f"single request by node {node}",
        )
