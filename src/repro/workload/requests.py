"""Workload data types: critical-section requests and schedules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.exceptions import WorkloadError


@dataclass(frozen=True)
class CSRequest:
    """One critical-section request in a workload.

    Attributes:
        node: the node that issues the request.
        arrival_time: virtual time at which the request is issued.
        cs_duration: how long the node stays inside its critical section once
            it gets in.
    """

    node: int
    arrival_time: float
    cs_duration: float = 1.0

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise WorkloadError(f"arrival time must be non-negative, got {self.arrival_time}")
        if self.cs_duration < 0:
            raise WorkloadError(f"CS duration must be non-negative, got {self.cs_duration}")


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
