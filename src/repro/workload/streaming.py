"""Lazily generated workloads: arrival batches instead of request lists.

A materialised :class:`~repro.workload.requests.Workload` holds one
:class:`~repro.workload.requests.CSRequest` object per request.  At the
million-node tier that is the dominant setup cost: a heavy-demand schedule is
millions of requests, i.e. hundreds of megabytes of request objects and a
multi-second construction — for objects whose only job is to be drained
through the event queue once.

A :class:`StreamingWorkload` replaces the list with a *batch factory*: a
callable returning a fresh iterator of arrival-ordered request batches.  The
experiment driver loads it exactly as it loads a materialised schedule — one
bulk load, every sequence number drawn up front — and the engine builds its
entries a chunk at a time from one lazy pass over the batches, so a batch is
generated only when the drain reaches it: the process holds the batch being
drawn plus whatever is genuinely in flight, and peak RSS is bounded by the
batch size, not the workload length.  The replay is the materialised one
event for event, whatever the batch size.

Contract (checked as each batch is drawn, by :meth:`iter_batches`):

* batches are lists of :class:`CSRequest` in ``(arrival_time, node)``
  order — a ``Workload``'s own order — and each starts no earlier than the
  previous one ended;
* the batches hold exactly ``len()`` requests in all;
* the factory is *re-iterable*: every call replays the identical schedule,
  which is what lets best-of-N benchmarking and the byte-identity gates
  work on streamed workloads exactly as on materialised ones.
"""

from __future__ import annotations

from itertools import chain
from math import inf
from operator import le
from typing import Callable, Iterator, List

from repro.exceptions import WorkloadError
from repro.workload.requests import CSRequest, _by_arrival_time, _by_node


class StreamingWorkload:
    """An arrival-ordered request schedule produced in batches.

    Args:
        batch_factory: zero-argument callable returning a fresh iterator of
            request batches (lists of :class:`CSRequest`).
        total_requests: exact number of requests the factory yields in full.
        description: human-readable summary (mirrors ``Workload.description``).
    """

    __slots__ = (
        "_batch_factory",
        "_total",
        "description",
    )

    def __init__(
        self,
        batch_factory: Callable[[], Iterator[List[CSRequest]]],
        *,
        total_requests: int,
        description: str = "",
    ) -> None:
        if total_requests < 0:
            raise WorkloadError(
                f"total_requests must be >= 0, got {total_requests}"
            )
        self._batch_factory = batch_factory
        self._total = int(total_requests)
        self.description = description

    def __len__(self) -> int:
        return self._total

    def iter_batches(self) -> Iterator[List[CSRequest]]:
        """A fresh pass over the batches (empty batches are skipped).

        Each batch is checked before it is yielded, so a replay never
        schedules a request that breaks the contract: a batch out of
        ``(arrival_time, node)`` order (counting from the previous batch's
        last request), one that starts before the previous batch's last
        arrival, or
        one past ``len()`` requests raises :class:`WorkloadError`, and so
        does a pass that ends short of ``len()``.
        """
        name = self.description or "streaming workload"
        left = self._total
        last = (-inf, -inf)
        for batch in self._batch_factory():
            if not batch:
                continue
            left -= len(batch)
            if left < 0:
                raise WorkloadError(
                    f"{name}: yields more than its {self._total} requests"
                )
            times = list(map(_by_arrival_time, batch))
            nodes = list(map(_by_node, batch))
            if times[0] < last[0]:
                raise WorkloadError(
                    f"{name}: batch starting at {times[0]} precedes "
                    f"the previous batch's last arrival {last[0]}"
                )
            # (time, node) pairs, each against the one before it (the
            # previous batch's last for the first), compared in C.
            before = zip(chain((last[0],), times), chain((last[1],), nodes))
            if not all(map(le, before, zip(times, nodes))):
                raise WorkloadError(
                    f"{name}: batch starting at {times[0]} is not in "
                    f"(arrival time, node) order"
                )
            last = (times[-1], nodes[-1])
            yield batch
        if left:
            raise WorkloadError(
                f"{name}: yields {self._total - left} of its {self._total} requests"
            )

    def __iter__(self) -> Iterator[CSRequest]:
        """The requests of one checked pass, flattened in C: no Python frame
        per request, and a batch is generated only when it is reached."""
        return chain.from_iterable(self.iter_batches())
