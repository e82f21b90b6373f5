"""Lazily generated workloads: arrival batches instead of request lists.

A materialised :class:`~repro.workload.requests.Workload` holds one
:class:`~repro.workload.requests.CSRequest` object per request.  At the
million-node tier that is the dominant setup cost: a heavy-demand schedule is
millions of requests, i.e. hundreds of megabytes of request objects and a
multi-second construction — for objects whose only job is to be drained
through the event queue once.

A :class:`StreamingWorkload` replaces the list with a *batch factory*: a
callable returning a fresh iterator of arrival-ordered request batches.  The
experiment driver loads one batch into the engine at a time (via
``schedule_lite_bulk``: the batch waits beside the event heap, its entries
built a chunk at a time) and schedules the next load as a lite event at the
current batch's last arrival time, so at any moment the process holds that
batch and the prefetched next plus whatever is genuinely in flight — peak
RSS is bounded by the chunk size, not the workload length.

Contract (checked where cheap, tested everywhere):

* batches are non-empty lists of :class:`CSRequest`, ordered by
  ``(arrival_time, node)`` within a batch, and non-decreasing across batch
  boundaries (the driver verifies the boundary condition as it loads);
* the factory is *re-iterable*: every call replays the identical schedule,
  which is what lets best-of-N benchmarking and the byte-identity gates
  work on streamed workloads exactly as on materialised ones;
* ``len()`` is the exact total request count, known up front.
"""

from __future__ import annotations

from typing import Callable, Iterator, List

from repro.exceptions import WorkloadError
from repro.workload.requests import CSRequest

#: Default number of requests the driver keeps in the engine per batch.  At
#: 64 bytes per request (the 56-byte slotted object and its list slot) plus 8
#: per queued arrival (its time's list slot; the entries are built 2048 at a
#: time) this holds one queued chunk at 7.4 MB and the prefetched next at 6.4
#: (13.8 MB by ``tracemalloc``, CPython 3.11, star(1000)), while staying
#: large enough that the per-batch Python overhead (one lite event + one bulk
#: load) is noise.
DEFAULT_CHUNK_REQUESTS = 100_000


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
        """A fresh pass over the batches (empty batches are skipped)."""
        for batch in self._batch_factory():
            if batch:
                yield batch

    def __iter__(self) -> Iterator[CSRequest]:
        """Flatten the batches — compatibility with ``Workload`` consumers.

        Iterating a million-request stream materialises nothing, but costs a
        Python iteration per request; large-scale paths should stay on
        :meth:`iter_batches`.
        """
        for batch in self.iter_batches():
            yield from batch
