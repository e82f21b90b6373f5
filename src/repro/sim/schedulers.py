"""The spellings a ``scheduler`` field still accepts.

The engine has one event queue (:class:`~repro.sim.engine.SimulationEngine`
keeps its heap, bulk load and lane itself), so ``scheduler`` selects
nothing.  Committed ``experiment-spec/v1`` files, sweep shards and the
``perf/`` harness still carry or pass the value, so ``"auto"`` and
``"heap"`` stay accepted, and any other spelling is refused with the one
message below.  ``benchmarks/README.md`` ("Why there is one scheduler")
holds the A/B that retired the bucket ring.
"""

from __future__ import annotations

from repro.exceptions import SchedulingError

#: Spellings accepted wherever a ``scheduler`` field survives (specs, the
#: driver, the engine, :func:`make_scheduler`); both mean the one queue.
SCHEDULER_MODES = ("auto", "heap")


def unknown_scheduler_message(kind: object) -> str:
    """Why ``kind`` is not a scheduler; names the ring's removal."""
    removed = " (the bucket-ring scheduler was removed)" if kind == "ring" else ""
    return f"unknown scheduler {kind!r}{removed}; known: {list(SCHEDULER_MODES)}"


def make_scheduler(kind: str, *, latency=None, workload=None) -> str:
    """``"heap"``, the spelling ``SimulationEngine(scheduler=...)`` takes,
    for any of :data:`SCHEDULER_MODES`.

    ``latency`` and ``workload`` are accepted and ignored: callers written
    against the scenario-aware selection rule keep working.

    Raises:
        SchedulingError: for any other ``kind`` — including ``"ring"``, the
            bucket ring this module no longer has.
    """
    if kind not in SCHEDULER_MODES:
        raise SchedulingError(unknown_scheduler_message(kind))
    return "heap"
