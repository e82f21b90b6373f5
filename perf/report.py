"""What one workload run hands back to ``run.py``, plus the process probes."""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Result:
    """Outcome of one workload run (one ``--trace`` mode)."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> value, in the unit ``BENCHMARK.json`` declares.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: end-to-end metric name -> value before the machine-speed correction.
    raw: Dict[str, float] = field(default_factory=dict)
    #: metric name -> number of samples behind the value (replays, ops).
    samples: Dict[str, int] = field(default_factory=dict)
    #: engaged kinds and sizes, for the reader (never compared).
    labels: Dict[str, object] = field(default_factory=dict)
    #: failed output checks; empty means correct.
    problems: List[str] = field(default_factory=list)
    #: things worth saying that are not failures (discards, warnings).
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` (kilobytes on Linux) as megabytes."""
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


#: What one reference loop takes, between slices of real work, on a quiet core
#: of the sandbox the bounds were set on; times are reported as if every loop
#: had taken this long.
REFERENCE_SECONDS = 0.0006
_REFERENCE_ROUNDS = 60
#: Two frames of the shape the lock service exchanges.  A private copy: the
#: reference must not move when the repository's code does.
_REFERENCE_FRAMES = (
    {"op": "acquire", "key": "lock-517", "session": 37, "epoch": 0, "id": "1a2b-9f3c01d2:48213"},
    {"ok": True, "epoch": 0, "id": "1a2b-9f3c01d2:48213"},
)


def pin_to_one_cpu() -> None:
    """Keep this process, and every child it starts, on one core.

    Two processes that answer each other from two virtual cores stall
    together whenever the host takes either core away; side by side, free
    runs of the service spread 2-4 times wider than pinned ones.  One core
    also means the reference loop below times the core the work runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class MachineSpeed:
    """How fast this machine runs Python right now, sampled beside the work.

    The sandbox's speed drifts by a third over minutes and by more within a
    second (a fixed loop timed for four minutes has an interquartile range
    of 19 % of its median), which no amount of measuring inside a 10-second
    run averages away.  Each sample times one fixed reference loop — JSON
    round trips of two small dicts through the standard library, which of
    the loops tried (integer/dict arithmetic, allocation, memory walk) follows
    the simulator and the service most closely; a time measured next to it is
    divided by :meth:`slowdown` over the same interval, which cancels what
    the machine did to both.
    """

    def __init__(self) -> None:
        #: (taken at, seconds the loop took)
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> float:
        dumps, loads, frames = json.dumps, json.loads, _REFERENCE_FRAMES
        start = time.perf_counter()
        for _ in range(_REFERENCE_ROUNDS):
            for frame in frames:
                loads(dumps(frame))
        end = time.perf_counter()
        self.samples.append((end, end - start))
        return end - start

    def slowdown(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """Median reference time in ``[since, until]`` over the nominal time.

        Falls back to every sample of the run when the interval holds none.
        """
        chosen = [took for at, took in self.samples if since <= at <= until]
        if not chosen:
            chosen = [took for _at, took in self.samples]
        return statistics.median(chosen) / REFERENCE_SECONDS
