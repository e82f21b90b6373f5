"""Sharded sweep runner: fan scenarios out over a pool of child processes.

The runner is deliberately not a ``multiprocessing.Pool``: a pool shares
worker processes between tasks, so one crashing scenario poisons the pool (and
``concurrent.futures`` marks every pending future broken).  Here each scenario
gets its own short-lived :class:`multiprocessing.Process` with a private pipe;
the parent multiplexes completions with :func:`multiprocessing.connection.wait`
and keeps at most ``workers`` children alive.  A child that dies without
reporting — crash, OOM kill, fault injection — costs exactly one row.

Merged output is deterministic by construction: scenario outcomes depend only
on the cell's spec (seeds derive from names), rows are merged in scenario
name order, and all host-dependent measurements live under per-row ``timing``
keys (plus the top-level ``run`` key), which :func:`deterministic_document`
strips.  ``repro sweep`` with one worker and with N workers therefore produces
byte-identical deterministic documents.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

# Re-exported under the sweep's names: a sweep document is stripped,
# serialised and written exactly like every other benchmark document.
from repro.benchdoc import canonical_json
from repro.benchdoc import deterministic as deterministic_document
from repro.benchdoc import write as write_document
from repro.cells import Cell
from repro.sweep.worker import child_main, error_row

SCHEMA = "sweep/v1"


class _RunningScenario:
    """Bookkeeping for one in-flight child process."""

    __slots__ = ("spec", "process", "reader", "deadline")

    def __init__(self, spec, process, reader, deadline) -> None:
        self.spec = spec
        self.process = process
        self.reader = reader
        self.deadline = deadline


def run_sweep(
    matrix: Sequence[Cell],
    *,
    workers: int = 2,
    timeout: Optional[float] = None,
    start_method: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Execute ``matrix`` over ``workers`` child processes and merge results.

    Args:
        matrix: the scenarios to run (order does not affect the output).
        workers: maximum concurrent child processes (>= 1).
        timeout: optional per-scenario wall-clock budget in seconds; an
            overrunning child is terminated and recorded as ``"timeout"``.
            Note that *whether* a scenario times out depends on host speed
            and worker contention, so timeout rows are the one exception to
            the byte-identity guarantee of :func:`deterministic_document` —
            leave ``timeout`` unset when comparing documents across runs.
        start_method: ``multiprocessing`` start method (default: platform
            default — ``fork`` on Linux; results are identical under all).
        progress: optional callback receiving one line per finished scenario.

    Returns:
        The merged sweep document (see :data:`SCHEMA`).  Host-dependent
        fields are confined to ``document["run"]`` and each row's
        ``"timing"`` key so :func:`deterministic_document` can strip them.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    specs = list(matrix)
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("sweep matrix contains duplicate scenario names")
    context = (
        multiprocessing.get_context(start_method)
        if start_method is not None
        else multiprocessing.get_context()
    )

    queue = list(reversed(specs))  # pop() takes scenarios in matrix order
    running: Dict[Any, _RunningScenario] = {}  # keyed by process sentinel
    rows: Dict[str, Dict[str, Any]] = {}
    started = time.perf_counter()

    def launch(spec: Cell) -> None:
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(
            target=child_main,
            args=({"name": spec.name, "experiment": spec.experiment.to_dict()}, writer),
            daemon=True,
        )
        process.start()
        writer.close()  # the child holds the only write end now
        deadline = time.monotonic() + timeout if timeout is not None else None
        running[process.sentinel] = _RunningScenario(spec, process, reader, deadline)

    def finish(entry: _RunningScenario) -> None:
        entry.process.join()
        # A dead child with nothing in the pipe still reports poll()=True (the
        # closed write end is EOF-readable), so a crash surfaces as EOFError.
        try:
            row = entry.reader.recv() if entry.reader.poll() else None
        except EOFError:
            row = None
        if row is None:
            row = error_row(
                entry.spec, "crashed", exitcode=entry.process.exitcode
            )
        entry.reader.close()
        rows[row["scenario"]] = row
        if progress is not None:
            timing = row.get("timing") or {}
            rate = timing.get("events_per_sec")
            detail = f"{rate:>12,.0f} ev/s" if rate else row["status"].upper()
            progress(f"{row['scenario']:<44} {detail}")

    while queue or running:
        while queue and len(running) < workers:
            launch(queue.pop())
        wait_for = None
        now = time.monotonic()
        deadlines = [e.deadline for e in running.values() if e.deadline is not None]
        if deadlines:
            wait_for = max(0.0, min(deadlines) - now)
        ready = mp_connection.wait(list(running), timeout=wait_for)
        for sentinel in ready:
            finish(running.pop(sentinel))
        if timeout is not None:
            now = time.monotonic()
            for sentinel, entry in list(running.items()):
                if entry.deadline is not None and now >= entry.deadline:
                    # A child that already reported beat the deadline even if
                    # its sentinel wasn't in this round's ready set — take
                    # its row rather than discarding a finished scenario.
                    if entry.reader.poll():
                        finish(running.pop(sentinel))
                        continue
                    entry.process.terminate()
                    entry.process.join()
                    entry.reader.close()
                    rows[entry.spec.name] = error_row(
                        entry.spec, "timeout", timeout_seconds=timeout
                    )
                    del running[sentinel]
                    if progress is not None:
                        progress(f"{entry.spec.name:<44} TIMEOUT")

    ordered = [rows[name] for name in sorted(rows)]
    failures = [row["scenario"] for row in ordered if row["status"] != "ok"]
    return {
        "schema": SCHEMA,
        "generated_by": "repro sweep",
        "matrix_size": len(specs),
        "scenarios": ordered,
        "failures": failures,
        "run": {
            "workers": workers,
            "start_method": context.get_start_method(),
            "wall_seconds": round(time.perf_counter() - started, 3),
        },
    }


def merge_documents(documents: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge the scenario rows of several sweep documents into one.

    Used to combine shards produced on different machines (each shard runs a
    disjoint slice of the matrix).  Scenario names must not collide.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for document in documents:
        for row in document.get("scenarios", []):
            if row["scenario"] in rows:
                raise ValueError(
                    f"scenario {row['scenario']!r} appears in more than one shard"
                )
            rows[row["scenario"]] = row
    ordered = [rows[name] for name in sorted(rows)]
    return {
        "schema": SCHEMA,
        "generated_by": "repro sweep (merged shards)",
        "matrix_size": len(ordered),
        "scenarios": ordered,
        "failures": [row["scenario"] for row in ordered if row["status"] != "ok"],
        "run": {"workers": None, "start_method": None, "wall_seconds": None},
    }
