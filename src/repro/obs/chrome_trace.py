"""Render traces to Chrome ``trace_event`` JSON (chrome://tracing, Perfetto).

Two producers share one consumer format:

* **Simulator** :class:`~repro.sim.trace.TraceEvent` streams.  Virtual time
  maps to microseconds at a fixed scale (1 time unit = 1 ms of trace time,
  so a heavy run's request/enter/exit rhythm is legible at default zoom).
  ``cs_request``→``cs_enter`` renders as a *waiting* span and
  ``cs_enter``→``cs_exit`` as a *critical_section* span per node; every
  other category becomes a thread-scoped instant event.  The mapping is a
  pure function of the event stream, so a deterministic replay exports a
  byte-identical document (CI-tested).
* **Runtime op lifecycles** — span dicts recorded by the lock client and
  the lockbench driver (request→grant→release, failover windows,
  fenced/retried ops), already in seconds relative to a run origin.

The document is written through the sweep harness's ``canonical_json``
helper, so exported artifacts are byte-stable under merging and comparison
(trace viewers ignore key order).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.benchdoc import canonical_json

#: Virtual-time scale: one simulated time unit becomes this many trace
#: microseconds (i.e. 1 unit == 1 ms in the viewer).
SIM_TIME_SCALE_US = 1000.0

#: Wall-clock scale for runtime spans recorded in seconds.
WALL_TIME_SCALE_US = 1_000_000.0


def _ts(value: float, scale: float) -> int:
    return int(round(value * scale))


def sim_trace_events(events: Iterable[Any]) -> List[Dict[str, Any]]:
    """Chrome events for a simulator :class:`TraceEvent` stream, as process 0.

    Per node (rendered as a thread), ``cs_request``/``cs_enter``/``cs_exit``
    fold into complete ("X") spans; other categories become instant ("i")
    events carrying their detail dict as ``args``.  Unpaired opens (a run
    truncated mid-entry) are dropped rather than invented.
    """
    out: List[Dict[str, Any]] = []
    waiting_since: Dict[Any, float] = {}
    inside_since: Dict[Any, float] = {}
    for event in events:
        node = event.node
        if event.category == "cs_request":
            waiting_since.setdefault(node, event.time)
            continue
        if event.category == "cs_enter":
            requested = waiting_since.pop(node, None)
            if requested is not None:
                out.append(
                    {
                        "name": "waiting",
                        "cat": "mutex",
                        "ph": "X",
                        "ts": _ts(requested, SIM_TIME_SCALE_US),
                        "dur": _ts(event.time - requested, SIM_TIME_SCALE_US),
                        "pid": 0,
                        "tid": node,
                    }
                )
            inside_since[node] = event.time
            continue
        if event.category == "cs_exit":
            entered = inside_since.pop(node, None)
            if entered is not None:
                out.append(
                    {
                        "name": "critical_section",
                        "cat": "mutex",
                        "ph": "X",
                        "ts": _ts(entered, SIM_TIME_SCALE_US),
                        "dur": _ts(event.time - entered, SIM_TIME_SCALE_US),
                        "pid": 0,
                        "tid": node,
                    }
                )
            continue
        out.append(
            {
                "name": event.category,
                "cat": event.category,
                "ph": "i",
                "s": "t",
                "ts": _ts(event.time, SIM_TIME_SCALE_US),
                "pid": 0,
                "tid": node,
                "args": {key: event.detail[key] for key in sorted(event.detail)},
            }
        )
    # Chrome sorts for display, but a canonical document must not depend on
    # close-out order: sort by (ts, tid, name) for byte stability.
    out.sort(key=lambda item: (item["ts"], item["tid"], item["name"]))
    return out


def runtime_span_events(
    spans: Iterable[Mapping[str, Any]],
    *,
    pid: int = 1,
) -> List[Dict[str, Any]]:
    """Chrome events for runtime op-lifecycle spans.

    Each span is a mapping with ``name``, ``start`` and ``end`` (seconds,
    relative to the run origin), an optional ``tid`` (defaults to 0 — use
    the session id), optional ``cat`` and optional ``args``.  A span whose
    ``end`` is missing (an op cut off mid-flight) renders as an instant.
    """
    out: List[Dict[str, Any]] = []
    for span in spans:
        start = float(span["start"])
        end = span.get("end")
        tid = int(span.get("tid", 0))
        base = {
            "name": str(span["name"]),
            "cat": str(span.get("cat", "op")),
            "pid": pid,
            "tid": tid,
        }
        args = span.get("args")
        if args:
            base["args"] = {key: args[key] for key in sorted(args)}
        if end is None:
            base.update({"ph": "i", "s": "t", "ts": _ts(start, WALL_TIME_SCALE_US)})
        else:
            base.update(
                {
                    "ph": "X",
                    "ts": _ts(start, WALL_TIME_SCALE_US),
                    "dur": max(1, _ts(float(end) - start, WALL_TIME_SCALE_US)),
                }
            )
        out.append(base)
    out.sort(key=lambda item: (item["ts"], item["pid"], item["tid"], item["name"]))
    return out


def chrome_trace_document(
    events: Sequence[Dict[str, Any]],
    *,
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The full ``trace_event`` JSON object (array-of-events form + metadata)."""
    document: Dict[str, Any] = {
        "displayTimeUnit": "ms",
        "traceEvents": list(events),
    }
    if metadata:
        document["otherData"] = {key: metadata[key] for key in sorted(metadata)}
    return document


def write_chrome_trace(document: Dict[str, Any], path: str) -> None:
    """Write a trace document in canonical form (byte-stable artifacts)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document))


__all__ = [
    "SIM_TIME_SCALE_US",
    "WALL_TIME_SCALE_US",
    "chrome_trace_document",
    "runtime_span_events",
    "sim_trace_events",
    "write_chrome_trace",
]
