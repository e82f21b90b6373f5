"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the public calls
into each layer (stage clocks inside the program are a later issue).  Each
span carries a name, start, end, the span that caused it and the workload id;
they stay in memory until the run ends and are then written as Chrome
``trace_event`` JSON through :mod:`repro.obs.chrome_trace`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs.chrome_trace import (
    chrome_trace_document,
    runtime_span_events,
    write_chrome_trace,
)


def maybe_span(recorder: "Optional[SpanRecorder]", name: str):
    """``recorder.span(name)``, or nothing to enter on an untraced run."""
    return recorder.span(name) if recorder is not None else nullcontext()


class SpanRecorder:
    """Nested spans of one workload run (synchronous call sites only).

    Parentage follows the ``with`` nesting, so the recorder must not be
    entered from concurrent asyncio tasks; per-op client spans come from
    ``LockClient(trace=[...])`` and are attached with :meth:`adopt`.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "args": args,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def adopt(self, spans: Sequence[Dict[str, Any]], *, parent: Dict[str, Any]) -> None:
        """Attach externally recorded spans (absolute ``perf_counter`` times)."""
        parent_index = self.spans.index(parent)
        for span in spans:
            self.spans.append(
                {
                    "name": span["name"],
                    "start": span["start"],
                    "end": span["end"],
                    "parent": parent_index,
                    "workload": self.workload,
                    "tid": span.get("tid", 0),
                    "args": span.get("args", {}),
                    "adopted": True,
                }
            )

    def seconds(self, name: str) -> float:
        """Total duration of every finished span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part its child spans cover.

        Adopted per-op spans overlap each other (concurrent sessions), so
        they are not subtracted from their parent.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and not span.get("adopted"):
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.get("adopted"):
                continue
            own = span["end"] - span["start"] - child_time[index]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: str, *, metadata: Optional[Dict[str, Any]] = None) -> None:
        """Write every span as one Chrome trace document.

        Layer spans render as process 0; adopted per-op spans as process 1
        with one thread per session, like the lockbench exporter.
        """
        origin = self._origin
        events: List[Dict[str, Any]] = []
        for adopted in (False, True):
            events.extend(
                runtime_span_events(
                    [
                        {
                            "name": span["name"],
                            "cat": "op" if adopted else "layer",
                            "start": span["start"] - origin,
                            "end": span["end"] - origin,
                            "tid": span.get("tid", 0),
                            "args": {
                                **span["args"],
                                "workload": span["workload"],
                                "parent": self.spans[span["parent"]]["name"]
                                if span["parent"] is not None
                                else "",
                            },
                        }
                        for span in self.spans
                        if bool(span.get("adopted")) is adopted
                    ],
                    pid=int(adopted),
                )
            )
        write_chrome_trace(chrome_trace_document(events, metadata=metadata), path)
