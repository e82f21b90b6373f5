"""Unified observability: metrics registry, snapshots, Chrome-trace export.

The simulator's evaluation layer (``sim/metrics.py``, ``sim/trace.py``)
measures the protocol in virtual time; the networked runtime needs the same
visibility in wall time.  This package is the shared instrumentation layer:

* :mod:`repro.obs.registry` — gauges and fixed-bucket histograms
  behind a :class:`MetricsRegistry` that costs (nearly) nothing while
  disabled: a disabled registry hands out shared null instruments whose
  operations are single attribute-free no-ops, so hot paths can keep their
  instrument references unconditionally.
* :mod:`repro.obs.snapshot` — point-in-time metric documents plus the
  fairness summaries (per-session latency spread, queue depth) the ROADMAP
  lists as the runtime's missing client-visible metrics.  Documents are
  serialized through the sweep harness's ``canonical_json`` so merged or
  compared artifacts are byte-stable.
* :mod:`repro.obs.chrome_trace` — renders simulator
  :class:`~repro.sim.trace.TraceEvent` streams and runtime op lifecycles
  (request→grant→release, failover windows, fenced/retried ops) to Chrome
  ``trace_event`` JSON viewable in ``chrome://tracing`` / Perfetto.
"""

from repro.obs.chrome_trace import (
    chrome_trace_document,
    runtime_span_events,
    sim_trace_events,
    write_chrome_trace,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.snapshot import (
    OBS_SNAPSHOT_SCHEMA,
    fairness_summary,
    merge_registry_snapshots,
    quantile,
    snapshot_document,
    write_snapshot,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "OBS_SNAPSHOT_SCHEMA",
    "chrome_trace_document",
    "fairness_summary",
    "merge_registry_snapshots",
    "quantile",
    "runtime_span_events",
    "sim_trace_events",
    "snapshot_document",
    "write_chrome_trace",
    "write_snapshot",
]
