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

import repro

#: Each public name -> the module that defines it.
_EXPORTS = {
    "DEFAULT_LATENCY_BUCKETS_MS": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "NULL_REGISTRY": "repro.obs.registry",
    "OBS_SNAPSHOT_SCHEMA": "repro.obs.snapshot",
    "chrome_trace_document": "repro.obs.chrome_trace",
    "fairness_summary": "repro.obs.snapshot",
    "merge_registry_snapshots": "repro.obs.snapshot",
    "quantile": "repro.obs.snapshot",
    "runtime_span_events": "repro.obs.chrome_trace",
    "sim_trace_events": "repro.obs.chrome_trace",
    "snapshot_document": "repro.obs.snapshot",
    "write_chrome_trace": "repro.obs.chrome_trace",
    "write_snapshot": "repro.obs.snapshot",
}

__all__ = list(_EXPORTS)
__getattr__ = repro._resolver(globals(), _EXPORTS)
