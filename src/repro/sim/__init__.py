"""Discrete-event simulation substrate.

The paper evaluates its algorithm on an abstract message-passing system with a
reliable, fully connected network and per-sender FIFO delivery.  This package
provides that substrate:

* :class:`~repro.sim.engine.SimulationEngine` — a deterministic discrete-event
  scheduler with a virtual clock; it keeps its event queue (a heap, a bulk
  load of arrivals and a FIFO lane of constant-latency deliveries) itself.
* :class:`~repro.sim.network.Network` — reliable FIFO channels between every
  pair of nodes, with pluggable latency models.
* :class:`~repro.sim.process.SimProcess` — base class for node processes that
  send and receive messages.
* :class:`~repro.sim.metrics.MetricsCollector` — per-critical-section-entry
  message counts, synchronization delays, and waiting times.
* :class:`~repro.sim.trace.TraceRecorder` — full event traces used to replay
  the paper's worked examples.
"""

import repro

#: Each public name -> the module that defines it.
_EXPORTS = {
    "SimulationEngine": "repro.sim.engine",
    "SCHEDULER_MODES": "repro.sim.schedulers",
    "make_scheduler": "repro.sim.schedulers",
    "LatencyModel": "repro.sim.latency",
    "ConstantLatency": "repro.sim.latency",
    "UniformLatency": "repro.sim.latency",
    "ExponentialLatency": "repro.sim.latency",
    "Network": "repro.sim.network",
    "SimProcess": "repro.sim.process",
    "MetricsCollector": "repro.sim.metrics",
    "CriticalSectionRecord": "repro.sim.metrics",
    "TraceRecorder": "repro.sim.trace",
    "TraceEvent": "repro.sim.trace",
    "SeededRNG": "repro.sim.rng",
}

__all__ = list(_EXPORTS)
__getattr__ = repro._resolver(globals(), _EXPORTS)
