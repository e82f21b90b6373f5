"""Discrete-event simulation substrate.

The paper evaluates its algorithm on an abstract message-passing system with a
reliable, fully connected network and per-sender FIFO delivery.  This package
provides that substrate:

* :class:`~repro.sim.engine.SimulationEngine` — a deterministic discrete-event
  scheduler with a virtual clock.
* :class:`~repro.sim.network.Network` — reliable FIFO channels between every
  pair of nodes, with pluggable latency models.
* :class:`~repro.sim.process.SimProcess` — base class for node processes that
  send and receive messages.
* :class:`~repro.sim.metrics.MetricsCollector` — per-critical-section-entry
  message counts, synchronization delays, and waiting times.
* :class:`~repro.sim.trace.TraceRecorder` — full event traces used to replay
  the paper's worked examples.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.metrics import CriticalSectionRecord, MetricsCollector
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.rng import SeededRNG
from repro.sim.schedulers import SCHEDULER_MODES, HeapScheduler, make_scheduler
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "SimulationEngine",
    "HeapScheduler",
    "SCHEDULER_MODES",
    "make_scheduler",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "Network",
    "SimProcess",
    "MetricsCollector",
    "CriticalSectionRecord",
    "TraceRecorder",
    "TraceEvent",
    "SeededRNG",
]
