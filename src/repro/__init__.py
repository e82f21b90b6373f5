"""repro — a reproduction of Neilsen's DAG-based distributed mutual exclusion.

The package is organised as:

* :mod:`repro.sim` — discrete-event simulation substrate (engine, FIFO
  network, metrics, tracing);
* :mod:`repro.topology` — logical tree topologies and their metrics;
* :mod:`repro.core` — the paper's DAG-based algorithm;
* :mod:`repro.baselines` — the algorithms of Chapter 2 plus a centralized
  coordinator, all on the same substrate;
* :mod:`repro.workload` — request workload generation and the experiment
  driver;
* :mod:`repro.spec` — declarative, JSON-round-trippable experiment
  specifications (:class:`~repro.spec.ExperimentSpec`), the canonical way to
  describe and ship a run;
* :mod:`repro.analysis` — closed-form bounds from Chapter 6 and
  measured-vs-theory comparison;
* :mod:`repro.runtime` — an asyncio runtime and the ``DistributedLock`` API;
* :mod:`repro.viz` — ASCII rendering of topologies and state tables.

Quickstart::

    from repro import DagMutexProtocol, star

    protocol = DagMutexProtocol(star(5))
    protocol.request(3)
    protocol.run_until_quiescent()
    assert protocol.node(3).in_critical_section
    protocol.release(3)
"""

from repro.core.invariants import InvariantChecker
from repro.core.messages import Privilege, Request
from repro.core.node import DagMutexNode
from repro.core.protocol import DagMutexProtocol
from repro.spec import (
    ExperimentSpec,
    LatencySpec,
    ObsSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.topology.base import Topology
from repro.topology.builders import (
    balanced_tree,
    line,
    radiating_star,
    random_tree,
    star,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DagMutexNode",
    "DagMutexProtocol",
    "Request",
    "Privilege",
    "InvariantChecker",
    "ExperimentSpec",
    "TopologySpec",
    "WorkloadSpec",
    "LatencySpec",
    "ObsSpec",
    "Topology",
    "line",
    "star",
    "radiating_star",
    "balanced_tree",
    "random_tree",
]
