"""repro — a reproduction of Neilsen's DAG-based distributed mutual exclusion.

The packages form layers, lowest first; a module imports only from its own
layer or below, which ``tests/test_layers.py`` checks for every import
statement in the package:

1. :mod:`repro.exceptions` and :mod:`repro.benchdoc` — the error hierarchy
   and the benchmark-document format;
2. :mod:`repro.core` — the paper's DAG algorithm: the protocol kernel, its
   messages, and the invariant checker;
3. :mod:`repro.sim` — discrete-event simulation substrate (engine, FIFO
   network, metrics, tracing, fault injection);
4. :mod:`repro.topology` — logical tree topologies and their metrics;
5. :mod:`repro.baselines` — the algorithms of Chapter 2 plus a centralized
   coordinator, and the DAG kernel bound to the simulator, all on the same
   substrate;
6. :mod:`repro.workload` — request workload generation and the experiment
   driver;
7. :mod:`repro.spec` — declarative, JSON-round-trippable experiment
   specifications (:class:`~repro.spec.ExperimentSpec`), the canonical way to
   describe and ship a run;
8. :mod:`repro.cells`, :mod:`repro.analysis` (closed-form bounds from
   Chapter 6 and measured-vs-theory comparison) and :mod:`repro.obs`
   (observability documents);
9. :mod:`repro.bench`, :mod:`repro.sweep`, :mod:`repro.viz` (ASCII rendering
   of topologies and state tables) and :mod:`repro.runtime` (an asyncio
   runtime and the ``DistributedLock`` API);
10. :mod:`repro.cli`.

The names in ``__all__`` are imported on first use (a PEP 562 module
``__getattr__``), so importing a submodule loads no other layer.

Quickstart::

    from repro import DagMutexProtocol, star

    protocol = DagMutexProtocol(star(5))
    protocol.request(3)
    protocol.run_until_quiescent()
    assert protocol.node(3).in_critical_section
    protocol.release(3)
"""

import importlib

__version__ = "1.0.0"

#: Each public name -> the module that defines it.
_EXPORTS = {
    "DagMutexNode": "repro.baselines.dag_adapter",
    "DagMutexProtocol": "repro.baselines.dag_adapter",
    "Request": "repro.core.messages",
    "Privilege": "repro.core.messages",
    "InvariantChecker": "repro.core.invariants",
    "ExperimentSpec": "repro.spec",
    "TopologySpec": "repro.spec",
    "WorkloadSpec": "repro.spec",
    "LatencySpec": "repro.spec",
    "ObsSpec": "repro.spec",
    "Topology": "repro.topology.base",
    "line": "repro.topology.builders",
    "star": "repro.topology.builders",
    "radiating_star": "repro.topology.builders",
    "balanced_tree": "repro.topology.builders",
    "random_tree": "repro.topology.builders",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    """Import a public name's module the first time the name is used."""
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
