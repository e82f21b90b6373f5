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
5. :mod:`repro.spec_base` — the spec codec, and the specs the live service
   reads (:class:`~repro.spec_base.RuntimeSpec` and those it holds);
6. :mod:`repro.baselines` — the algorithms of Chapter 2 plus a centralized
   coordinator, and the DAG kernel bound to the simulator, all on the same
   substrate;
7. :mod:`repro.workload` — request workload generation and the experiment
   driver;
8. :mod:`repro.spec` — declarative, JSON-round-trippable experiment
   specifications (:class:`~repro.spec.ExperimentSpec`), the canonical way to
   describe and ship a run;
9. :mod:`repro.cells`, :mod:`repro.analysis` (closed-form bounds from
   Chapter 6 and measured-vs-theory comparison) and :mod:`repro.obs`
   (observability documents);
10. :mod:`repro.bench`, :mod:`repro.sweep`, :mod:`repro.viz` (ASCII rendering
    of topologies and state tables) and :mod:`repro.runtime` (an asyncio
    runtime and the ``DistributedLock`` API);
11. :mod:`repro.cli`.

The names in ``__all__``, and those of :mod:`repro.sim`, :mod:`repro.obs` and
:mod:`repro.runtime`, are imported on first use (a PEP 562 ``__getattr__``),
so importing a submodule loads only what it imports itself.

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
    "TopologySpec": "repro.spec_base",
    "WorkloadSpec": "repro.spec",
    "LatencySpec": "repro.spec",
    "ObsSpec": "repro.spec_base",
    "Topology": "repro.topology.base",
    "line": "repro.topology.builders",
    "star": "repro.topology.builders",
    "radiating_star": "repro.topology.builders",
    "balanced_tree": "repro.topology.builders",
    "random_tree": "repro.topology.builders",
}

__all__ = ["__version__", *_EXPORTS]


def _resolver(namespace, exports):
    """The PEP 562 ``__getattr__`` of every package ``__init__`` with public
    names: the first use of a name imports its module (``exports[name]``) and
    keeps the value in ``namespace``, the package's globals."""

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _resolver(globals(), _EXPORTS)
