"""asyncio runtime: the DAG algorithm as a usable concurrency primitive.

The simulator measures the algorithm; this package *runs* it.  Each node is
the protocol kernel registered as a handler on an in-memory transport with
per-sender FIFO delivery (the paper's network assumptions) within one event
loop, and the public surface is a familiar lock API:

    async with cluster.lock(node_id):
        ...  # critical section

On top of the node runtime sits a networked, sharded lock service
(:mod:`repro.runtime.service`).  Each lock key gets one DAG token tree, run
in-process by the shard that owns the key; keys are consistent-hashed across
shard processes.  Clients reach shards through length-prefixed frames over
unix or TCP sockets (:mod:`repro.runtime.transport_socket`).  ``repro
lockbench`` (:mod:`repro.runtime.lockbench`) drives thousands of concurrent
client sessions against it.

See ``examples/distributed_counter.py`` and
``examples/lock_service_quickstart.py`` for complete programs.
"""

import repro

#: Each public name -> the module that defines it.
_EXPORTS = {
    "Envelope": "repro.runtime.transport",
    "InMemoryTransport": "repro.runtime.transport",
    "AsyncDagNode": "repro.runtime.node_runtime",
    "LocalCluster": "repro.runtime.cluster",
    "DistributedLock": "repro.runtime.lock",
    "LockClient": "repro.runtime.service",
    "LockServiceCluster": "repro.runtime.service",
    "LockServiceShard": "repro.runtime.service",
    "LockSession": "repro.runtime.service",
    "owner_for_key": "repro.runtime.failover",
    "ClusterSupervisor": "repro.runtime.failover",
    "ClusterView": "repro.runtime.failover",
    "FailoverEvent": "repro.runtime.failover",
    "LockBenchCell": "repro.runtime.lockbench",
    "LockProbe": "repro.runtime.lockbench",
    "lockbench_cell": "repro.runtime.lockbench",
    "lockbench_matrix": "repro.runtime.lockbench",
    "run_lockbench": "repro.runtime.lockbench",
    "run_lockbench_scenario": "repro.runtime.lockbench",
}

__all__ = list(_EXPORTS)
__getattr__ = repro._resolver(globals(), _EXPORTS)
