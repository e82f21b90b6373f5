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

from repro.runtime.cluster import LocalCluster
from repro.runtime.failover import (
    ClusterSupervisor,
    ClusterView,
    FailoverEvent,
    owner_for_key,
)
from repro.runtime.lock import DistributedLock
from repro.runtime.lockbench import (
    LockBenchCell,
    LockProbe,
    lockbench_cell,
    lockbench_matrix,
    run_lockbench,
    run_lockbench_scenario,
)
from repro.runtime.node_runtime import AsyncDagNode
from repro.runtime.service import (
    LockClient,
    LockServiceCluster,
    LockServiceShard,
    LockSession,
)
from repro.runtime.transport import Envelope, InMemoryTransport

__all__ = [
    "Envelope",
    "InMemoryTransport",
    "AsyncDagNode",
    "LocalCluster",
    "DistributedLock",
    "LockClient",
    "LockServiceCluster",
    "LockServiceShard",
    "LockSession",
    "owner_for_key",
    "ClusterSupervisor",
    "ClusterView",
    "FailoverEvent",
    "LockBenchCell",
    "LockProbe",
    "lockbench_cell",
    "lockbench_matrix",
    "run_lockbench",
    "run_lockbench_scenario",
]
