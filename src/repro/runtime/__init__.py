"""asyncio runtime: the DAG algorithm as a usable concurrency primitive.

The simulator measures the algorithm; this package *runs* it.  Each node is
the protocol kernel registered as a handler on a transport with per-sender
FIFO delivery (the paper's network assumptions) — in-memory within one event
loop, or length-prefixed JSON frames over unix/TCP sockets across processes —
and the public surface is a familiar lock API:

    async with cluster.lock(node_id):
        ...  # critical section

On top of the node runtime sits a networked, sharded lock service
(:mod:`repro.runtime.service`): one DAG token tree per lock key,
consistent-hashed across shard processes, driven by thousands of concurrent
client sessions and benchmarked by ``repro lockbench``
(:mod:`repro.runtime.lockbench`).

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
from repro.runtime.transport_socket import SocketTransport

__all__ = [
    "Envelope",
    "InMemoryTransport",
    "SocketTransport",
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
