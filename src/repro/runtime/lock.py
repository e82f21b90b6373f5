"""The public lock API over the asyncio runtime."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import LockError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.runtime.node_runtime import AsyncDagNode


class DistributedLock:
    """An async context manager acquiring the cluster-wide critical section.

    Each instance is bound to one node: acquiring the lock makes *that node*
    request and enter its critical section, so concurrent acquisitions from
    different nodes are serialised by the DAG protocol rather than by a local
    mutex.

    Example::

        lock = cluster.lock(3)
        async with lock:
            ...  # no other node is in its critical section right now
    """

    def __init__(self, node: "AsyncDagNode") -> None:
        self._node = node
        self._held = False

    @property
    def node_id(self) -> int:
        """The node this lock handle acts on behalf of."""
        return self._node.node_id

    @property
    def held(self) -> bool:
        """Whether this handle currently holds the critical section."""
        return self._held

    async def acquire(self) -> None:
        """Acquire the critical section.

        To bound the wait, wrap the call in :func:`asyncio.wait_for`.  A
        cancelled acquire leaves its request queued (a REQUEST cannot be
        recalled) and the grant it earns hands the token straight on, so
        nobody behind it starves; until that grant has passed the node still
        counts as requesting and another acquire on it is refused, after it
        this handle acquires as usual.

        Raises:
            LockError: if this handle already holds the lock.
        """
        if self._held:
            raise LockError(f"lock on node {self.node_id} is already held")
        await self._node.acquire()
        self._held = True

    async def release(self) -> None:
        """Release the critical section.

        Raises:
            LockError: if the lock is not currently held by this handle.
        """
        if not self._held:
            raise LockError(f"lock on node {self.node_id} is not held")
        await self._node.release()
        self._held = False

    async def __aenter__(self) -> "DistributedLock":
        await self.acquire()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.release()
