"""Shared-memory parameter store of the real execution backend.

:class:`SharedDenseStorage` is a :class:`~repro.ps.storage.DenseStorage`
whose value matrix and residency mask live in
:mod:`multiprocessing.shared_memory` blocks.  The layout, the batch API, and
the check-then-apply error contract are inherited unchanged; only the backing
buffers differ, so every storage consumer (node state, policies, server
handlers) works on it as-is.  Worker and server processes are forked, inherit
the mapped blocks, and see each other's writes — this is the paper's
shared-memory local access (§3.3) realized with actual shared memory instead
of simulated access latencies.

It is the *only* state the processes of a node share.  Where a key lives
(``home_location``, location caches) and what is in flight (``relocating_in``,
outstanding operations) belong to the node's server process alone; a worker
learns that a key is local from the residency mask and asks its server about
everything else.

Synchronization model: one lock per node serializes the server's message
handling with the workers' shared-memory accesses on that node.  NumPy
reads/writes of a single row are not atomic, so *every* access to a shared
store during a run must hold the owning node's lock — the real backend's
client and server loop do.  (Between runs the servers are idle and the
parent may read and write values without it.)
"""

from __future__ import annotations

from multiprocessing.shared_memory import SharedMemory
from typing import Iterable, Optional

import numpy as np

from repro.ps.storage import DenseStorage


def _attach_array(shm: SharedMemory, shape, dtype) -> np.ndarray:
    """View a shared-memory block as an ndarray of the given shape/dtype."""
    return np.ndarray(shape, dtype=dtype, buffer=shm.buf)


class SharedDenseStorage(DenseStorage):
    """Dense parameter store backed by shared-memory blocks.

    Construction allocates the blocks and zeroes them (matching
    ``DenseStorage``'s initial state); forked children inherit the mappings.
    Call :meth:`detach` in the parent when the cluster shuts down — it copies
    the current contents into private arrays (so late readers keep working),
    releases the views, and closes/unlinks the blocks.  Child processes never
    detach; their mappings die with the process.
    """

    def __init__(
        self,
        num_keys: int,
        value_length: int,
        initial_keys: Optional[Iterable[int]] = None,
    ) -> None:
        # Validates arguments and computes the initial arrays; the transient
        # private arrays are copied into the shared blocks below.
        super().__init__(num_keys, value_length, initial_keys)
        self._values_shm: Optional[SharedMemory] = SharedMemory(
            create=True, size=max(1, num_keys * value_length * 8)
        )
        self._present_shm: Optional[SharedMemory] = SharedMemory(
            create=True, size=max(1, num_keys)
        )
        values = _attach_array(self._values_shm, (num_keys, value_length), np.float64)
        present = _attach_array(self._present_shm, (num_keys,), np.bool_)
        values[:] = self._values
        present[:] = self._present
        self._values = values
        self._present = present

    def detach(self) -> None:
        """Release and unlink the shared blocks (parent-side shutdown).

        Idempotent.  The store remains usable afterwards (reads/writes hit a
        private copy of the final state).
        """
        if self._values_shm is None:
            return
        self._values = self._values.copy()
        self._present = self._present.copy()
        for shm in (self._values_shm, self._present_shm):
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._values_shm = None
        self._present_shm = None
