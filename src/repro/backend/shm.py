"""Shared-memory building blocks of the real execution backend.

Two pieces of cross-process state back the real (multiprocessing) backend:

* :class:`SharedDenseStorage` — a :class:`~repro.ps.storage.DenseStorage`
  whose value matrix and residency mask live in
  :mod:`multiprocessing.shared_memory` blocks.  The layout, the batch API,
  and the check-then-apply error contract are inherited unchanged; only the
  backing buffers differ, so every storage consumer (node state, policies,
  durability-free server handlers) works on it as-is.  Worker and server
  processes are forked, inherit the mapped blocks, and see each other's
  writes — this is the paper's shared-memory local access (§3.3) realized
  with actual shared memory instead of simulated access latencies.
* :class:`SharedDirectory` — the location directory: one ``int64`` owner id
  per key in a shared block, guarded by a cross-process lock.  It plays the
  role of the per-home-node ``home_location`` tables of the simulator's
  :class:`~repro.ps.lapse.RelocationPolicy`: the home node of a key reads
  and updates the key's entry, every other node goes through the home node.
  :class:`DirectoryHomeView` adapts the array to the ``home_location``
  mapping interface the policy expects, so the policy runs unchanged.

Synchronization model: one lock per node shard serializes server-side
mutations with worker-side shared-memory access on that node; the directory
has its own lock.  NumPy reads/writes of a single row are not atomic, so
*every* access to a shared store must hold the owning node's lock — the
real backend's client and server loops do.
"""

from __future__ import annotations

from multiprocessing.shared_memory import SharedMemory
from typing import Iterable, Optional, Sequence

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


class SharedDirectory:
    """Cross-process key-location directory: ``owners[key] -> node id``.

    The directory is the authoritative "where does this key live" record of
    the real backend.  It starts at the static partition and is updated by
    the *new owner's* server when a relocation transfer is installed, under
    :attr:`lock` — so a reader either sees the old owner (whose
    ``last_transfer`` record forwards to the new one) or the new owner (where
    the key is already resident), never a window with no route to the key.
    """

    def __init__(self, num_keys: int, initial_owners: Sequence[int], lock) -> None:
        self.num_keys = num_keys
        self.lock = lock
        self._shm: Optional[SharedMemory] = SharedMemory(
            create=True, size=max(1, num_keys * 8)
        )
        self.owners = _attach_array(self._shm, (num_keys,), np.int64)
        self.owners[:] = np.asarray(initial_owners, dtype=np.int64)

    def owner_of(self, key: int) -> int:
        """Current owner of ``key`` (callers that need a stable read hold lock)."""
        return int(self.owners[key])

    def owners_of(self, keys: Sequence[int]) -> np.ndarray:
        """Current owners of a key batch as an int64 array."""
        return self.owners[np.asarray(keys, dtype=np.int64)].copy()

    def set_owners(self, keys: Sequence[int], node: int) -> None:
        """Record ``node`` as the owner of ``keys`` (callers hold :attr:`lock`)."""
        self.owners[np.asarray(keys, dtype=np.int64)] = node

    def snapshot(self) -> np.ndarray:
        """Owner of every key as a private copy (quiescent-state readers)."""
        return self.owners.copy()

    def detach(self) -> None:
        """Release and unlink the shared block (parent-side shutdown)."""
        if self._shm is None:
            return
        self.owners = self.owners.copy()
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None


class DirectoryHomeView:
    """Adapt the shared directory to the ``home_location`` mapping interface.

    :class:`~repro.ps.lapse.RelocationPolicy` consults
    ``state.home_location[key]`` for keys homed at ``state``'s node.  On the
    real backend that table *is* the shared directory; this view restricts
    reads to the node's home keys (mirroring the simulator's invariant that a
    node's table only holds entries for its own home keys).
    """

    __slots__ = ("_directory", "_partitioner", "_node_id")

    def __init__(self, directory: SharedDirectory, partitioner, node_id: int) -> None:
        self._directory = directory
        self._partitioner = partitioner
        self._node_id = node_id

    def __getitem__(self, key: int) -> int:
        if self._partitioner.node_of(key) != self._node_id:
            raise KeyError(key)
        return self._directory.owner_of(key)

    def __contains__(self, key: int) -> bool:
        return self._partitioner.node_of(key) == self._node_id
