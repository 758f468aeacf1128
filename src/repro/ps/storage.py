"""Local parameter store.

Each simulated node keeps the parameters it currently *owns* in one
:class:`DenseStorage`: a contiguous NumPy array indexed by key plus a
residency mask, so a node's resident set can change as Lapse relocates keys
(§3.7).  The store guarantees per-key atomic reads and cumulative writes.

Local accesses are synchronized by latches rather than a global lock (§3.3).
The simulation is cooperatively scheduled, so a latch never blocks:
:class:`LatchTable` only counts acquisitions, and each one costs
``CostModel.latch_acquire_time`` of simulated time.

Besides the single-key primitives, the store exposes a **batch API**
(``get_many`` / ``add_many`` / ``set_many`` / ``insert_many`` /
``remove_many`` / ``contains_many``) operating on whole key sequences at
once.  On success, batch operations produce exactly the state a sequence of
single-key ops in batch order would — duplicates in an ``add_many`` batch
accumulate, and errors name the first offending key — but run vectorized
with fancy indexing and ``np.add.at``.  On *error*, every batch mutator is
check-then-apply: an invalid batch raises before any key is touched, so the
parameter servers can probe a whole batch and fall back to a per-key split
without double-applying updates.  The parameter servers' hot data paths use
only the batch API.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import StorageError

#: Batches at or below this size take a pure-Python fast path: for a handful
#: of keys, NumPy's fixed per-call overhead (array coercion, ufunc dispatch,
#: reductions) exceeds the cost of a plain loop.  Vectorization pays off only
#: above this threshold.
SMALL_BATCH = 16


def gather_rows(
    per_key: Dict[int, np.ndarray], keys: Sequence[int], value_length: int
) -> np.ndarray:
    """Copy per-key rows into one (n, d) array in a single dict walk.

    Shared by the PS variants' flush/broadcast assembly, replacing per-key
    ``vstack`` gathers.
    """
    out = np.empty((len(keys), value_length), dtype=np.float64)
    for index, key in enumerate(keys):
        out[index] = per_key[key]
    return out


def _has_duplicate(keys: np.ndarray) -> bool:
    """Whether any key repeats in ``keys``: sorted neighbours compared, as
    ``np.unique`` would, but without its import of ``numpy.ma``."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


def _first_duplicate(keys: np.ndarray) -> int:
    """Return the first key that repeats in ``keys`` (error paths only)."""
    seen = set()
    for key in keys.tolist():
        if key in seen:
            return key
        seen.add(key)
    raise AssertionError("no duplicate in keys")  # pragma: no cover


class LatchTable:
    """Counter of latch acquisitions for local parameter access.

    Every local read or write of a key acquires that key's latch once.  The
    simulation is cooperatively scheduled, so a latch never blocks and only
    the number of acquisitions is kept.
    """

    __slots__ = ("acquisitions",)

    def __init__(self) -> None:
        self.acquisitions = 0

    def acquire(self, key: int) -> None:
        """Record an acquisition of the latch guarding ``key``."""
        self.acquisitions += 1

    def acquire_many(self, keys: Sequence[int]) -> None:
        """Record one latch acquisition per key of a batch."""
        self.acquisitions += len(keys)


class DenseStorage:
    """Array-backed store over a contiguous key range.

    Values are float64 vectors of a fixed per-store length.  A membership
    mask tracks which keys are currently resident, because a Lapse node's
    resident set changes.  ``get`` returns a copy (parameters are copied out
    of and back into the store, as the paper notes for PS architectures in
    §4.4); ``add`` applies a cumulative update in place.  The ``*_many``
    batch operations behave exactly like the corresponding single-key
    operation applied per key in batch order.
    """

    def __init__(
        self,
        num_keys: int,
        value_length: int,
        initial_keys: Optional[Iterable[int]] = None,
    ) -> None:
        if num_keys < 1:
            raise StorageError(f"num_keys must be >= 1, got {num_keys}")
        if value_length < 1:
            raise StorageError(f"value_length must be >= 1, got {value_length}")
        self.num_keys = num_keys
        self.value_length = value_length
        self._values = np.zeros((num_keys, value_length), dtype=np.float64)
        self._present = np.zeros(num_keys, dtype=bool)
        if initial_keys is not None:
            keys = self._check_key_range(list(initial_keys))
            self._present[keys] = True

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    def _check_value(self, key: int, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.value_length,):
            raise StorageError(
                f"value for key {key} has shape {value.shape}, "
                f"expected ({self.value_length},)"
            )
        return value

    def _check_batch_keys(self, keys: Sequence[int]) -> np.ndarray:
        """Coerce a key batch to an int64 array (no residency/range checks)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise StorageError(f"key batch must be one-dimensional, got shape {keys.shape}")
        return keys

    def _check_batch_values(self, num_keys: int, values: np.ndarray) -> np.ndarray:
        """Coerce a value batch to a float64 array of shape (num_keys, d)."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1 and num_keys == 1:
            values = values.reshape(1, -1)
        if values.shape != (num_keys, self.value_length):
            raise StorageError(
                f"value batch has shape {values.shape}, "
                f"expected ({num_keys}, {self.value_length})"
            )
        return values

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.num_keys:
            raise StorageError(f"key {key} out of range [0, {self.num_keys})")

    def _check_key_range(self, keys: Sequence[int]) -> np.ndarray:
        """Vectorized bounds check; raises on the first out-of-range key."""
        keys = self._check_batch_keys(keys)
        out_of_range = (keys < 0) | (keys >= self.num_keys)
        if out_of_range.any():
            bad = int(keys[int(np.argmax(out_of_range))])
            raise StorageError(f"key {bad} out of range [0, {self.num_keys})")
        return keys

    def _check_resident(self, keys: Sequence[int]) -> np.ndarray:
        keys = self._check_key_range(keys)
        resident = self._present[keys]
        if not resident.all():
            bad = int(keys[int(np.argmin(resident))])
            raise StorageError(f"key {bad} is not resident in this store")
        return keys

    def contains(self, key: int) -> bool:
        self._check_key(key)
        return bool(self._present[key])

    # The ``row_*`` primitives back the fused worker-step path: the caller has
    # already verified residency (``has_row``) and guarantees a float64 update
    # row of the store's value length, so all per-call validation is skipped.
    def has_row(self, key: int) -> bool:
        """Unchecked residency probe (``key`` must be in range)."""
        return self._present[key]

    def row_copy(self, key: int) -> np.ndarray:
        return self._values[key].copy()

    def row_add(self, key: int, update: np.ndarray) -> None:
        self._values[key] += update

    def get(self, key: int) -> np.ndarray:
        if not self.contains(key):
            raise StorageError(f"key {key} is not resident in this store")
        return self._values[key].copy()

    def set(self, key: int, value: np.ndarray) -> None:
        if not self.contains(key):
            raise StorageError(f"key {key} is not resident in this store")
        self._values[key] = self._check_value(key, value)

    def add(self, key: int, update: np.ndarray) -> None:
        if not self.contains(key):
            raise StorageError(f"key {key} is not resident in this store")
        self._values[key] += self._check_value(key, update)

    def insert(self, key: int, value: np.ndarray) -> None:
        self._check_key(key)
        if self._present[key]:
            raise StorageError(f"key {key} is already resident; cannot insert twice")
        value = self._check_value(key, value)
        self._present[key] = True
        self._values[key] = value

    def remove(self, key: int) -> np.ndarray:
        value = self.get(key)
        self._present[key] = False
        self._values[key] = 0.0
        return value

    def keys(self) -> Iterator[int]:
        return iter(np.flatnonzero(self._present).tolist())

    def __len__(self) -> int:
        return int(self._present.sum())

    def snapshot(self) -> "tuple[np.ndarray, np.ndarray]":
        """Copy the resident state out as ``(keys, values)`` arrays.

        Keys are sorted ascending (int64); values hold one float64 row per
        key.  The arrays are detached copies, so a snapshot can serve as a
        checkpoint payload.
        """
        keys = np.flatnonzero(self._present).astype(np.int64)
        # Fancy indexing copies, detaching the snapshot from the live store.
        return keys, self._values[keys]

    # ------------------------------------------------------------- batch API
    def _is_small(self, keys: Sequence[int]) -> bool:
        return type(keys) is not np.ndarray and len(keys) <= SMALL_BATCH

    def _check_resident_scalar(self, key: int) -> None:
        if not 0 <= key < self.num_keys:
            raise StorageError(f"key {key} out of range [0, {self.num_keys})")
        if not self._present[key]:
            raise StorageError(f"key {key} is not resident in this store")

    def contains_many(self, keys: Sequence[int]) -> np.ndarray:
        if self._is_small(keys):
            num_keys = self.num_keys
            present = self._present
            out = np.empty(len(keys), dtype=bool)
            for index, key in enumerate(keys):
                if not 0 <= key < num_keys:
                    raise StorageError(f"key {key} out of range [0, {num_keys})")
                out[index] = present[key]
            return out
        keys = self._check_key_range(keys)
        return self._present[keys]

    def contains_flags(self, keys: Sequence[int]) -> list:
        if self._is_small(keys):
            num_keys = self.num_keys
            present = self._present
            flags = []
            for key in keys:
                if not 0 <= key < num_keys:
                    raise StorageError(f"key {key} out of range [0, {num_keys})")
                flags.append(bool(present[key]))
            return flags
        return self.contains_many(keys).tolist()

    def get_many(self, keys: Sequence[int]) -> np.ndarray:
        if self._is_small(keys):
            values = self._values
            out = np.empty((len(keys), self.value_length), dtype=np.float64)
            for index, key in enumerate(keys):
                self._check_resident_scalar(key)
                out[index] = values[key]
            return out
        keys = self._check_resident(keys)
        # Fancy indexing copies, preserving the copy-out contract of ``get``.
        return self._values[keys]

    def add_many(self, keys: Sequence[int], updates: np.ndarray) -> None:
        if self._is_small(keys):
            updates = self._check_batch_values(len(keys), updates)
            values = self._values
            # Validate before mutating so a failed batch leaves no partial
            # update behind (callers rely on add_many being check-then-apply).
            for key in keys:
                self._check_resident_scalar(key)
            for index, key in enumerate(keys):
                values[key] += updates[index]
            return
        keys = self._check_resident(keys)
        updates = self._check_batch_values(keys.size, updates)
        if not _has_duplicate(keys):
            # Duplicate-free batch: fancy += is several times faster than the
            # unbuffered np.add.at and numerically identical here.
            self._values[keys] += updates
        else:
            # Unbuffered accumulation: duplicate keys in one batch add up
            # exactly as a sequence of single-key ``add`` calls would.
            np.add.at(self._values, keys, updates)

    def set_many(self, keys: Sequence[int], values: np.ndarray) -> None:
        if self._is_small(keys):
            values = self._check_batch_values(len(keys), values)
            store = self._values
            for key in keys:
                self._check_resident_scalar(key)
            for index, key in enumerate(keys):
                store[key] = values[index]
            return
        keys = self._check_resident(keys)
        values = self._check_batch_values(keys.size, values)
        self._values[keys] = values

    def insert_many(self, keys: Sequence[int], values: np.ndarray) -> None:
        if self._is_small(keys):
            values = self._check_batch_values(len(keys), values)
            seen = set()
            for key in keys:
                self._check_key(key)
                if self._present[key] or key in seen:
                    raise StorageError(
                        f"key {key} is already resident; cannot insert twice"
                    )
                seen.add(key)
            for index, key in enumerate(keys):
                self._present[key] = True
                self._values[key] = values[index]
            return
        keys = self._check_key_range(keys)
        values = self._check_batch_values(keys.size, values)
        if _has_duplicate(keys):
            bad = _first_duplicate(keys)
            raise StorageError(f"key {bad} is already resident; cannot insert twice")
        resident = self._present[keys]
        if resident.any():
            bad = int(keys[int(np.argmax(resident))])
            raise StorageError(f"key {bad} is already resident; cannot insert twice")
        self._present[keys] = True
        self._values[keys] = values

    def remove_many(self, keys: Sequence[int]) -> np.ndarray:
        if self._is_small(keys):
            values = self._values
            seen = set()
            for key in keys:
                self._check_resident_scalar(key)
                if key in seen:
                    raise StorageError(f"key {key} is not resident in this store")
                seen.add(key)
            out = np.empty((len(keys), self.value_length), dtype=np.float64)
            for index, key in enumerate(keys):
                out[index] = values[key]
                self._present[key] = False
                values[key] = 0.0
            return out
        keys = self._check_resident(keys)
        if _has_duplicate(keys):
            # A duplicate would be removed twice; per-key semantics make the
            # second removal fail because the key is no longer resident.
            bad = _first_duplicate(keys)
            raise StorageError(f"key {bad} is not resident in this store")
        values = self._values[keys]
        self._present[keys] = False
        self._values[keys] = 0.0
        return values
