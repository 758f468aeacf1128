"""Per-node write-ahead log of parameter deltas.

The paper's relocation-only systems keep every parameter in exactly one
node's RAM, so a crash loses state.  Because PS updates are *additive* (SGD
pushes are `+=` of float64 rows), the mutation history of a store can be
captured as an LSN-prefixed stream of ``(key, delta)`` batches and replayed
idempotently onto any checkpoint whose covered LSN is a prefix of the
stream: ``checkpoint(lsn) + replay(wal[lsn:])`` reconverges bit-identically
to the uninterrupted store, for any crash point at or after the checkpoint.

Three pieces live here:

* :class:`DurabilityConfig` — the opt-in switch.  When no config is passed
  to the parameter server, **nothing** in this module is imported on the hot
  path and the stores stay plain :class:`~repro.ps.storage.DenseStorage`;
  durability off is structurally zero-overhead.
* :class:`DeltaWAL` — one append-only record list per node.  All node WALs
  share one :class:`LSNClock`, so LSNs form a cluster-wide total order and a
  record written by node A can be ordered against node B's checkpoint (this
  is what lets crash recovery find the value of a key whose ownership was in
  flight between two nodes at crash time).
* :class:`LoggedStorage` — a transparent proxy wrapped around a node's
  parameter store.  Every mutator delegates to the inner store first (so a
  failed check-then-apply batch raises *before* anything is logged) and then
  appends one WAL record.  Wrapping the store — rather than instrumenting
  individual PS call sites — catches every mutation path with one hook:
  worker writes (`write_local_many`/`row_add`), server write handlers,
  relocation transfers (insert/remove), and replica installs.

Record kinds: ``delta`` (cumulative `+=`), ``insert``, ``set``, and
``remove``.  ``remove`` records carry the *removed values*: when a
relocation transfer is lost with a crashing destination node, the old
owner's ``remove`` record is the only durable copy of the key, and recovery
restores from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DurabilityError

#: WAL record kinds.
WAL_DELTA = "delta"
WAL_INSERT = "insert"
WAL_SET = "set"
WAL_REMOVE = "remove"

WAL_KINDS = (WAL_DELTA, WAL_INSERT, WAL_SET, WAL_REMOVE)

#: Simulated serialized size of a WAL record header (LSN, kind, key count).
RECORD_HEADER_BYTES = 16
#: Simulated serialized size of one key and of one float64 value element.
KEY_BYTES = 8
VALUE_BYTES = 8


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration of the durability subsystem.

    Attributes:
        enabled: Master switch.  A disabled config behaves exactly like
            passing no config at all: the parameter server installs no
            manager and the stores stay unwrapped.
        checkpoint_interval: Simulated seconds between per-node checkpoints.
            Checkpoints are taken lazily — on the first WAL append at or
            after the due time — so enabling durability schedules no kernel
            events and cannot perturb simulated timings.  ``0`` disables
            periodic checkpoints (explicit ``checkpoint_node``/
            ``checkpoint_all`` calls still work).
        truncate_on_checkpoint: Drop WAL records covered by a new checkpoint.
            Off by default: retained ``remove`` records are what recovery
            uses for keys whose relocation transfer was in flight at crash
            time, so truncation trades that coverage for memory.
    """

    enabled: bool = True
    checkpoint_interval: float = 0.05
    truncate_on_checkpoint: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 0:
            raise DurabilityError(
                f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}"
            )


class LSNClock:
    """Monotonic log-sequence-number source shared by all node WALs."""

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = 0

    def next(self) -> int:
        """Return the next LSN (first LSN handed out is 1)."""
        self._last += 1
        return self._last

    def take(self, count: int) -> range:
        """Hand out ``count`` consecutive LSNs at once, as ``count`` calls of
        :meth:`next` would."""
        first = self._last + 1
        self._last += count
        return range(first, self._last + 1)

    @property
    def last(self) -> int:
        """The most recently handed-out LSN (0 before any append)."""
        return self._last


@dataclass
class WALRecord:
    """One logged mutation batch: ``kind`` applied to ``keys``/``values``.

    ``values`` holds one float64 row per key (the delta for ``delta``
    records, the stored value for ``insert``/``set``, the *removed* value
    for ``remove``).
    """

    __slots__ = ("lsn", "kind", "keys", "values")

    lsn: int
    kind: str
    keys: Tuple[int, ...]
    values: np.ndarray

    @property
    def nbytes(self) -> int:
        """Simulated serialized size of this record."""
        return (
            RECORD_HEADER_BYTES
            + KEY_BYTES * len(self.keys)
            + VALUE_BYTES * int(self.values.size)
        )


class DeltaWAL:
    """Append-only WAL of one node's parameter-store mutations.

    Records are kept in memory (the simulation does not model disk I/O —
    appends are durable the instant they return, which is the strongest
    possible write-ahead discipline and the baseline the fault-injection
    tests measure against).  ``after_append`` is an optional callback fired
    after every append; the durability manager uses it to trigger lazy
    simulated-time checkpoints without scheduling kernel events.
    """

    __slots__ = (
        "node",
        "clock",
        "metrics",
        "records",
        "after_append",
        "_last_lsn",
    )

    def __init__(self, node: int = 0, clock: Optional[LSNClock] = None, metrics=None):
        self.node = node
        self.clock = clock if clock is not None else LSNClock()
        self.metrics = metrics
        self.records: List[WALRecord] = []
        self.after_append: Optional[Callable[[], None]] = None
        self._last_lsn = 0

    @property
    def last_lsn(self) -> int:
        """LSN of the last record this WAL appended (survives truncation)."""
        return self._last_lsn

    def append(self, kind: str, keys: Sequence[int], values: np.ndarray) -> WALRecord:
        """Append one record and return it.

        ``values`` must already be a detached float64 array of shape
        ``(len(keys), d)`` — :class:`LoggedStorage` copies before logging so
        records never alias caller buffers.
        """
        if kind not in WAL_KINDS:
            raise DurabilityError(f"unknown WAL record kind {kind!r}")
        record = WALRecord(
            lsn=self.clock.next(), kind=kind, keys=tuple(keys), values=values
        )
        self.records.append(record)
        self._last_lsn = record.lsn
        if self.metrics is not None:
            self.metrics.wal_appends += 1
            self.metrics.wal_bytes += record.nbytes
        if self.after_append is not None:
            self.after_append()
        return record

    def append_deltas(self, keys: Sequence[int], rows: np.ndarray) -> None:
        """Append one single-row ``delta`` record per key, in order.

        The records, LSNs, ``wal_appends`` and ``wal_bytes`` are those of
        ``len(keys)`` :meth:`append` calls; the clock,
        the metrics and ``after_append`` are updated once.  ``rows`` holds one
        detached ``(1, d)`` float64 block per key.  The caller guarantees that
        no checkpoint could fire between the records (a fused block visit
        appends only while its node's next checkpoint is not yet due), so one
        ``after_append`` at the end sees what the last of the calls would.
        """
        count = len(keys)
        if not count:
            return
        lsns = self.clock.take(count)
        self.records.extend(
            WALRecord(lsn, WAL_DELTA, (key,), row) for lsn, key, row in zip(lsns, keys, rows)
        )
        self._last_lsn = lsns[-1]
        if self.metrics is not None:
            self.metrics.wal_appends += count
            self.metrics.wal_bytes += count * (
                RECORD_HEADER_BYTES + KEY_BYTES + VALUE_BYTES * int(rows[0].size)
            )
        if self.after_append is not None:
            self.after_append()

    def records_since(self, lsn: int) -> List[WALRecord]:
        """Records with an LSN strictly greater than ``lsn``, in log order."""
        records = self.records
        # Records are appended in LSN order; bisect for the replay suffix.
        lo, hi = 0, len(records)
        while lo < hi:
            mid = (lo + hi) // 2
            if records[mid].lsn <= lsn:
                lo = mid + 1
            else:
                hi = mid
        return records[lo:]

    def truncate_to(self, lsn: int) -> int:
        """Drop records with LSN <= ``lsn``; returns how many were dropped."""
        kept = self.records_since(lsn)
        dropped = len(self.records) - len(kept)
        self.records = kept
        return dropped


def _as_logged_rows(values, count: int, value_length: int) -> np.ndarray:
    """Detached float64 ``(count, d)`` copy of a value batch for logging."""
    rows = np.array(values, dtype=np.float64, copy=True)
    if rows.ndim == 1:
        rows = rows.reshape(count, value_length)
    return rows


def _as_key_tuple(keys) -> Tuple[int, ...]:
    if type(keys) is np.ndarray:
        return tuple(keys.tolist())
    return tuple(int(key) for key in keys)


class LoggedStorage:
    """Write-ahead-logging proxy around a node's parameter store.

    Reads delegate straight through.  Mutators delegate first — inheriting
    the inner store's check-then-apply batch semantics, so a rejected batch
    logs nothing — then append exactly one WAL record.  The proxy is
    API-compatible with :class:`~repro.ps.storage.DenseStorage`
    (including the unchecked ``row_*`` fast path used by fused worker
    steps), so every caller of the store is captured without knowing the
    log exists.
    """

    __slots__ = ("inner", "wal", "num_keys", "value_length")

    def __init__(self, inner, wal: DeltaWAL):
        self.inner = inner
        self.wal = wal
        self.num_keys = inner.num_keys
        self.value_length = inner.value_length

    # ------------------------------------------------------------------ reads
    def contains(self, key: int) -> bool:
        return self.inner.contains(key)

    def __contains__(self, key: int) -> bool:
        return self.inner.contains(key)

    def has_row(self, key: int) -> bool:
        return self.inner.has_row(key)

    def row_copy(self, key: int) -> np.ndarray:
        return self.inner.row_copy(key)

    def get(self, key: int) -> np.ndarray:
        return self.inner.get(key)

    def keys(self):
        return self.inner.keys()

    def __len__(self) -> int:
        return len(self.inner)

    def contains_many(self, keys) -> np.ndarray:
        return self.inner.contains_many(keys)

    def contains_flags(self, keys) -> list:
        return self.inner.contains_flags(keys)

    def get_many(self, keys) -> np.ndarray:
        return self.inner.get_many(keys)

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner.snapshot()

    # --------------------------------------------------------------- mutators
    def add(self, key: int, update) -> None:
        self.inner.add(key, update)
        self.wal.append(
            WAL_DELTA,
            (int(key),),
            _as_logged_rows(update, 1, self.value_length),
        )

    def row_add(self, key: int, update) -> None:
        self.inner.row_add(key, update)
        self.wal.append(
            WAL_DELTA,
            (int(key),),
            _as_logged_rows(update, 1, self.value_length),
        )

    def add_many(self, keys, updates) -> None:
        self.inner.add_many(keys, updates)
        key_tuple = _as_key_tuple(keys)
        self.wal.append(
            WAL_DELTA,
            key_tuple,
            _as_logged_rows(updates, len(key_tuple), self.value_length),
        )

    def set(self, key: int, value) -> None:
        self.inner.set(key, value)
        self.wal.append(
            WAL_SET,
            (int(key),),
            _as_logged_rows(value, 1, self.value_length),
        )

    def set_many(self, keys, values) -> None:
        self.inner.set_many(keys, values)
        key_tuple = _as_key_tuple(keys)
        self.wal.append(
            WAL_SET,
            key_tuple,
            _as_logged_rows(values, len(key_tuple), self.value_length),
        )

    def insert(self, key: int, value) -> None:
        self.inner.insert(key, value)
        self.wal.append(
            WAL_INSERT,
            (int(key),),
            _as_logged_rows(value, 1, self.value_length),
        )

    def insert_many(self, keys, values) -> None:
        self.inner.insert_many(keys, values)
        key_tuple = _as_key_tuple(keys)
        self.wal.append(
            WAL_INSERT,
            key_tuple,
            _as_logged_rows(values, len(key_tuple), self.value_length),
        )

    def remove(self, key: int) -> np.ndarray:
        value = self.inner.remove(key)
        # The removed value rides in the record: after a relocation hands a
        # key away, this is the last durable copy the old owner holds.
        self.wal.append(
            WAL_REMOVE,
            (int(key),),
            _as_logged_rows(value, 1, self.value_length),
        )
        return value

    def remove_many(self, keys) -> np.ndarray:
        values = self.inner.remove_many(keys)
        key_tuple = _as_key_tuple(keys)
        self.wal.append(
            WAL_REMOVE,
            key_tuple,
            _as_logged_rows(values, len(key_tuple), self.value_length),
        )
        return values
