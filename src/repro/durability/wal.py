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
* :class:`DeltaWAL` — one append-only log per node, kept in columns of
  one row per logged key.  All node WALs share one :class:`LSNClock`, so
  LSNs form a cluster-wide total order and a record written by node A can
  be ordered against node B's checkpoint (this is what lets crash recovery
  find the value of a key whose ownership was in flight between two nodes
  at crash time).
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


def _record_nbytes(count: int, value_elements: int) -> int:
    """Simulated serialized size of a record of ``count`` keys and
    ``value_elements`` float64 values."""
    return RECORD_HEADER_BYTES + KEY_BYTES * count + VALUE_BYTES * value_elements


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
        return _record_nbytes(len(self.keys), int(self.values.size))


_KIND_CODES = {kind: code for code, kind in enumerate(WAL_KINDS)}
_DELTA_CODE = _KIND_CODES[WAL_DELTA]
_REMOVE_CODE = _KIND_CODES[WAL_REMOVE]
#: Rows the columns hold after their first growth.
_MIN_ROWS = 64


class DeltaWAL:
    """Append-only WAL of one node's parameter-store mutations.

    Records are kept in memory (the simulation does not model disk I/O —
    appends are durable the instant they return, which is the strongest
    possible write-ahead discipline and the baseline the fault-injection
    tests measure against).  ``after_append`` is an optional callback fired
    after every append; the durability manager uses it to trigger lazy
    simulated-time checkpoints without scheduling kernel events.

    The log is stored in columns with one row per logged key: ``lsn``
    (int64), ``kind`` (int8, an index into :data:`WAL_KINDS`), ``key``
    (int64) and the float64 value row, whose width is fixed by the first
    append.  A record of k keys is k consecutive rows that share one LSN.
    The columns grow by doubling; writing a row is the copy that detaches
    the log from the caller's buffers.  :class:`WALRecord` objects are built
    only when the log is read (:attr:`records`, :meth:`records_since`).
    """

    __slots__ = (
        "node",
        "clock",
        "metrics",
        "after_append",
        "_last_lsn",
        "_size",
        "_lsns",
        "_kinds",
        "_keys",
        "_values",
    )

    def __init__(self, node: int = 0, clock: Optional[LSNClock] = None, metrics=None):
        self.node = node
        self.clock = clock if clock is not None else LSNClock()
        self.metrics = metrics
        self.after_append: Optional[Callable[[], None]] = None
        self._last_lsn = 0
        self._size = 0
        self._lsns = np.empty(0, dtype=np.int64)
        self._kinds = np.empty(0, dtype=np.int8)
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty((0, 0))

    @property
    def last_lsn(self) -> int:
        """LSN of the last record this WAL appended (survives truncation)."""
        return self._last_lsn

    def _grow(self, rows: int, values) -> None:
        """Make room for ``rows`` rows, at least doubling the capacity."""
        size = self._size
        capacity = max(rows, 2 * len(self._lsns), _MIN_ROWS)

        def grown(column, *width):
            out = np.empty((capacity,) + width, dtype=column.dtype)
            if size:
                out[:size] = column[:size]
            return out

        self._lsns, self._kinds, self._keys = map(grown, (self._lsns, self._kinds, self._keys))
        # The first append fixes the value width.
        self._values = grown(self._values, self._values.shape[1] or np.shape(values)[-1])

    def append(self, kind: str, keys: Sequence[int], values) -> None:
        """Append one record of ``len(keys)`` rows sharing one new LSN.

        ``values`` holds one row per key, ``(len(keys), d)``; a single key's
        row may also come as ``(d,)``.  The rows are copied into the log, so
        the caller may reuse its buffers.
        """
        code = _KIND_CODES.get(kind)
        if code is None:
            raise DurabilityError(f"unknown WAL record kind {kind!r}")
        count = len(keys)
        if not count:
            raise DurabilityError("a WAL record needs at least one key")
        start = self._size
        end = start + count
        if end > len(self._lsns):
            self._grow(end, values)
        # The rows are written before the LSN is taken: a batch that does not
        # fit the columns raises with the log and the clock untouched.
        if count == 1:
            self._values[start] = values
            self._keys[start] = keys[0]
            self._kinds[start] = code
            self._lsns[start] = self._last_lsn = self.clock.next()
        else:
            self._values[start:end] = values
            self._keys[start:end] = keys
            self._kinds[start:end] = code
            self._lsns[start:end] = self._last_lsn = self.clock.next()
        self._size = end
        if self.metrics is not None:
            self.metrics.wal_appends += 1
            self.metrics.wal_bytes += _record_nbytes(count, count * self._values.shape[1])
        if self.after_append is not None:
            self.after_append()

    def append_deltas(self, keys: Sequence[int], rows: np.ndarray) -> None:
        """Append one single-row ``delta`` record per key, in order.

        The records, LSNs, ``wal_appends`` and ``wal_bytes`` are those of
        ``len(keys)`` :meth:`append` calls, written as one slice of rows; the
        clock, the metrics and ``after_append`` are updated once.  ``rows``
        holds one ``(1, d)`` float64 block per key.  The caller guarantees
        that no checkpoint could fire between the records (a fused block
        visit appends only while its node's next checkpoint is not yet due),
        so one ``after_append`` at the end sees what the last of the calls
        would.
        """
        count = len(keys)
        if not count:
            return
        start = self._size
        end = start + count
        if end > len(self._lsns):
            self._grow(end, rows)
        self._values[start:end] = rows.reshape(count, -1)
        self._keys[start:end] = keys
        self._kinds[start:end] = _DELTA_CODE
        lsns = self.clock.take(count)
        self._lsns[start:end] = np.arange(lsns.start, lsns.stop)
        self._size = end
        self._last_lsn = lsns[-1]
        if self.metrics is not None:
            self.metrics.wal_appends += count
            self.metrics.wal_bytes += count * _record_nbytes(1, self._values.shape[1])
        if self.after_append is not None:
            self.after_append()

    def _records_from(self, start: int) -> List[WALRecord]:
        """Records built from the rows at and after row ``start``."""
        end = self._size
        lsns = self._lsns[start:end]
        firsts = np.flatnonzero(np.diff(lsns, prepend=-1))
        bounds = (firsts + start).tolist() + [end]
        keys, values = self._keys, self._values
        return [
            WALRecord(lsn, WAL_KINDS[code], tuple(keys[lo:hi].tolist()), values[lo:hi].copy())
            for lsn, code, lo, hi in zip(
                lsns[firsts].tolist(), self._kinds[firsts + start].tolist(), bounds, bounds[1:]
            )
        ]

    def _first_row_after(self, lsn: int) -> int:
        return int(np.searchsorted(self._lsns[: self._size], lsn, side="right"))

    @property
    def records(self) -> List[WALRecord]:
        """Every retained record, in log order (built on each read)."""
        return self._records_from(0)

    def records_since(self, lsn: int) -> List[WALRecord]:
        """Records with an LSN strictly greater than ``lsn``, in log order."""
        return self._records_from(self._first_row_after(lsn))

    def truncate_to(self, lsn: int) -> int:
        """Drop records with LSN <= ``lsn``; returns how many were dropped."""
        start, size = self._first_row_after(lsn), self._size
        dropped = int(np.count_nonzero(np.diff(self._lsns[:start], prepend=-1)))
        for column in (self._lsns, self._kinds, self._keys, self._values):
            column[: size - start] = column[start:size]
        self._size = size - start
        return dropped

    def last_removed(self, key: int) -> Optional[Tuple[int, np.ndarray]]:
        """``(lsn, value)`` of the newest ``remove`` record of ``key``, taking
        the first of its rows that names the key; ``None`` if none does."""
        size = self._size
        hits = np.flatnonzero((self._kinds[:size] == _REMOVE_CODE) & (self._keys[:size] == key))
        if not hits.size:
            return None
        lsns = self._lsns[hits]
        newest = lsns[-1]
        return int(newest), self._values[hits[np.searchsorted(lsns, newest)]].copy()


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
    # The log copies the keys and rows it writes, so the mutators hand it the
    # caller's own.
    def add(self, key: int, update) -> None:
        self.inner.add(key, update)
        self.wal.append(WAL_DELTA, (key,), update)

    def row_add(self, key: int, update) -> None:
        self.inner.row_add(key, update)
        self.wal.append(WAL_DELTA, (key,), update)

    def add_many(self, keys, updates) -> None:
        self.inner.add_many(keys, updates)
        self.wal.append(WAL_DELTA, keys, updates)

    def set(self, key: int, value) -> None:
        self.inner.set(key, value)
        self.wal.append(WAL_SET, (key,), value)

    def set_many(self, keys, values) -> None:
        self.inner.set_many(keys, values)
        self.wal.append(WAL_SET, keys, values)

    def insert(self, key: int, value) -> None:
        self.inner.insert(key, value)
        self.wal.append(WAL_INSERT, (key,), value)

    def insert_many(self, keys, values) -> None:
        self.inner.insert_many(keys, values)
        self.wal.append(WAL_INSERT, keys, values)

    def remove(self, key: int) -> np.ndarray:
        value = self.inner.remove(key)
        # The removed value rides in the record: after a relocation hands a
        # key away, this is the last durable copy the old owner holds.
        self.wal.append(WAL_REMOVE, (key,), value)
        return value

    def remove_many(self, keys) -> np.ndarray:
        values = self.inner.remove_many(keys)
        self.wal.append(WAL_REMOVE, keys, values)
        return values
