"""Unit tests for the durability primitives: LSN clock, delta WAL, logged store.

Covers the WAL contract the recovery path builds on: globally ordered LSNs,
record kinds, suffix queries and truncation, the transparent
:class:`LoggedStorage` proxy (reads and writes behave exactly like the bare
store while every mutation lands in the log), checkpoint snapshots, and the
metrics plumbing.
"""

import tracemalloc

import numpy as np
import pytest

from repro.durability import (
    WAL_DELTA,
    WAL_INSERT,
    WAL_KINDS,
    WAL_REMOVE,
    WAL_SET,
    DeltaWAL,
    DurabilityConfig,
    LoggedStorage,
    LSNClock,
    replay_records,
    take_checkpoint,
)
from repro.errors import DurabilityError
from repro.ps.metrics import PSMetrics
from repro.ps.storage import DenseStorage

D = 3


def row(*values):
    return np.asarray(values, dtype=np.float64)


def rows(*value_rows):
    return np.asarray(value_rows, dtype=np.float64)


class TestLSNClock:
    def test_monotone_from_one(self):
        clock = LSNClock()
        assert clock.last == 0
        assert [clock.next() for _ in range(4)] == [1, 2, 3, 4]
        assert clock.last == 4

    def test_shared_clock_gives_cluster_wide_total_order(self):
        clock = LSNClock()
        wal_a = DeltaWAL(node=0, clock=clock)
        wal_b = DeltaWAL(node=1, clock=clock)
        wal_a.append(WAL_INSERT, [0], rows(row(1, 2, 3)))
        wal_b.append(WAL_INSERT, [1], rows(row(4, 5, 6)))
        wal_a.append(WAL_DELTA, [0], rows(row(1, 1, 1)))
        lsns = sorted(
            record.lsn for wal in (wal_a, wal_b) for record in wal.records
        )
        assert lsns == [1, 2, 3]
        assert wal_a.records[0].lsn == 1
        assert wal_b.records[0].lsn == 2
        assert wal_a.records[1].lsn == 3


class TestDeltaWAL:
    def test_unknown_kind_raises(self):
        wal = DeltaWAL()
        with pytest.raises(DurabilityError):
            wal.append("compact", [0], rows(row(0, 0, 0)))

    def test_records_since_and_truncate(self):
        wal = DeltaWAL()
        for i in range(5):
            wal.append(WAL_DELTA, [i], rows(row(i, i, i)))
        assert [r.lsn for r in wal.records_since(0)] == [1, 2, 3, 4, 5]
        assert [r.lsn for r in wal.records_since(3)] == [4, 5]
        assert wal.records_since(5) == []
        dropped = wal.truncate_to(3)
        assert dropped == 3
        assert [r.lsn for r in wal.records] == [4, 5]
        # last_lsn survives truncation: the next checkpoint still covers
        # everything that was ever logged.
        wal.truncate_to(5)
        assert wal.records == []
        assert wal.last_lsn == 5

    def test_records_are_detached_copies(self):
        """The log copies the caller's rows, and each read copies the log."""
        wal = DeltaWAL()
        update = rows(row(1, 2, 3))
        wal.append(WAL_DELTA, [7], update)
        update[:] = 99.0
        np.testing.assert_array_equal(wal.records[-1].values[0], row(1, 2, 3))
        wal.records[-1].values[:] = 99.0
        np.testing.assert_array_equal(wal.records[-1].values[0], row(1, 2, 3))

    def test_metrics_bumps(self):
        metrics = PSMetrics()
        wal = DeltaWAL(metrics=metrics)
        wal.append(WAL_INSERT, [0, 1], rows(row(1, 1, 1), row(2, 2, 2)))
        wal.append(WAL_DELTA, [0], rows(row(1, 0, 0)))
        assert metrics.wal_appends == 2
        assert metrics.wal_bytes == sum(record.nbytes for record in wal.records)
        assert wal.records[0].nbytes == 16 + 2 * 8 + 6 * 8

    def test_zero_key_record_raises(self):
        """A record's LSN lives in its rows, so a record needs one; nothing
        is logged and no LSN is taken."""
        wal = DeltaWAL()
        with pytest.raises(DurabilityError):
            wal.append(WAL_REMOVE, [], np.empty((0, D)))
        assert wal.records == [] and wal.clock.last == 0

    def test_after_append_hook_fires(self):
        wal = DeltaWAL()
        fired = []
        wal.after_append = lambda: fired.append(wal.last_lsn)
        wal.append(WAL_SET, [0], rows(row(0, 0, 0)))
        wal.append(WAL_SET, [1], rows(row(1, 1, 1)))
        assert fired == [1, 2]

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_append_deltas_equals_one_append_per_key(self, count):
        """Records, LSNs (continuing a shared clock) and counters are those
        of ``count`` single-row appends; the hook fires once, after the last
        record."""

        def log(batched):
            clock = LSNClock()
            DeltaWAL(node=0, clock=clock).append(WAL_SET, [9], rows(row(0, 0, 0)))
            metrics = PSMetrics()
            wal = DeltaWAL(node=1, clock=clock, metrics=metrics)
            fired = []
            wal.after_append = lambda: fired.append(wal.last_lsn)
            wal.append(WAL_INSERT, [3], rows(row(1, 1, 1)))
            keys = [3, 1, 3, 2][:count]
            deltas = np.arange(count * D, dtype=np.float64).reshape(count, 1, D)
            if batched:
                wal.append_deltas(keys, deltas)
            else:
                for key, delta in zip(keys, deltas):
                    wal.append(WAL_DELTA, (key,), delta)
            records = [
                (r.lsn, r.kind, r.keys, r.values.shape, r.values.tobytes(), r.nbytes)
                for r in wal.records
            ]
            seen = (records, wal.last_lsn, clock.last)
            return seen, (metrics.wal_appends, metrics.wal_bytes), fired

        batched, single = log(True), log(False)
        assert batched[:2] == single[:2]
        assert batched[0][1] == 2 + count
        assert single[2] == [2 + number for number in range(count + 1)]
        assert batched[2] == single[2][:1] + single[2][-1:] * (count > 0)


class TestWALMemory:
    """A logged row costs its 81 column bytes at d = 8, plus the slack of
    doubling, not a record object, a key tuple and an array view each."""

    ROWS = 20_000

    def _retained_bytes_per_row(self, log):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            wal = DeltaWAL()
            log(wal)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert wal.clock.last == self.ROWS
        return retained / self.ROWS

    def test_append_deltas_row(self):
        keys = list(range(50))

        def log(wal):
            # A fused visit hands over a fresh (rows, 1, d) block each time.
            for _ in range(self.ROWS // 50):
                wal.append_deltas(keys, np.ones((50, 1, 8)))

        assert self._retained_bytes_per_row(log) < 170

    def test_single_row_append(self):
        update = np.ones(8)

        def log(wal):
            storage = LoggedStorage(DenseStorage(64, 8, initial_keys=range(64)), wal)
            for key in range(self.ROWS):
                storage.row_add(key % 64, update)

        assert self._retained_bytes_per_row(log) < 170


class TestDurabilityConfig:
    def test_defaults_enabled(self):
        config = DurabilityConfig()
        assert config.enabled
        assert config.checkpoint_interval > 0

    def test_negative_interval_rejected(self):
        with pytest.raises(DurabilityError):
            DurabilityConfig(checkpoint_interval=-1.0)


class TestLoggedStorage:
    """The proxy must be observationally identical to the bare store."""

    def _pair(self, num_keys=8):
        bare = DenseStorage(num_keys, D)
        inner = DenseStorage(num_keys, D)
        logged = LoggedStorage(inner, DeltaWAL())
        return bare, logged

    def _exercise(self, storage):
        storage.insert(0, row(1, 0, 0))
        storage.insert_many([1, 2, 3], rows(row(1, 1, 1), row(2, 2, 2), row(3, 3, 3)))
        storage.add(1, row(0.5, 0.5, 0.5))
        storage.row_add(2, row(-1, -1, -1))
        # Duplicate keys in one batch accumulate both rows.
        storage.add_many([3, 3], rows(row(1, 0, 0), row(0, 1, 0)))
        storage.set(0, row(9, 9, 9))
        storage.set_many([1, 2], rows(row(7, 7, 7), row(8, 8, 8)))
        removed = storage.remove(3)
        storage.insert(3, row(4, 4, 4))  # reuse the freed slot
        storage.remove_many([0, 3])
        return removed

    def test_reads_and_writes_match_bare_store(self):
        bare, logged = self._pair()
        removed_bare = self._exercise(bare)
        removed_logged = self._exercise(logged)
        np.testing.assert_array_equal(removed_bare, removed_logged)
        assert sorted(bare.keys()) == sorted(logged.keys())
        assert len(bare) == len(logged)
        for key in bare.keys():
            assert logged.contains(key) and key in logged
            np.testing.assert_array_equal(bare.get(key), logged.get(key))
            np.testing.assert_array_equal(bare.row_copy(key), logged.row_copy(key))
        keys_bare, values_bare = bare.snapshot()
        keys_logged, values_logged = logged.snapshot()
        np.testing.assert_array_equal(keys_bare, keys_logged)
        np.testing.assert_array_equal(values_bare, values_logged)

    def test_every_mutation_is_logged(self):
        _, logged = self._pair()
        self._exercise(logged)
        kinds = [record.kind for record in logged.wal.records]
        assert set(kinds) <= set(WAL_KINDS)
        assert kinds.count(WAL_INSERT) == 3  # insert, insert_many, re-insert
        assert kinds.count(WAL_DELTA) == 3  # add, row_add, add_many
        assert kinds.count(WAL_SET) == 2  # set, set_many
        assert kinds.count(WAL_REMOVE) == 2  # remove, remove_many
        lsns = [record.lsn for record in logged.wal.records]
        assert lsns == sorted(lsns)

    def test_remove_record_carries_removed_values(self):
        """REMOVE logs the dropped rows: recovery of an in-flight relocation
        restores the value from the old owner's REMOVE record."""
        _, logged = self._pair()
        logged.insert(5, row(3, 1, 4))
        removed = logged.remove(5)
        np.testing.assert_array_equal(removed, row(3, 1, 4))
        record = logged.wal.records[-1]
        assert record.kind == WAL_REMOVE
        assert record.keys == (5,)
        np.testing.assert_array_equal(record.values[0], row(3, 1, 4))

    def test_checkpoint_plus_replay_equals_live_store(self):
        _, logged = self._pair()
        logged.insert_many([0, 1], rows(row(1, 1, 1), row(2, 2, 2)))
        checkpoint = take_checkpoint(logged, node=0, lsn=logged.wal.last_lsn, now=0.0)
        logged.add(0, row(1, 2, 3))
        logged.remove(1)
        logged.insert(4, row(5, 5, 5))
        state = checkpoint.as_state()
        replay_records(state, logged.wal.records_since(checkpoint.lsn))
        keys, values = logged.snapshot()
        assert sorted(state.keys()) == keys.tolist()
        for index, key in enumerate(keys.tolist()):
            np.testing.assert_array_equal(state[key], values[index])

    def test_delta_replay_onto_missing_key_raises(self):
        _, logged = self._pair()
        logged.insert(0, row(1, 1, 1))
        logged.add(0, row(1, 0, 0))
        delta = logged.wal.records[-1]
        with pytest.raises(DurabilityError):
            replay_records({}, [delta])


class TestSnapshots:
    def test_snapshot_is_detached_and_sorted(self):
        storage = DenseStorage(8, D)
        for key in (5, 1, 3):
            storage.insert(key, row(key, key, key))
        keys, values = storage.snapshot()
        assert keys.tolist() == [1, 3, 5]
        values[:] = -1.0
        np.testing.assert_array_equal(storage.get(5), row(5, 5, 5))

    def test_storage_classes_direct(self):
        keys, values = DenseStorage(4, D).snapshot()
        assert keys.size == 0
        assert values.shape == (0, D)
