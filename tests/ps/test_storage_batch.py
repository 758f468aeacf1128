"""Parity tests for the batch storage API against sequences of single-key ops.

The batch data path must be *semantically identical* to applying the
single-key primitives per key in batch order: duplicates accumulate under
``add_many``, errors name the first offending key, and values round-trip
bit-for-bit.  Every test runs both below and above the ``SMALL_BATCH``
threshold so the pure-Python fast path and the vectorized path are both
covered, and the parity and error tests run on both stores a node can own:
``DenseStorage`` and the real backend's ``SharedDenseStorage``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SharedDenseStorage
from repro.errors import StorageError, UnknownKeyError
from repro.ps.base import ParameterServer
from repro.ps.partition import RangePartitioner
from repro.ps.storage import SMALL_BATCH, DenseStorage, LatchTable

NUM_KEYS = 3 * SMALL_BATCH
VALUE_LENGTH = 4

#: Batch sizes straddling the small-batch fast path and the vectorized path.
BATCH_SIZES = (1, 2, SMALL_BATCH, SMALL_BATCH + 1, 2 * SMALL_BATCH)


def _make(initial=None):
    return DenseStorage(NUM_KEYS, VALUE_LENGTH, initial_keys=initial)


@pytest.fixture(params=["dense", "shared"])
def make_store(request):
    """Factory for the store kind under test: the simulator's ``DenseStorage``
    or the real backend's shared-memory subclass (detached afterwards)."""
    created = []

    def make(initial=None):
        if request.param == "dense":
            return _make(initial)
        store = SharedDenseStorage(NUM_KEYS, VALUE_LENGTH, initial_keys=initial)
        created.append(store)
        return store

    yield make
    for store in created:
        store.detach()


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestBatchParity:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_insert_many_then_get_many_roundtrip(self, make_store, size):
        rng = _rng(size)
        keys = list(rng.permutation(NUM_KEYS)[:size])
        values = rng.normal(size=(size, VALUE_LENGTH))
        batch = make_store()
        single = make_store()
        batch.insert_many(keys, values)
        for index, key in enumerate(keys):
            single.insert(key, values[index])
        assert sorted(batch.keys()) == sorted(single.keys())
        np.testing.assert_array_equal(batch.get_many(keys), values)
        for index, key in enumerate(keys):
            np.testing.assert_array_equal(batch.get(key), single.get(key))

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_add_many_matches_single_adds(self, make_store, size):
        rng = _rng(size + 100)
        keys = list(rng.permutation(NUM_KEYS)[:size])
        updates = rng.normal(size=(size, VALUE_LENGTH))
        batch = make_store(initial=range(NUM_KEYS))
        single = make_store(initial=range(NUM_KEYS))
        batch.add_many(keys, updates)
        for index, key in enumerate(keys):
            single.add(key, updates[index])
        for key in range(NUM_KEYS):
            np.testing.assert_array_equal(batch.get(key), single.get(key))

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_add_many_duplicates_accumulate(self, make_store, size):
        rng = _rng(size + 200)
        base_keys = list(rng.permutation(NUM_KEYS)[:size])
        keys = base_keys + base_keys  # every key appears twice
        updates = rng.normal(size=(len(keys), VALUE_LENGTH))
        batch = make_store(initial=range(NUM_KEYS))
        single = make_store(initial=range(NUM_KEYS))
        batch.add_many(keys, updates)
        for index, key in enumerate(keys):
            single.add(key, updates[index])
        for key in base_keys:
            np.testing.assert_array_equal(batch.get(key), single.get(key))

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_set_many_matches_single_sets(self, make_store, size):
        rng = _rng(size + 300)
        keys = list(rng.permutation(NUM_KEYS)[:size])
        values = rng.normal(size=(size, VALUE_LENGTH))
        batch = make_store(initial=range(NUM_KEYS))
        single = make_store(initial=range(NUM_KEYS))
        batch.set_many(keys, values)
        for index, key in enumerate(keys):
            single.set(key, values[index])
        for key in range(NUM_KEYS):
            np.testing.assert_array_equal(batch.get(key), single.get(key))

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_remove_many_matches_single_removes(self, make_store, size):
        rng = _rng(size + 400)
        keys = list(rng.permutation(NUM_KEYS)[:size])
        batch = make_store(initial=range(NUM_KEYS))
        single = make_store(initial=range(NUM_KEYS))
        removed = batch.remove_many(keys)
        for index, key in enumerate(keys):
            np.testing.assert_array_equal(removed[index], single.remove(key))
        assert sorted(batch.keys()) == sorted(single.keys())

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_contains_many_and_flags(self, make_store, size):
        rng = _rng(size + 500)
        resident = set(rng.permutation(NUM_KEYS)[: NUM_KEYS // 2].tolist())
        store = make_store(initial=sorted(resident))
        keys = list(rng.permutation(NUM_KEYS)[:size])
        expected = [key in resident for key in keys]
        assert store.contains_many(keys).tolist() == expected
        assert store.contains_flags(keys) == expected

    def test_ndarray_key_batches_accepted(self, make_store):
        store = make_store(initial=range(NUM_KEYS))
        keys = np.arange(NUM_KEYS, dtype=np.int64)
        values = store.get_many(keys)
        assert values.shape == (NUM_KEYS, VALUE_LENGTH)
        store.add_many(keys, np.ones((NUM_KEYS, VALUE_LENGTH)))
        np.testing.assert_array_equal(store.get_many(keys), values + 1.0)

    def test_get_many_returns_copies(self, make_store):
        store = make_store(initial=range(NUM_KEYS))
        out = store.get_many([0, 1])
        out += 99.0
        np.testing.assert_array_equal(store.get(0), np.zeros(VALUE_LENGTH))


class TestBatchErrors:
    @pytest.mark.parametrize("size", (2, 2 * SMALL_BATCH))
    def test_non_resident_key_rejected(self, make_store, size):
        resident = [k for k in range(size) if k != 1]
        store = make_store(initial=resident)
        keys = list(range(size))  # key 1 is missing
        with pytest.raises(StorageError, match="key 1 is not resident"):
            store.get_many(keys)
        with pytest.raises(StorageError, match="key 1 is not resident"):
            store.add_many(keys, np.zeros((size, VALUE_LENGTH)))
        with pytest.raises(StorageError, match="key 1 is not resident"):
            store.set_many(keys, np.zeros((size, VALUE_LENGTH)))
        with pytest.raises(StorageError, match="key 1 is not resident"):
            store.remove_many(keys)

    @pytest.mark.parametrize("size", (2, 2 * SMALL_BATCH))
    def test_add_many_is_atomic_on_error(self, make_store, size):
        resident = [k for k in range(size) if k != size - 1]
        store = make_store(initial=resident)
        keys = list(range(size))  # the last key is missing
        with pytest.raises(StorageError):
            store.add_many(keys, np.ones((size, VALUE_LENGTH)))
        # No partial update may survive a failed batch.
        for key in resident:
            np.testing.assert_array_equal(store.get(key), np.zeros(VALUE_LENGTH))

    @pytest.mark.parametrize("size", (2, 2 * SMALL_BATCH))
    def test_mutating_batches_are_atomic_on_error(self, make_store, size):
        """set/insert/remove batches with a bad key must leave no partial state."""
        resident = [k for k in range(size) if k != size - 1]
        store = make_store(initial=resident)
        keys = list(range(size))  # the last key is missing
        with pytest.raises(StorageError):
            store.set_many(keys, np.ones((size, VALUE_LENGTH)))
        with pytest.raises(StorageError):
            store.remove_many(keys)
        for key in resident:
            np.testing.assert_array_equal(store.get(key), np.zeros(VALUE_LENGTH))
        with pytest.raises(StorageError):
            # The last key of the insert batch is already resident.
            store.insert_many([size, size + 1, resident[0]], np.ones((3, VALUE_LENGTH)))
        assert not store.contains(size) and not store.contains(size + 1)

    @pytest.mark.parametrize("size", (3, 2 * SMALL_BATCH))
    def test_out_of_range_key_rejected(self, make_store, size):
        store = make_store(initial=range(NUM_KEYS))
        keys = list(range(size - 1)) + [NUM_KEYS]
        with pytest.raises(StorageError, match=f"key {NUM_KEYS} out of range"):
            store.get_many(keys)
        with pytest.raises(StorageError, match="out of range"):
            store.contains_many([-1] + list(range(size - 1)))

    @pytest.mark.parametrize("size", (2, 2 * SMALL_BATCH))
    def test_shape_mismatch_rejected(self, make_store, size):
        store = make_store(initial=range(NUM_KEYS))
        keys = list(range(size))
        with pytest.raises(StorageError, match="shape"):
            store.add_many(keys, np.zeros((size, VALUE_LENGTH + 1)))
        with pytest.raises(StorageError, match="shape"):
            store.set_many(keys, np.zeros((size + 1, VALUE_LENGTH)))

    @pytest.mark.parametrize("size", (2, 2 * SMALL_BATCH))
    def test_insert_many_duplicate_in_batch_rejected(self, make_store, size):
        store = make_store()
        keys = list(range(size - 1)) + [0]  # key 0 appears twice
        with pytest.raises(StorageError, match="already resident"):
            store.insert_many(keys, np.zeros((size, VALUE_LENGTH)))

    @pytest.mark.parametrize("size", (2, 2 * SMALL_BATCH))
    def test_insert_many_existing_key_rejected(self, make_store, size):
        store = make_store(initial=[1])
        keys = list(range(size))
        with pytest.raises(StorageError, match="key 1 is already resident"):
            store.insert_many(keys, np.zeros((size, VALUE_LENGTH)))


class TestNoAliasing:
    def test_add_does_not_mutate_caller_arrays(self):
        store = DenseStorage(8, VALUE_LENGTH)
        inserted = np.ones(VALUE_LENGTH)
        store.insert(0, inserted)
        store.add(0, np.ones(VALUE_LENGTH))
        np.testing.assert_array_equal(inserted, np.ones(VALUE_LENGTH))
        set_value = np.full(VALUE_LENGTH, 5.0)
        store.set(0, set_value)
        store.add(0, np.ones(VALUE_LENGTH))
        np.testing.assert_array_equal(set_value, np.full(VALUE_LENGTH, 5.0))

    def test_get_still_returns_copy(self):
        store = DenseStorage(8, VALUE_LENGTH, initial_keys=[0])
        copy = store.get(0)
        copy[0] = 42.0
        np.testing.assert_array_equal(store.get(0), np.zeros(VALUE_LENGTH))


class TestLatchTableBatch:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_acquire_many_counts_every_key(self, size):
        table = LatchTable()
        table.acquire_many(list(range(size)))
        assert table.acquisitions == size

    def test_acquire_many_accepts_ndarray(self):
        table = LatchTable()
        table.acquire_many(np.array([1, 6, 11]))
        assert table.acquisitions == 3


class TestNodeStateBatch:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_local_many_match_per_key_reads_and_writes(self, size):
        """What every server handler runs equals the per-key loop it replaced:
        values bit-for-bit, duplicates accumulating, one latch per key."""
        from repro.config import ClusterConfig, ParameterServerConfig
        from repro.ps.classic import ClassicSharedMemoryPS

        rng = _rng(size)
        config = ParameterServerConfig(num_keys=NUM_KEYS, value_length=VALUE_LENGTH)
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        initial = rng.normal(size=(NUM_KEYS, VALUE_LENGTH))
        batch = ClassicSharedMemoryPS(cluster, config, initial_values=initial).states[0]
        single = ClassicSharedMemoryPS(cluster, config, initial_values=initial).states[0]
        keys = [int(key) for key in rng.integers(0, NUM_KEYS, size=size)]
        updates = rng.normal(size=(size, VALUE_LENGTH))
        batch.write_local_many(keys, updates)
        for index, key in enumerate(keys):
            single.write_local(key, updates[index])
        np.testing.assert_array_equal(
            batch.read_local_many(keys),
            np.vstack([single.read_local(key) for key in keys]),
        )
        assert batch.latches.acquisitions == single.latches.acquisitions == 2 * size


class TestPartitionerBatch:
    @pytest.mark.parametrize(
        "partitioner",
        [
            RangePartitioner(101, 8),
            RangePartitioner(8, 3),
            RangePartitioner(3, 8),  # more nodes than keys: empty ranges
        ],
        ids=["range", "range-uneven", "range-empty-nodes"],
    )
    def test_nodes_of_matches_node_of(self, partitioner):
        keys = list(range(partitioner.num_keys))
        expected = [partitioner.node_of(key) for key in keys]
        assert partitioner.nodes_of(keys).tolist() == expected
        assert partitioner.nodes_of_list(keys) == expected
        # Small batches take the pure-Python path.
        assert partitioner.nodes_of_list(keys[:2]) == expected[:2]

    def test_range_keys_of_consistent_with_node_of(self):
        partitioner = RangePartitioner(17, 4)
        for node in range(4):
            for key in partitioner.keys_of(node):
                assert partitioner.node_of(key) == node


class TestWorkerClientKeyCheck:
    def _client(self):
        from repro.config import ClusterConfig, ParameterServerConfig
        from repro.ps.classic import ClassicSharedMemoryPS

        ps = ClassicSharedMemoryPS(
            ClusterConfig(num_nodes=1, workers_per_node=1),
            ParameterServerConfig(num_keys=32, value_length=2),
        )
        return ps.client(0, 0)

    @pytest.mark.parametrize("size", (1, 3, 2 * SMALL_BATCH))
    def test_first_offending_key_reported(self, size):
        client = self._client()
        keys = list(range(size - 1)) + [99]
        with pytest.raises(UnknownKeyError) as excinfo:
            client._check_keys(keys + [-5])  # 99 comes first
        assert excinfo.value.args[0] == 99

    def test_empty_keys_rejected(self):
        client = self._client()
        with pytest.raises(Exception, match="at least one key"):
            client._check_keys([])

    def test_valid_keys_returned_as_int_tuple(self):
        client = self._client()
        checked = client._check_keys(np.arange(2 * SMALL_BATCH))
        assert checked == tuple(range(2 * SMALL_BATCH))
        assert all(isinstance(key, int) for key in checked)

    def test_generator_keys_accepted(self):
        client = self._client()
        assert client._check_keys(iter([3, 1])) == (3, 1)
        assert client._check_keys(range(4)) == (0, 1, 2, 3)


class TestPushSnapshotsUpdates:
    def test_push_async_is_immune_to_buffer_reuse(self):
        """Remote push payloads must snapshot the caller's update buffer.

        A worker may reuse its gradient buffer immediately after
        ``push_async``; the in-flight message must carry the values from send
        time (single-key chunks are the regression case: a row view would
        alias the buffer).
        """
        from repro.config import ClusterConfig, ParameterServerConfig
        from repro.ps.classic import ClassicSharedMemoryPS

        ps = ClassicSharedMemoryPS(
            ClusterConfig(num_nodes=2, workers_per_node=1),
            ParameterServerConfig(num_keys=8, value_length=2),
        )
        remote_key = 7  # owned by node 1; pushed from node 0

        def worker(client, worker_id):
            if worker_id != 0:
                return None
            buffer = np.ones((1, 2))
            handle = client.push_async([remote_key], buffer, needs_ack=True)
            buffer[:] = 999.0  # reuse the buffer while the push is in flight
            yield from client.wait(handle)
            return None

        ps.run_workers(worker)
        np.testing.assert_array_equal(ps.parameter(remote_key), [1.0, 1.0])


class TestAllParametersBatched:
    def test_all_parameters_matches_per_key_after_relocation(self):
        from repro.config import ClusterConfig, ParameterServerConfig
        from repro.ps.lapse import LapsePS

        rng = _rng(9)
        initial = rng.normal(size=(24, 3))
        ps = LapsePS(
            ClusterConfig(num_nodes=3, workers_per_node=1),
            ParameterServerConfig(num_keys=24, value_length=3),
            initial_values=initial,
        )

        def worker(client, worker_id):
            keys = [(worker_id * 11 + offset) % 24 for offset in range(6)]
            yield from client.localize(keys)
            pulled = yield from client.pull(keys)
            yield from client.push(keys, pulled * 0 + worker_id)
            return None

        ps.run_workers(worker)
        packed = ps.all_parameters()
        for key in range(24):
            np.testing.assert_array_equal(packed[key], ps.parameter(key))


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "add", "set", "remove"]),
            st.lists(
                st.integers(min_value=0, max_value=NUM_KEYS - 1),
                min_size=1,
                max_size=2 * SMALL_BATCH,
            ),
            st.integers(min_value=0, max_value=2**31 - 1),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_batch_ops_match_single_ops(ops):
    """Random batch-op programs agree with their per-key expansion."""
    batch = _make()
    single = _make()
    for op, keys, seed in ops:
        values = np.random.default_rng(seed).normal(size=(len(keys), VALUE_LENGTH))
        if op == "add":
            keys = [key for key in keys if single.contains(key)]
            values = values[: len(keys)]
            if not keys:
                continue
            batch.add_many(keys, values)
            for index, key in enumerate(keys):
                single.add(key, values[index])
        elif op == "set":
            # Deduplicate: set_many's last-wins contract equals per-key
            # order only when we apply rows in the same order, which the
            # per-key expansion does; keep duplicates to exercise it.
            keys = [key for key in keys if single.contains(key)]
            values = values[: len(keys)]
            if not keys:
                continue
            batch.set_many(keys, values)
            for index, key in enumerate(keys):
                single.set(key, values[index])
        elif op == "insert":
            seen = set()
            fresh = []
            for key in keys:
                if not single.contains(key) and key not in seen:
                    fresh.append(key)
                    seen.add(key)
            values = values[: len(fresh)]
            if not fresh:
                continue
            batch.insert_many(fresh, values)
            for index, key in enumerate(fresh):
                single.insert(key, values[index])
        else:  # remove
            seen = set()
            present = []
            for key in keys:
                if single.contains(key) and key not in seen:
                    present.append(key)
                    seen.add(key)
            if not present:
                continue
            removed = batch.remove_many(present)
            for index, key in enumerate(present):
                np.testing.assert_array_equal(removed[index], single.remove(key))
    assert sorted(batch.keys()) == sorted(single.keys())
    for key in single.keys():
        np.testing.assert_array_equal(batch.get(key), single.get(key))
