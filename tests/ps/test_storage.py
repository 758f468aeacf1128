"""Unit and property-based tests for the local parameter store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SharedDenseStorage
from repro.errors import StorageError
from repro.ps.storage import DenseStorage, LatchTable, gather_rows


@pytest.fixture(params=["dense", "shared"])
def storage(request):
    """An empty store of each kind a node can own: the simulator's
    ``DenseStorage`` and the real backend's shared-memory subclass."""
    if request.param == "dense":
        yield DenseStorage(16, 4)
        return
    store = SharedDenseStorage(16, 4)
    yield store
    store.detach()


class TestStorageBasics:
    def test_insert_get_roundtrip(self, storage):
        value = np.array([1.0, 2.0, 3.0, 4.0])
        storage.insert(3, value)
        assert storage.contains(3)
        np.testing.assert_allclose(storage.get(3), value)

    def test_get_returns_copy(self, storage):
        storage.insert(0, np.ones(4))
        copy = storage.get(0)
        copy[0] = 99.0
        np.testing.assert_allclose(storage.get(0), np.ones(4))

    def test_add_is_cumulative(self, storage):
        storage.insert(1, np.zeros(4))
        storage.add(1, np.array([1.0, 0.0, -1.0, 2.0]))
        storage.add(1, np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(storage.get(1), [2.0, 1.0, 0.0, 3.0])

    def test_set_overwrites(self, storage):
        storage.insert(2, np.ones(4))
        storage.set(2, np.full(4, 7.0))
        np.testing.assert_allclose(storage.get(2), np.full(4, 7.0))

    def test_remove_returns_value_and_clears(self, storage):
        storage.insert(5, np.full(4, 2.5))
        removed = storage.remove(5)
        np.testing.assert_allclose(removed, np.full(4, 2.5))
        assert not storage.contains(5)
        with pytest.raises(StorageError):
            storage.get(5)

    def test_reinsert_after_remove(self, storage):
        storage.insert(5, np.ones(4))
        storage.remove(5)
        storage.insert(5, np.full(4, 3.0))
        np.testing.assert_allclose(storage.get(5), np.full(4, 3.0))

    def test_double_insert_rejected(self, storage):
        storage.insert(4, np.zeros(4))
        with pytest.raises(StorageError):
            storage.insert(4, np.zeros(4))

    def test_missing_key_operations_rejected(self, storage):
        with pytest.raises(StorageError):
            storage.get(0)
        with pytest.raises(StorageError):
            storage.add(0, np.zeros(4))
        with pytest.raises(StorageError):
            storage.set(0, np.zeros(4))
        with pytest.raises(StorageError):
            storage.remove(0)

    def test_out_of_range_key_rejected(self, storage):
        with pytest.raises(StorageError):
            storage.insert(99, np.zeros(4))
        with pytest.raises(StorageError):
            storage.contains(-1)

    def test_wrong_shape_rejected(self, storage):
        with pytest.raises(StorageError):
            storage.insert(0, np.zeros(3))
        storage.insert(0, np.zeros(4))
        with pytest.raises(StorageError):
            storage.add(0, np.zeros(5))

    def test_keys_and_len(self, storage):
        for key in (1, 3, 5):
            storage.insert(key, np.zeros(4))
        assert sorted(storage.keys()) == [1, 3, 5]
        assert len(storage) == 3
        assert 3 in storage
        assert 2 not in storage

    def test_initial_keys(self):
        store = DenseStorage(8, 2, initial_keys=[0, 7])
        assert store.contains(0) and store.contains(7)
        np.testing.assert_allclose(store.get(0), np.zeros(2))

    def test_invalid_construction(self):
        with pytest.raises(StorageError):
            DenseStorage(0, 4)
        with pytest.raises(StorageError):
            DenseStorage(4, 0)


class TestRowPrimitives:
    """The unchecked ``row_*`` primitives of the fused worker-step path agree
    with the checked single-key operations."""

    def test_has_row_tracks_residency(self, storage):
        assert not storage.has_row(3)
        storage.insert(3, np.ones(4))
        assert storage.has_row(3)
        storage.remove(3)
        assert not storage.has_row(3)

    def test_row_copy_is_detached(self, storage):
        storage.insert(2, np.arange(4.0))
        row = storage.row_copy(2)
        np.testing.assert_array_equal(row, storage.get(2))
        row[0] = 99.0
        np.testing.assert_array_equal(storage.get(2), np.arange(4.0))

    def test_row_add_matches_add(self, storage):
        update = np.array([0.5, -1.0, 2.0, 0.25])
        storage.insert(1, np.ones(4))
        storage.insert(6, np.ones(4))
        storage.row_add(1, update)
        storage.add(6, update)
        np.testing.assert_array_equal(storage.get(1), storage.get(6))


class TestSnapshot:
    def test_snapshot_is_sorted_and_detached(self, storage):
        for key in (9, 2, 5):
            storage.insert(key, np.full(4, float(key)))
        keys, values = storage.snapshot()
        assert keys.dtype == np.int64
        assert keys.tolist() == [2, 5, 9]
        np.testing.assert_array_equal(values, np.repeat([[2.0], [5.0], [9.0]], 4, axis=1))
        values += 1.0
        storage.add(2, np.ones(4))
        np.testing.assert_array_equal(storage.snapshot()[1][0], np.full(4, 3.0))
        np.testing.assert_array_equal(values[0], np.full(4, 3.0))

    def test_snapshot_of_empty_store(self, storage):
        storage.insert(0, np.ones(4))
        storage.remove(0)
        keys, values = storage.snapshot()
        assert keys.shape == (0,)
        assert values.shape == (0, 4)


class TestGatherRows:
    def test_rows_follow_key_order(self):
        per_key = {3: np.array([3.0, 3.5]), 0: np.array([0.0, 0.5]), 7: np.array([7.0, 7.5])}
        out = gather_rows(per_key, [7, 0, 3, 7], 2)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(
            out, [[7.0, 7.5], [0.0, 0.5], [3.0, 3.5], [7.0, 7.5]]
        )
        out[0, 0] = -1.0
        assert per_key[7][0] == 7.0

    def test_no_keys_give_an_empty_batch(self):
        assert gather_rows({1: np.ones(3)}, [], 3).shape == (0, 3)


class TestLatchTable:
    def test_acquisition_counter(self):
        table = LatchTable()
        table.acquire(1)
        table.acquire(5)
        assert table.acquisitions == 2


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=4,
                max_size=4,
            ),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_store_matches_dict_model(ops):
    """The store behaves like a dict of rows under an insert/add stream."""
    store = DenseStorage(16, 4)
    model = {}
    for key, update in ops:
        update = np.asarray(update)
        if key in model:
            store.add(key, update)
            model[key] = model[key] + update
        else:
            store.insert(key, update)
            model[key] = update.copy()
    assert sorted(store.keys()) == sorted(model.keys())
    for key, expected in model.items():
        np.testing.assert_allclose(store.get(key), expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=30, unique=True)
)
def test_property_remove_inverts_insert(keys):
    """After inserting and removing the same keys, the store is empty again."""
    store = DenseStorage(64, 2)
    for key in keys:
        store.insert(key, np.array([key, -key], dtype=float))
    for key in keys:
        value = store.remove(key)
        np.testing.assert_allclose(value, [key, -key])
    assert len(store) == 0
