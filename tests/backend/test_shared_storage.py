"""Shared-memory building blocks of the real backend.

``SharedDenseStorage`` must behave exactly like ``DenseStorage`` (same
layout, same batch API, same check-then-apply error contract) while making
writes visible across ``fork``.
"""

import multiprocessing

import numpy as np
import pytest

from repro.backend import SharedDenseStorage
from repro.backend.shm import _attach_array
from repro.errors import StorageError
from repro.ps.storage import DenseStorage

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the real backend requires the fork start method",
)


@pytest.fixture()
def shared_store():
    store = SharedDenseStorage(16, 4, initial_keys=range(8))
    yield store
    store.detach()


def test_shared_dense_matches_dense_semantics(shared_store):
    reference = DenseStorage(16, 4, initial_keys=range(8))
    rng = np.random.default_rng(0)
    keys = [0, 3, 5, 7]
    values = rng.normal(size=(len(keys), 4))
    updates = rng.normal(size=(len(keys), 4))
    for store in (shared_store, reference):
        store.set_many(keys, values)
        store.add_many(keys, updates)
    np.testing.assert_array_equal(
        shared_store.get_many(keys), reference.get_many(keys)
    )
    assert sorted(shared_store.keys()) == sorted(reference.keys())
    assert len(shared_store) == len(reference)
    shared_values, shared_present = shared_store.snapshot()
    reference_values, reference_present = reference.snapshot()
    np.testing.assert_array_equal(shared_values, reference_values)
    np.testing.assert_array_equal(shared_present, reference_present)


def test_shared_dense_error_contract(shared_store):
    # Check-then-apply: the batch fails before any row is written.
    before = shared_store.get_many([0, 1])
    with pytest.raises(StorageError, match="key 9 is not resident"):
        shared_store.set_many([0, 9], np.ones((2, 4)))
    np.testing.assert_array_equal(shared_store.get_many([0, 1]), before)
    with pytest.raises(StorageError, match="already resident"):
        shared_store.insert(3, np.ones(4))


def test_shared_dense_cross_fork_visibility(shared_store):
    ctx = multiprocessing.get_context("fork")
    done = ctx.Event()
    stop = ctx.Event()

    def child():
        shared_store.set_many([2], np.full((1, 4), 7.25))
        done.set()
        stop.wait(10.0)

    process = ctx.Process(target=child, daemon=True)
    process.start()
    try:
        assert done.wait(10.0), "child never wrote"
        # The parent sees the child's write while the child is still alive.
        np.testing.assert_array_equal(shared_store.get(2), np.full(4, 7.25))
    finally:
        stop.set()
        process.join(10.0)
        if process.is_alive():  # pragma: no cover - cleanup on failure
            process.terminate()


def test_shared_dense_detach_is_idempotent_and_keeps_state(shared_store):
    shared_store.set_many([4], np.full((1, 4), 3.0))
    shared_store.detach()
    shared_store.detach()  # idempotent
    np.testing.assert_array_equal(shared_store.get(4), np.full(4, 3.0))


def test_shared_dense_mutators_touch_only_the_shared_arrays(shared_store):
    """Forked server and worker processes share ``_values`` and ``_present``
    and nothing else, so every mutator must write into those two shared
    blocks in place: a reassigned array or any other changed attribute would
    make the processes of a node diverge silently."""
    values_view = _attach_array(shared_store._values_shm, (16, 4), np.float64)
    present_view = _attach_array(shared_store._present_shm, (16,), np.bool_)
    others = {
        name: value
        for name, value in vars(shared_store).items()
        if name not in ("_values", "_present")
    }
    shared_store.insert(9, np.ones(4))
    shared_store.add(9, np.ones(4))
    shared_store.set(0, np.full(4, 2.0))
    shared_store.row_add(1, np.full(4, 0.5))
    shared_store.insert_many([10, 11], np.ones((2, 4)))
    shared_store.add_many([10, 10, 11], np.ones((3, 4)))
    shared_store.set_many([2, 3], np.zeros((2, 4)))
    shared_store.remove(4)
    shared_store.remove_many([5, 6])
    assert set(vars(shared_store)) == set(others) | {"_values", "_present"}
    for name, value in others.items():
        assert getattr(shared_store, name) is value, name
    assert np.shares_memory(shared_store._values, values_view)
    assert np.shares_memory(shared_store._present, present_view)
    keys, values = shared_store.snapshot()
    assert keys.tolist() == np.flatnonzero(present_view).tolist()
    np.testing.assert_array_equal(values, values_view[keys])
    np.testing.assert_array_equal(values_view[10], np.full(4, 3.0))
    del values_view, present_view
