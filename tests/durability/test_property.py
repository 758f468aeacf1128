"""Property tests: checkpoint + WAL-suffix replay reconverges bit-identically.

Hypothesis drives random operation sequences (inserts, additive deltas,
overwrites, removes — including duplicate-key batches and slab free-list
reuse) against a :class:`LoggedStorage`-wrapped store, takes a checkpoint at
a random point, and crashes at a random later point.  The durability
invariant under test: for ANY crash LSN at or after the checkpoint LSN,

    checkpoint.as_state() + replay(wal records in (ckpt_lsn, crash_lsn])

equals the uninterrupted store's state at the crash point exactly — same key
set, bit-identical float64 rows.  Replay applies the same additions in the
same order as the live store did, so no tolerance is needed.

A model test also drives the columnar :class:`DeltaWAL` through random
appends, fused delta batches and truncations, next to a reference log that
keeps a list of :class:`WALRecord` objects, and checks every read against it.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    WAL_DELTA,
    WAL_KINDS,
    WAL_REMOVE,
    DeltaWAL,
    DurabilityManager,
    LoggedStorage,
    LSNClock,
    WALRecord,
    replay_records,
    take_checkpoint,
)
from repro.durability.wal import KEY_BYTES, RECORD_HEADER_BYTES, VALUE_BYTES
from repro.ps.storage import DenseStorage

NUM_KEYS = 6
D = 2

#: One step: (key, action selector, one value row as small exact integers).
_steps = st.lists(
    st.tuples(
        st.integers(0, NUM_KEYS - 1),
        st.integers(0, 3),
        st.lists(st.integers(-8, 8), min_size=D, max_size=D),
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def scenarios(draw):
    steps = draw(_steps)
    checkpoint_index = draw(st.integers(0, len(steps)))
    crash_index = draw(st.integers(checkpoint_index, len(steps)))
    return steps, checkpoint_index, crash_index


def _apply_step(storage, model, key, action, values):
    """Apply one step to the live store and the mirror model identically.

    Non-resident keys are inserted (odd actions via a duplicate-key batch);
    resident keys cycle through add / duplicate-batch add / set / remove,
    so remove-then-insert sequences re-insert keys the store dropped.
    """
    value = np.asarray(values, dtype=np.float64)
    if key not in model:
        if action % 2 == 0:
            storage.insert(key, value)
        else:
            storage.insert_many([key], value.reshape(1, D))
        model[key] = value.copy()
    elif action == 0:
        storage.add(key, value)
        model[key] = model[key] + value
    elif action == 1:
        # Duplicate keys in one batch: both rows must accumulate.
        storage.add_many([key, key], np.stack([value, value + 1.0]))
        model[key] = model[key] + value + (value + 1.0)
    elif action == 2:
        storage.set(key, value)
        model[key] = value.copy()
    else:
        storage.remove(key)
        del model[key]


def _states_equal(state, other):
    if sorted(state.keys()) != sorted(other.keys()):
        return False
    return all(np.array_equal(state[key], other[key]) for key in state)


@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
def test_any_crash_point_reconverges_bit_identically(scenario):
    steps, checkpoint_index, crash_index = scenario
    storage = LoggedStorage(DenseStorage(NUM_KEYS, D), DeltaWAL())
    model = {}
    # model_at[i] / lsn_at[i]: state and last LSN after the first i steps.
    model_at = [dict(model)]
    lsn_at = [0]
    checkpoint = None
    for index, (key, action, values) in enumerate(steps):
        if index == checkpoint_index:
            checkpoint = take_checkpoint(
                storage, node=0, lsn=storage.wal.last_lsn, now=0.0
            )
        _apply_step(storage, model, key, action, values)
        model_at.append({k: v.copy() for k, v in model.items()})
        lsn_at.append(storage.wal.last_lsn)
    if checkpoint is None:  # checkpoint_index == len(steps)
        checkpoint = take_checkpoint(
            storage, node=0, lsn=storage.wal.last_lsn, now=0.0
        )

    # The live store never diverged from the model (LoggedStorage is a
    # transparent proxy).
    keys, values = storage.snapshot()
    assert keys.tolist() == sorted(model.keys())
    for index, key in enumerate(keys.tolist()):
        assert np.array_equal(values[index], model[key])

    # Crash: restore the checkpoint, replay the WAL suffix up to the crash
    # LSN, compare against the uninterrupted state at that point.
    crash_lsn = lsn_at[crash_index]
    restored = checkpoint.as_state()
    suffix = [
        record
        for record in storage.wal.records_since(checkpoint.lsn)
        if record.lsn <= crash_lsn
    ]
    replay_records(restored, suffix)
    assert _states_equal(restored, model_at[crash_index])


@given(scenario=scenarios())
@settings(max_examples=25, deadline=None)
def test_replay_from_baseline_rebuilds_everything(scenario):
    """The degenerate checkpoint (empty store, LSN 0) still recovers fully:
    initial inserts are themselves logged, so replaying the whole WAL from
    nothing rebuilds the final state."""
    steps, _, _ = scenario
    storage = LoggedStorage(DenseStorage(NUM_KEYS, D), DeltaWAL())
    model = {}
    for key, action, values in steps:
        _apply_step(storage, model, key, action, values)
    restored = {}
    replay_records(restored, storage.wal.records_since(0))
    assert _states_equal(restored, model)


class _ListWAL:
    """Reference log: one :class:`WALRecord` object per record, in a list."""

    def __init__(self, clock):
        self.clock = clock
        self.records = []
        self.last_lsn = 0
        self.wal_appends = 0
        self.wal_bytes = 0

    def append(self, kind, keys, values):
        self.last_lsn = self.clock.next()
        values = np.array(values, dtype=np.float64).reshape(len(keys), D)
        self.records.append(WALRecord(self.last_lsn, kind, tuple(keys), values))
        self.wal_appends += 1
        self.wal_bytes += RECORD_HEADER_BYTES + (KEY_BYTES + VALUE_BYTES * D) * len(keys)

    def records_since(self, lsn):
        return [record for record in self.records if record.lsn > lsn]

    def truncate_to(self, lsn):
        kept = self.records_since(lsn)
        dropped = len(self.records) - len(kept)
        self.records = kept
        return dropped


def _last_removed_value(wals, key):
    """The newest ``remove`` record naming ``key``, its first such row."""
    best_lsn, best = -1, None
    for wal in wals:
        for record in wal.records:
            if record.kind == WAL_REMOVE and record.lsn > best_lsn and key in record.keys:
                best_lsn, best = record.lsn, record.values[record.keys.index(key)]
    return best


_key = st.integers(0, NUM_KEYS - 1)
_record_keys = st.lists(_key, min_size=1, max_size=3)
_ops = st.lists(
    st.tuples(
        st.integers(0, 1),  # which of the two WALs
        st.one_of(
            st.tuples(st.just("append"), st.sampled_from(WAL_KINDS), _record_keys),
            st.tuples(st.just("deltas"), st.just(WAL_DELTA), st.lists(_key, max_size=4)),
            st.tuples(st.just("truncate"), st.just(None), st.integers(-1, 60)),
        ),
    ),
    max_size=30,
)


def _as_pairs(records):
    return [(r.lsn, r.kind, r.keys, r.values.shape, r.values.tobytes(), r.nbytes) for r in records]


@given(ops=_ops)
@settings(max_examples=40, deadline=None)
def test_columnar_wal_reads_as_a_list_of_records(ops):
    clock, reference_clock = LSNClock(), LSNClock()
    metrics = [SimpleNamespace(wal_appends=0, wal_bytes=0) for _ in range(2)]
    wals = [DeltaWAL(node, clock, metrics[node]) for node in range(2)]
    references = [_ListWAL(reference_clock) for _ in range(2)]
    value = 0.0
    for node, (op, kind, arg) in ops:
        wal, reference = wals[node], references[node]
        if op == "truncate":
            assert wal.truncate_to(arg) == reference.truncate_to(arg)
            continue
        rows = value + np.arange(len(arg) * D, dtype=np.float64).reshape(len(arg), 1, D)
        value += len(arg) * D
        if op == "append":
            wal.append(kind, arg, rows[:, 0] if len(arg) > 1 else rows[0, 0])
            reference.append(kind, arg, rows)
        else:
            wal.append_deltas(arg, rows)
            for key, row in zip(arg, rows):
                reference.append(kind, [key], row)
    manager = SimpleNamespace(wals=dict(enumerate(wals)))
    for wal, reference, counters in zip(wals, references, metrics):
        assert _as_pairs(wal.records) == _as_pairs(reference.records)
        for lsn in range(clock.last + 2):
            assert _as_pairs(wal.records_since(lsn)) == _as_pairs(reference.records_since(lsn))
        assert wal.last_lsn == reference.last_lsn
        assert counters.wal_appends == reference.wal_appends
        assert counters.wal_bytes == reference.wal_bytes
    for key in range(NUM_KEYS):
        got = DurabilityManager.last_removed_value(manager, key)
        expected = _last_removed_value(references, key)
        assert (got is None) == (expected is None)
        assert got is None or got.tobytes() == expected.tobytes()
