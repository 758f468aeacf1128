"""Unit tests for the durability manager's checkpoint and recovery calls."""

import numpy as np

from repro.config import ClusterConfig, ParameterServerConfig
from repro.durability import DurabilityConfig, LoggedStorage
from repro.experiments import make_parameter_server


def build(checkpoint_interval=0.0, **config):
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1)
    ps = make_parameter_server(
        "lapse",
        cluster,
        ParameterServerConfig(num_keys=4, value_length=2),
        durability=DurabilityConfig(checkpoint_interval=checkpoint_interval, **config),
    )
    return ps, ps.durability


def test_every_node_starts_with_a_baseline_checkpoint():
    """Recovery always has a checkpoint to start from; with the logged
    initial inserts replayed on top it rebuilds the live store."""
    ps, manager = build()
    for node in (0, 1):
        assert len(manager.checkpoints[node]) == 1
        assert ps.states[node].metrics.checkpoints == 1
        state, _ = manager.recovered_state(node)
        keys, values = ps.states[node].storage.snapshot()
        assert keys.size == 2
        assert sorted(state) == keys.tolist()
        for key, value in zip(keys.tolist(), values):
            np.testing.assert_array_equal(state[key], value)


def test_checkpoint_node_truncates_the_log_only_when_configured():
    for truncate in (False, True):
        ps, manager = build(truncate_on_checkpoint=truncate)
        ps.states[0].storage.add(0, np.ones(2))
        logged = len(manager.wals[0].records)
        checkpoint = manager.checkpoint_node(0)
        assert checkpoint.lsn == manager.wals[0].last_lsn
        np.testing.assert_array_equal(checkpoint.as_state()[0], ps.states[0].storage.get(0))
        assert len(manager.wals[0].records) == (0 if truncate else logged)
        assert ps.states[0].metrics.checkpoints == 2


def test_last_removed_value_is_the_newest_remove_across_the_logs():
    ps, manager = build()
    assert manager.last_removed_value(0) is None
    ps.states[0].storage.remove(0)  # hands key 0 away with its value
    ps.states[1].storage.insert(0, np.full(2, 7.0))
    ps.states[1].storage.remove(0)  # later, on the other node's log
    np.testing.assert_array_equal(manager.last_removed_value(0), [7.0, 7.0])
    assert manager.last_removed_value(1) is None


def test_reset_after_crash_seals_the_pre_crash_history():
    """After a crash, recovery of the node replays nothing it wrote before."""
    ps, manager = build()
    ps.states[0].storage.add(1, np.ones(2))
    assert manager.recovered_state(0)[1] == 1
    ps.states[0].storage = manager.wrap_fresh_storage(0, ps._new_storage())
    manager.reset_after_crash(0)
    state, replayed = manager.recovered_state(0)
    assert (state, replayed) == ({}, 0)
    assert manager.checkpoints[0].latest.lsn == manager.wals[0].last_lsn


def test_a_fresh_store_logs_into_the_node_s_existing_wal():
    ps, manager = build()
    wal = manager.wals[1]
    before = wal.last_lsn
    fresh = manager.wrap_fresh_storage(1, ps._new_storage())
    assert isinstance(fresh, LoggedStorage)
    fresh.insert(2, np.zeros(2))
    assert wal.last_lsn > before
    assert wal.records[-1].keys == (2,)


def test_periodic_checkpoints_are_taken_lazily_on_append():
    """A due checkpoint waits for the node's next append and schedules no
    kernel event, so durability cannot move simulated time."""
    ps, manager = build(checkpoint_interval=0.5)
    storage = ps.states[0].storage
    storage.add(0, np.ones(2))
    assert len(manager.checkpoints[0]) == 1
    ps.sim.run(until=0.6)
    assert len(manager.checkpoints[0]) == 1  # due, but nothing appended yet
    pending = ps.sim.pending_events
    storage.add(0, np.ones(2))
    assert len(manager.checkpoints[0]) == 2
    assert manager.checkpoints[0].latest.taken_at == 0.6
    assert manager.checkpoints[1].latest.taken_at == 0.0  # node 1 never appended
    assert ps.sim.pending_events == pending
