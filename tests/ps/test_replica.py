"""Tests for the replication-based parameter server."""

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.consistency import (
    History,
    UpdateTagger,
    check_eventual,
    check_eventual_after,
    check_read_your_writes,
    check_sequential,
)
from repro.errors import UnsupportedOperationError
from repro.ps import ReplicaPS
from repro.simnet.events import Timeout


def make_ps(num_nodes=3, workers_per_node=1, **config_kwargs):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=0)
    defaults = dict(num_keys=12, value_length=4)
    defaults.update(config_kwargs)
    return ReplicaPS(cluster, ParameterServerConfig(**defaults))


class TestReplication:
    def test_first_access_installs_replica(self):
        ps = make_ps()

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            values = yield from client.pull([0])  # key 0 is owned by node 0
            return float(values[0, 0])

        ps.run_workers(worker)
        assert 0 in ps.states[1].replicas
        assert ps.replica_holders(0) == (1,)
        assert ps.metrics().replica_creates == 1

    def test_replica_reads_are_local(self):
        ps = make_ps()

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            yield from client.pull([0])
            before = client.state.metrics.key_reads_remote
            yield from client.pull([0])
            yield from client.pull([0])
            assert client.state.metrics.key_reads_remote == before
            return None

        ps.run_workers(worker)
        assert ps.metrics().replica_reads >= 2

    def test_writes_apply_locally_and_converge(self):
        ps = make_ps()

        def worker(client, worker_id):
            yield from client.pull([0])
            for _ in range(4):
                yield from client.push([0], np.full((1, 4), 1.0))
            return None

        ps.run_workers(worker)
        # 3 workers x 4 pushes; all sync rounds have drained once run() returns.
        assert np.allclose(ps.parameter(0), 12.0)
        for node in (1, 2):
            assert np.allclose(ps.states[node].replicas[0], 12.0)

    def test_value_lands_exactly_once(self):
        """Conflict-free aggregation: no lost updates and no double counting."""
        ps = make_ps(num_nodes=4, workers_per_node=2)

        def worker(client, worker_id):
            yield from client.pull([3])
            yield from client.push([3], np.full((1, 4), float(2 ** worker_id)))
            return None

        ps.run_workers(worker)
        expected = float(sum(2 ** w for w in range(8)))
        assert np.allclose(ps.parameter(3), expected)
        for state in ps.states:
            if 3 in state.replicas:
                assert np.allclose(state.replicas[3], expected)

    def test_cold_keys_are_not_replicated(self):
        ps = make_ps(hot_key_threshold=3)

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            yield from client.pull([0])
            yield from client.pull([0])
            assert 0 not in client.state.replicas
            yield from client.pull([0])  # third access crosses the threshold
            yield from client.pull([0])
            return None

        ps.run_workers(worker)
        assert 0 in ps.states[1].replicas
        assert ps.metrics().replica_creates == 1

    def test_access_counts_are_per_node(self):
        ps = make_ps(hot_key_threshold=2)

        def worker(client, worker_id):
            reads = {0: 3, 1: 2, 2: 1}[worker_id]  # key 0 is owned by node 0
            for _ in range(reads):
                yield from client.pull([0])
            return None

        ps.run_workers(worker)
        assert ps.replica_holders(0) == (1,)
        # Node 2 counted its one read, the owner none of its local ones: one
        # more access reaches the threshold on node 2 only.
        for node in (0, 2):
            ps.states[node].policy.record_access(0)
        assert [ps.states[node].policy.is_hot(0) for node in (0, 2)] == [False, True]

    def test_workers_of_one_node_share_its_counts(self):
        ps = make_ps(workers_per_node=2, hot_key_threshold=2)

        def worker(client, worker_id):
            if client.node_id == 1:  # one read from each of node 1's workers
                yield from client.pull([0])
            return None

        ps.run_workers(worker)
        assert ps.replica_holders(0) == (1,)
        assert ps.metrics().replica_creates == 1

    def test_writes_count_but_only_reads_install(self):
        ps = make_ps(hot_key_threshold=2)

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            yield from client.push([0], np.ones((1, 4)))
            yield from client.push([0], np.ones((1, 4)))
            assert 0 not in client.state.replicas  # hot, but writes never install
            yield from client.pull([0])
            assert 0 in client.state.replicas
            return None

        ps.run_workers(worker)
        assert ps.metrics().replica_creates == 1

    def test_unreached_threshold_degenerates_to_classic(self):
        ps = make_ps(hot_key_threshold=10**9)

        def worker(client, worker_id):
            yield from client.pull([0])
            yield from client.push([0], np.ones((1, 4)))
            return None

        ps.run_workers(worker)
        assert ps.metrics().replica_creates == 0
        assert np.allclose(ps.parameter(0), 3.0)

    def test_ops_queued_during_install_are_processed(self):
        ps = make_ps()

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            first = client.pull_async([0])
            # Issued while the install is still in flight: must be queued and
            # answered from the replica once it arrives.
            push = client.push_async([0], np.ones((1, 4)), needs_ack=True)
            second = client.pull_async([0])
            yield from client.wait(first)
            yield from client.wait(push)
            yield from client.wait(second)
            return float(second.values()[0, 0])

        results = ps.run_workers(worker)
        assert results[1] == 1.0
        assert ps.metrics().queued_ops >= 2
        assert np.allclose(ps.parameter(0), 1.0)

    def test_localize_unsupported(self):
        ps = make_ps()

        def worker(client, worker_id):
            with pytest.raises(UnsupportedOperationError):
                client.localize_async([0])
            return None
            yield  # pragma: no cover

        ps.run_workers(worker)

    def test_pull_if_local_uses_replica_and_prefetches(self):
        ps = make_ps()
        observed = {}

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            assert client.pull_if_local(0) is None  # miss starts an install
            yield Timeout(client.sim, 0.01)
            observed["after"] = client.pull_if_local(0)
            return None

        ps.run_workers(worker)
        assert observed["after"] is not None

    def test_clock_triggered_synchronization(self):
        ps = make_ps(num_nodes=2, replica_sync_trigger="clock")

        def worker(client, worker_id):
            yield from client.pull([0])
            yield from client.push([0], np.ones((1, 4)))
            yield from client.clock()
            yield from client.barrier()
            return None

        ps.run_workers(worker)
        assert np.allclose(ps.parameter(0), 2.0)
        assert ps.metrics().replica_sync_rounds >= 1

    def test_clock_mode_replicas_converge_after_owner_stops_clocking(self):
        """Flushes arriving after the owner's last clock still broadcast.

        Regression test: the owner has no timer in clock mode, so deltas
        buffered by late-arriving flushes must be broadcast on receipt, not
        wait for an owner clock that never comes.
        """
        ps = make_ps(num_nodes=3, replica_sync_trigger="clock")

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.barrier()
                return None
            yield from client.pull([0])  # key 0 is owned by node 0
            yield from client.push([0], np.ones((1, 4)))
            yield from client.clock()
            yield from client.barrier()
            return None

        ps.run_workers(worker)
        assert np.allclose(ps.parameter(0), 2.0)
        for node in (1, 2):
            assert np.allclose(ps.states[node].replicas[0], 2.0)
        assert not any(ps.management_policy.sync_dirty(state) for state in ps.states)

    def test_sync_traffic_metrics_recorded(self):
        ps = make_ps()

        def worker(client, worker_id):
            yield from client.pull([0])
            yield from client.push([0], np.ones((1, 4)))
            return None

        ps.run_workers(worker)
        metrics = ps.metrics()
        assert metrics.replica_flush_messages >= 1
        assert metrics.replica_broadcast_messages >= 1
        assert metrics.replica_sync_keys >= 2
        assert metrics.replica_sync_bytes > 0
        assert metrics.replica_refreshes >= 1


class TestReplicaConsistency:
    """Replication trades per-key sequential consistency for eventual (§3.4)."""

    # A long interval so that no synchronization happens during the racing
    # phase; the workers then explicitly wait it out before the final reads.
    SYNC_INTERVAL = 0.05

    def _run_history(self):
        ps = make_ps(
            num_nodes=3,
            workers_per_node=1,
            num_keys=4,
            value_length=2,
            replica_sync_interval=self.SYNC_INTERVAL,
        )
        tagger = UpdateTagger()
        tags = {worker: tagger.next_update() for worker in (1, 2)}
        quiesce_times = {}

        def worker_fn(client, worker_id):
            records = []
            if worker_id == 0:
                # The owner's worker only participates in the barriers.
                for _ in range(3):
                    yield from client.barrier()
                yield Timeout(client.sim, 4 * self.SYNC_INTERVAL)
                return records
            # Phase 1: replicate key 0 (homed on node 0).
            invoked = client.sim.now
            values = yield from client.pull([0])
            records.append(("pull", 0, invoked, client.sim.now, None, values[0, 0]))
            yield from client.barrier()
            # Phase 2: racing tagged writes, applied to the local replicas.
            push_id, value = tags[worker_id]
            update = np.zeros((1, 2))
            update[0, 0] = value
            invoked = client.sim.now
            yield from client.push([0], update)
            records.append(("push", 1, invoked, client.sim.now, push_id, None))
            yield from client.barrier()
            # Phase 3: both pushes completed (the barrier ordered them before
            # this), but no synchronization round ran yet: each node sees only
            # its own write.
            invoked = client.sim.now
            values = yield from client.pull([0])
            records.append(("pull", 2, invoked, client.sim.now, None, values[0, 0]))
            yield from client.barrier()
            # Phase 4: wait out the synchronization loop, then read again.
            yield Timeout(client.sim, 4 * self.SYNC_INTERVAL)
            invoked = client.sim.now
            quiesce_times[worker_id] = invoked
            values = yield from client.pull([0])
            records.append(("pull", 3, invoked, client.sim.now, None, values[0, 0]))
            return records

        history = History(key=0)
        for worker_id, records in enumerate(ps.run_workers(worker_fn)):
            for kind, sequence, invoked, completed, push_id, value in records:
                if kind == "push":
                    history.record_push(worker_id, sequence, invoked, completed, push_id)
                else:
                    history.record_pull(worker_id, sequence, invoked, completed, value)
        return ps, history, max(quiesce_times.values())

    def test_sequential_consistency_is_violated(self):
        _, history, _ = self._run_history()
        result = check_sequential(history)
        assert not result.ok, "replicated reads should break per-key sequential consistency"

    def test_plain_eventual_check_fails_before_synchronization(self):
        _, history, _ = self._run_history()
        result = check_eventual(history)
        assert not result.ok, (
            "reads between synchronization rounds miss other nodes' writes"
        )

    def test_eventual_after_quiescence_holds(self):
        _, history, quiesce_time = self._run_history()
        result = check_eventual_after(history, quiesce_time)
        assert result.ok, result.reason

    def test_read_your_writes_holds(self):
        """Local application of writes preserves the session guarantee."""
        _, history, _ = self._run_history()
        assert check_read_your_writes(history).ok

    def test_copies_converge(self):
        ps, _, _ = self._run_history()
        expected = ps.parameter(0)
        for node in (1, 2):
            assert np.allclose(ps.states[node].replicas[0], expected)
