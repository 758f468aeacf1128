"""Tests for the hybrid (relocation + replication) parameter server."""

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
from repro.ps import HybridPS
from repro.ps import HybridManagementPolicy
from repro.simnet.events import Timeout


def make_ps(num_nodes=3, workers_per_node=1, **config_kwargs):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=0)
    defaults = dict(num_keys=12, value_length=4, hot_key_threshold=2)
    defaults.update(config_kwargs)
    return HybridPS(cluster, ParameterServerConfig(**defaults))


class TestPerKeyRouting:
    """Hot keys are replicated, cold keys are relocated — per key (tentpole)."""

    def test_policy_composition(self):
        ps = make_ps()
        policy = ps.management_policy
        assert isinstance(policy, HybridManagementPolicy)
        assert policy.relocation.name == "relocation"
        assert policy.replication.name == "replication"
        assert policy.supports_localize

    def test_hot_key_replicated_cold_key_relocated(self):
        ps = make_ps()

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            # Key 0 (owned by node 0): repeated reads cross the threshold.
            yield from client.pull([0])
            yield from client.pull([0])  # second remote read -> subscribe
            yield from client.pull([0])
            # Key 1: localize relocates it here.
            yield from client.localize([1])
            yield from client.pull([1])
            return None

        ps.run_workers(worker)
        assert ps.key_management(0) == "replication"
        assert 0 in ps.states[1].replicas
        assert ps.replica_holders(0) == (1,)
        assert ps.current_owner(0) == 0  # hot keys stay with their owner
        assert ps.key_management(1) == "relocation"
        assert ps.current_owner(1) == 1  # cold key moved to the accessor
        assert 1 not in ps.states[1].replicas
        metrics = ps.metrics()
        assert metrics.relocations == 1
        assert metrics.replica_creates == 1

    def test_single_remote_read_stays_cold(self):
        ps = make_ps()

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            yield from client.pull([0])  # one access: below the threshold
            return None

        ps.run_workers(worker)
        assert ps.key_management(0) == "relocation"
        assert 0 not in ps.states[1].replicas

    def test_localize_on_replicated_key_completes_without_relocation(self):
        """A replica already makes accesses local, so localize must not move
        the key away from its owner (and a node never becomes subscriber and
        owner of the same key)."""
        ps = make_ps()

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            yield from client.pull([0])
            yield from client.pull([0])  # subscribes
            yield Timeout(client.sim, 0.01)  # install arrives
            yield from client.localize([0])
            return None

        ps.run_workers(worker)
        assert ps.current_owner(0) == 0
        assert ps.metrics().relocations == 0
        assert ps.replica_holders(0) == (1,)

    def test_writes_converge_across_both_techniques(self):
        """Replicated and relocated keys both land every update exactly once."""
        ps = make_ps(num_nodes=4, workers_per_node=2)

        def worker(client, worker_id):
            # key 3 becomes hot everywhere; key 4 + worker stays private.
            yield from client.pull([3])
            yield from client.pull([3])
            private = 4 + worker_id
            yield from client.localize([private])
            for _ in range(3):
                yield from client.push([3], np.full((1, 4), float(2 ** worker_id)))
                yield from client.push([private], np.ones((1, 4)))
            return None

        ps.run_workers(worker)
        expected_hot = 3 * float(sum(2 ** w for w in range(8)))
        assert np.allclose(ps.parameter(3), expected_hot)
        for state in ps.states:
            if 3 in state.replicas:
                assert np.allclose(state.replicas[3], expected_hot)
        for worker_id in range(8):
            assert np.allclose(ps.parameter(4 + worker_id), 3.0)
        metrics = ps.metrics()
        # 5 of the 8 private keys start on a different node than their worker
        # (12 keys over 4 nodes: keys 4..11, workers on nodes k//3 != node).
        assert metrics.relocations == 5
        assert metrics.replica_creates >= 1


class TestRelocationReplicationInterplay:
    def test_subscribers_move_with_a_relocating_key(self):
        """When a subscribed key relocates, the new owner takes over the
        broadcast duty and replicas still converge."""
        ps = make_ps(num_nodes=4)

        def worker(client, worker_id):
            if worker_id == 1:
                # Subscribe to key 0 (owned by node 0).
                yield from client.pull([0])
                yield from client.pull([0])
                yield Timeout(client.sim, 0.01)
                yield from client.barrier()
                # Phase 2: the key now lives on node 2; replica writes must
                # still reach it (flushes chase via the home node).
                yield from client.push([0], np.ones((1, 4)))
                yield from client.barrier()
            elif worker_id == 2:
                yield Timeout(client.sim, 0.005)
                yield from client.barrier()
                # Relocate the (replicated) key away from its home.
                yield from client.localize([0])
                yield from client.push([0], np.full((1, 4), 10.0))
                yield from client.barrier()
            else:
                yield from client.barrier()
                yield from client.barrier()
            return None

        ps.run_workers(worker)
        assert ps.current_owner(0) == 2
        # Node 2 took over the subscriber set from node 0.
        assert ps.replica_holders(0) == (1,)
        assert np.allclose(ps.parameter(0), 11.0)
        assert np.allclose(ps.states[1].replicas[0], 11.0)
        assert ps.metrics().relocations == 1

    def test_subscription_chases_a_relocated_key(self):
        """A register for a key that moved is forwarded to the current owner."""
        ps = make_ps(num_nodes=4)

        def worker(client, worker_id):
            if worker_id == 2:
                yield from client.localize([0])  # move key 0: node 0 -> node 2
                yield from client.barrier()
            elif worker_id == 1:
                yield from client.barrier()
                yield from client.pull([0])
                yield from client.pull([0])  # subscribe; owner is node 2 now
                yield Timeout(client.sim, 0.01)
                assert 0 in client.state.replicas
            else:
                yield from client.barrier()
            return None

        ps.run_workers(worker)
        assert ps.replica_holders(0) == (1,)
        owner_state = ps.states[2]
        assert 0 in owner_state.subscribers
        assert ps.metrics().replica_creates == 1

    def test_queued_ops_during_install_are_processed(self):
        ps = make_ps()

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            yield from client.pull([0])  # access 1 (cold, remote)
            first = client.pull_async([0])  # access 2: subscribes
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

    def test_mf_kge_w2v_run_end_to_end(self):
        from repro.experiments import (
            KGEScale,
            MFScale,
            W2VScale,
            run_kge_experiment,
            run_mf_experiment,
            run_w2v_experiment,
        )

        mf = run_mf_experiment(
            "hybrid", num_nodes=2, workers_per_node=1,
            scale=MFScale(num_rows=24, num_cols=16, num_entries=120, rank=4),
        )
        assert mf.epoch_duration > 0
        assert mf.metrics.relocations > 0
        kge = run_kge_experiment(
            "hybrid", num_nodes=2, workers_per_node=1,
            scale=KGEScale(num_entities=30, num_relations=4, num_triples=60, entity_dim=2),
        )
        assert kge.epoch_duration > 0
        assert kge.metrics.relocations > 0
        assert kge.metrics.replica_creates > 0
        w2v = run_w2v_experiment(
            "hybrid", num_nodes=2, workers_per_node=1,
            scale=W2VScale(vocabulary_size=40, num_sentences=10, mean_sentence_length=4,
                           dim=4, presample_size=10, presample_refresh=8),
        )
        assert w2v.epoch_duration > 0
        assert w2v.metrics.relocations > 0


class TestHybridConsistency:
    """Per-key guarantees follow the managing technique (§3.4, Table 1)."""

    SYNC_INTERVAL = 0.05

    def test_key_guarantees_classification(self):
        ps = make_ps()

        def worker(client, worker_id):
            if worker_id != 1:
                return None
            yield from client.pull([0])
            yield from client.pull([0])  # key 0 -> replicated
            yield from client.localize([1])  # key 1 -> relocated
            return None

        ps.run_workers(worker)
        hot = ps.key_guarantees(0)
        cold = ps.key_guarantees(1)
        # Hot (replicated) keys lose per-key sequential consistency but keep
        # eventual consistency and the session guarantees.
        assert hot == {"eventual": True, "session": True, "causal": True,
                       "sequential": False}
        # Cold (relocated) keys retain the full relocation guarantees.
        assert cold == {"eventual": True, "session": True, "causal": True,
                        "sequential": True}

    def _run_hot_key_history(self):
        """Two nodes race tagged writes on a replicated key (cf. replica PS)."""
        ps = make_ps(
            num_nodes=3,
            num_keys=4,
            value_length=2,
            replica_sync_interval=self.SYNC_INTERVAL,
            hot_key_threshold=1,
        )
        tagger = UpdateTagger()
        tags = {worker: tagger.next_update() for worker in (1, 2)}
        quiesce_times = {}

        def worker_fn(client, worker_id):
            records = []
            if worker_id == 0:
                for _ in range(3):
                    yield from client.barrier()
                yield Timeout(client.sim, 4 * self.SYNC_INTERVAL)
                return records
            invoked = client.sim.now
            values = yield from client.pull([0])  # replicates key 0
            records.append(("pull", 0, invoked, client.sim.now, None, values[0, 0]))
            yield from client.barrier()
            push_id, value = tags[worker_id]
            update = np.zeros((1, 2))
            update[0, 0] = value
            invoked = client.sim.now
            yield from client.push([0], update)
            records.append(("push", 1, invoked, client.sim.now, push_id, None))
            yield from client.barrier()
            invoked = client.sim.now
            values = yield from client.pull([0])
            records.append(("pull", 2, invoked, client.sim.now, None, values[0, 0]))
            yield from client.barrier()
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

    def test_hot_key_loses_sequential_consistency(self):
        ps, history, _ = self._run_hot_key_history()
        assert ps.key_management(0) == "replication"
        assert not check_sequential(history).ok
        assert not check_eventual(history).ok

    def test_hot_key_keeps_eventual_and_session_guarantees(self):
        ps, history, quiesce_time = self._run_hot_key_history()
        assert check_eventual_after(history, quiesce_time).ok
        assert check_read_your_writes(history).ok

    def _run_cold_key_history(self):
        """Synchronous ops on a relocated key (relocation mid-history)."""
        ps = make_ps(num_nodes=3, num_keys=4, value_length=2, hot_key_threshold=10)
        tagger = UpdateTagger()
        tags = {worker: [tagger.next_update(), tagger.next_update()] for worker in (1, 2)}

        def worker_fn(client, worker_id):
            records = []
            if worker_id == 0:
                yield from client.barrier()
                return records
            sequence = 0
            if worker_id == 2:
                # Relocate the key mid-history.
                yield from client.localize([0])
            for push_id, value in tags[worker_id]:
                update = np.zeros((1, 2))
                update[0, 0] = value
                invoked = client.sim.now
                yield from client.push([0], update)
                records.append(("push", sequence, invoked, client.sim.now, push_id, None))
                sequence += 1
                invoked = client.sim.now
                values = yield from client.pull([0])
                records.append(("pull", sequence, invoked, client.sim.now, None, values[0, 0]))
                sequence += 1
            yield from client.barrier()
            return records

        history = History(key=0)
        for worker_id, records in enumerate(ps.run_workers(worker_fn)):
            for kind, sequence, invoked, completed, push_id, value in records:
                if kind == "push":
                    history.record_push(worker_id, sequence, invoked, completed, push_id)
                else:
                    history.record_pull(worker_id, sequence, invoked, completed, value)
        return ps, history

    def test_cold_key_retains_sequential_consistency(self):
        ps, history = self._run_cold_key_history()
        assert ps.key_management(0) == "relocation"
        assert ps.metrics().relocations >= 1
        result = check_sequential(history)
        assert result.ok, result.reason
        assert check_eventual(history).ok


class TestHybridMetrics:
    def test_both_technique_counters_populate(self):
        ps = make_ps(num_nodes=4, workers_per_node=2)

        def worker(client, worker_id):
            yield from client.pull([3])
            yield from client.pull([3])
            yield from client.localize([4 + worker_id])
            yield from client.push([3], np.ones((1, 4)))
            yield from client.push([4 + worker_id], np.ones((1, 4)))
            return None

        ps.run_workers(worker)
        metrics = ps.metrics()
        assert metrics.relocations > 0
        assert metrics.replica_creates > 0
        assert metrics.replica_sync_rounds > 0
        assert metrics.replica_sync_bytes > 0
        assert metrics.localize_calls > 0
        assert metrics.server_messages > 0

    def test_as_dict_reports_hybrid_counters(self):
        ps = make_ps()

        def worker(client, worker_id):
            yield from client.pull([0])
            return None

        ps.run_workers(worker)
        data = ps.metrics().as_dict()
        assert "relocations" in data
        assert "replica_creates" in data
        assert "server_messages" in data
