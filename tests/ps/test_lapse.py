"""Integration tests for Lapse: dynamic parameter allocation."""

import numpy as np
import pytest

from repro.backend import SharedDenseStorage
from repro.config import ClusterConfig, CostModel, ParameterServerConfig
from repro.ps import LapsePS


def build_lapse(
    num_nodes=3,
    workers_per_node=1,
    num_keys=12,
    value_length=2,
    location_caches=False,
    seed=1,
):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=seed)
    ps_config = ParameterServerConfig(
        num_keys=num_keys,
        value_length=value_length,
        location_caches=location_caches,
    )
    initial = np.arange(num_keys * value_length, dtype=float).reshape(num_keys, value_length)
    return LapsePS(cluster, ps_config, initial_values=initial), initial


class TestLapseBasicAccess:
    def test_pull_remote_key_returns_correct_value(self):
        ps, initial = build_lapse()

        def worker(client, worker_id):
            if worker_id == 0:
                values = yield from client.pull([11])  # homed on node 2
                return values[0]
            return None

        results = ps.run_workers(worker)
        np.testing.assert_allclose(results[0], initial[11])

    def test_push_remote_key_applies(self):
        ps, initial = build_lapse()

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.push([11], np.ones((1, 2)))
            return None
            yield

        ps.run_workers(worker)
        np.testing.assert_allclose(ps.parameter(11), initial[11] + 1.0)

    def test_pull_if_local(self):
        ps, initial = build_lapse()
        client = ps.client(0, 0)
        # Key 0 is homed (and initially owned) at node 0, key 11 at node 2.
        assert client.pull_if_local(11) is None
        np.testing.assert_allclose(client.pull_if_local(0), initial[0])


class TestLocalize:
    def test_localize_moves_ownership(self):
        ps, initial = build_lapse()
        assert ps.current_owner(8) == 2

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.localize([8])
            return None
            yield

        ps.run_workers(worker)
        assert ps.current_owner(8) == 0
        np.testing.assert_allclose(ps.parameter(8), initial[8])

    def test_localize_preserves_value_and_subsequent_access_is_local(self):
        ps, initial = build_lapse()

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.localize([8])
                remote_before = ps.network.stats.remote_messages
                values = yield from client.pull([8])
                yield from client.push([8], np.ones((1, 2)))
                remote_after = ps.network.stats.remote_messages
                return values[0], remote_before, remote_after
            return None

        results = ps.run_workers(worker)
        values, remote_before, remote_after = results[0]
        np.testing.assert_allclose(values, initial[8])
        assert remote_after == remote_before  # no network traffic after localize
        np.testing.assert_allclose(ps.parameter(8), initial[8] + 1.0)

    def test_localize_already_local_key_is_cheap(self):
        ps, _ = build_lapse()

        def worker(client, worker_id):
            if worker_id == 0:
                before = ps.network.stats.remote_messages
                yield from client.localize([0])  # homed and owned at node 0
                after = ps.network.stats.remote_messages
                return before, after
            return None

        results = ps.run_workers(worker)
        before, after = results[0]
        assert before == after

    def test_relocation_uses_three_messages(self):
        """Requester, home, and owner distinct: exactly 3 messages (Figure 4)."""
        ps, _ = build_lapse(num_nodes=3)
        # Key 4 is homed at node 1 (range partition of 12 keys over 3 nodes).
        assert ps.partitioner.node_of(4) == 1

        def worker(client, worker_id):
            if worker_id == 2:
                # First move key 4 to node 2 so that home (1) and owner (2) differ
                # from a later requester (0).
                yield from client.localize([4])
            yield from client.barrier()
            if worker_id == 0:
                before = ps.network.stats.remote_messages
                yield from client.localize([4])
                after = ps.network.stats.remote_messages
                return after - before
            return None

        results = ps.run_workers(worker)
        assert results[0] == 3

    def test_localize_multiple_keys_grouped(self):
        ps, initial = build_lapse()

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.localize([8, 9, 10, 11])
                values = yield from client.pull([8, 9, 10, 11])
                return values
            return None

        results = ps.run_workers(worker)
        np.testing.assert_allclose(results[0], initial[8:12])
        assert all(ps.current_owner(k) == 0 for k in (8, 9, 10, 11))

    def test_relocation_metrics_recorded(self):
        ps, _ = build_lapse()

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.localize([8, 9])
            return None
            yield

        ps.run_workers(worker)
        metrics = ps.metrics()
        assert metrics.relocations == 2
        assert metrics.localize_calls == 1
        assert metrics.localized_keys == 2
        assert metrics.relocation_time.count == 2
        assert metrics.relocation_time.mean > 0
        assert metrics.blocking_time.mean <= metrics.relocation_time.mean

    def test_async_localize(self):
        ps, initial = build_lapse()

        def worker(client, worker_id):
            if worker_id == 0:
                handle = client.localize_async([10])
                yield from client.wait(handle)
                values = yield from client.pull([10])
                return values[0]
            return None

        results = ps.run_workers(worker)
        np.testing.assert_allclose(results[0], initial[10])


class TestAccessDuringRelocation:
    def test_access_by_requester_during_relocation_is_queued_and_correct(self):
        ps, initial = build_lapse()

        def worker(client, worker_id):
            if worker_id == 0:
                handle = client.localize_async([8])
                # Immediately access the relocating key (async pull + push).
                pull_handle = client.pull_async([8])
                client.push_async([8], np.full((1, 2), 5.0))
                yield from client.wait(handle)
                yield from client.wait(pull_handle)
                return pull_handle.values()[0]
            return None

        results = ps.run_workers(worker)
        np.testing.assert_allclose(results[0], initial[8])
        np.testing.assert_allclose(ps.parameter(8), initial[8] + 5.0)
        assert ps.metrics().queued_ops >= 1

    def test_push_from_third_node_during_relocation_not_lost(self):
        ps, initial = build_lapse(num_nodes=3)

        def worker(client, worker_id):
            # Key 0 is homed and owned at node 0; node 2 localizes it while
            # node 1 pushes to it.
            if worker_id == 2:
                yield from client.localize([0])
            elif worker_id == 1:
                yield from client.push([0], np.ones((1, 2)))
            return None
            yield

        ps.run_workers(worker)
        np.testing.assert_allclose(ps.parameter(0), initial[0] + 1.0)
        assert ps.current_owner(0) == 2

    def test_localization_conflict_transfers_to_each_requester(self):
        """Two nodes localize the same key: each gets it once (§3.2)."""
        ps, initial = build_lapse(num_nodes=3)

        def worker(client, worker_id):
            if worker_id in (0, 1):
                yield from client.localize([8])
                yield from client.push([8], np.ones((1, 2)) * (worker_id + 1))
            return None
            yield

        ps.run_workers(worker)
        metrics = ps.metrics()
        assert metrics.relocations == 2
        # Both pushes must be applied exactly once regardless of the conflict.
        np.testing.assert_allclose(ps.parameter(8), initial[8] + 3.0)
        assert ps.current_owner(8) in (0, 1)

    def test_repeated_localize_ping_pong(self):
        ps, initial = build_lapse(num_nodes=2, num_keys=8)

        def worker(client, worker_id):
            for _ in range(5):
                yield from client.localize([3])
                yield from client.push([3], np.ones((1, 2)))
                yield from client.barrier()
            return None

        ps.run_workers(worker)
        np.testing.assert_allclose(ps.parameter(3), initial[3] + 10.0)


class TestLocationCaches:
    def test_cache_reduces_messages_for_repeated_remote_access(self):
        def run(caches):
            ps, _ = build_lapse(num_nodes=3, location_caches=caches)

            def worker(client, worker_id):
                # Key 11 is homed at node 2; node 1 localizes it first so that
                # the home node and the owner differ.  Node 0 then accesses it
                # repeatedly without localizing, so every access is remote and
                # must be routed (3 messages via the home node, 2 with a
                # correct location cache).
                if worker_id == 1:
                    yield from client.localize([11])
                yield from client.barrier()
                if worker_id == 0:
                    for _ in range(5):
                        yield from client.pull([11])
                return None

            ps.run_workers(worker)
            return ps.network.stats.remote_messages

        # With caches the 2nd..5th pulls go directly to the owner (2 messages)
        # instead of through the home node (3 messages).
        assert run(True) < run(False)

    def test_stale_cache_double_forward_still_correct(self):
        ps, initial = build_lapse(num_nodes=3, location_caches=True)

        def worker(client, worker_id):
            # Node 0 pulls key 8 (owned by node 2) to populate its cache;
            # then node 1 localizes key 8; node 0's cache is now stale.
            if worker_id == 0:
                yield from client.pull([8])
                yield from client.barrier()
                values = yield from client.pull([8])
                return values[0]
            if worker_id == 1:
                yield from client.pull([8])
                yield from client.barrier()
                yield from client.localize([8])
                yield from client.push([8], np.ones((1, 2)))
                return None
            yield from client.barrier()
            return None

        results = ps.run_workers(worker)
        # Node 0's second pull happened concurrently with the relocation and
        # push; whatever interleaving occurred, the value must be either the
        # original or the updated one, never garbage.
        value = results[0]
        assert np.allclose(value, initial[8]) or np.allclose(value, initial[8] + 1.0)
        assert ps.metrics().cache_hits > 0

    def test_cache_hits_counted(self):
        ps, _ = build_lapse(num_nodes=3, location_caches=True)

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.pull([11])
                yield from client.pull([11])
                yield from client.pull([11])
            return None
            yield

        ps.run_workers(worker)
        metrics = ps.metrics()
        assert metrics.cache_hits == 2
        assert metrics.cache_misses >= 1


class TestLapseSharedStorage:
    def test_shared_storage_end_to_end(self):
        """Relocation moves rows between the real backend's shared-memory
        stores exactly as between the simulator's own stores."""

        class SharedStoreLapsePS(LapsePS):
            def _new_storage(self):
                return SharedDenseStorage(self.ps_config.num_keys, self.ps_config.value_length)

        def worker(client, worker_id):
            yield from client.localize([worker_id])
            yield from client.push([worker_id], np.ones((1, 2)))
            values = yield from client.pull([worker_id])
            return values[0]

        reference, initial = build_lapse()
        expected = reference.run_workers(worker)
        cluster = ClusterConfig(num_nodes=3, workers_per_node=1, seed=1)
        ps = SharedStoreLapsePS(
            cluster, ParameterServerConfig(num_keys=12, value_length=2), initial_values=initial
        )
        try:
            results = ps.run_workers(worker)
            for worker_id, value in enumerate(results):
                np.testing.assert_allclose(value, initial[worker_id] + 1.0)
                np.testing.assert_array_equal(value, expected[worker_id])
            for node in range(3):
                assert isinstance(ps.states[node].storage, SharedDenseStorage)
                reference_keys, reference_values = reference.states[node].storage.snapshot()
                keys, values = ps.states[node].storage.snapshot()
                np.testing.assert_array_equal(keys, reference_keys)
                np.testing.assert_array_equal(values, reference_values)
        finally:
            for state in ps.states:
                state.storage.detach()


class TestLapseWithManyWorkers:
    def test_concurrent_workers_on_same_node_share_localized_keys(self):
        ps, initial = build_lapse(num_nodes=2, workers_per_node=3, num_keys=6)

        def worker(client, worker_id):
            if client.node_id == 0:
                yield from client.localize([5])
                yield from client.push([5], np.ones((1, 2)))
            return None
            yield

        ps.run_workers(worker)
        np.testing.assert_allclose(ps.parameter(5), initial[5] + 3.0)
        assert ps.current_owner(5) == 0

    def test_total_update_mass_conserved_under_random_workload(self):
        """Property-style stress test: random pulls/pushes/localizes never lose updates."""
        ps, initial = build_lapse(num_nodes=3, workers_per_node=2, num_keys=10, seed=3)
        pushes_per_worker = 15

        def worker(client, worker_id):
            rng = np.random.default_rng(worker_id)
            for _ in range(pushes_per_worker):
                key = int(rng.integers(0, 10))
                action = rng.random()
                if action < 0.3:
                    yield from client.localize([key])
                elif action < 0.6:
                    yield from client.pull([key])
                yield from client.push([key], np.ones((1, 2)))
            return None

        ps.run_workers(worker)
        total = ps.all_parameters().sum()
        expected = initial.sum() + 6 * pushes_per_worker * 2  # 6 workers, 2 entries/key
        assert total == pytest.approx(expected)
