"""Integration tests for the classic parameter server (PS-Lite style)."""

import numpy as np
import pytest

from repro.config import ClusterConfig, CostModel, ParameterServerConfig, derive_seed
from repro.errors import ExperimentError, NetworkError, UnknownKeyError, UnsupportedOperationError
from repro.ps import ClassicIPCPS, ClassicPS, ClassicSharedMemoryPS
from repro.simnet.node import coordinator_address, server_address, van_address


def build_classic(num_nodes=2, workers_per_node=1, shared_memory=True, num_keys=8, value_length=2):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=1)
    ps_config = ParameterServerConfig(
        num_keys=num_keys,
        value_length=value_length,
        shared_memory_local_access=shared_memory,
    )
    initial = np.arange(num_keys * value_length, dtype=float).reshape(num_keys, value_length)
    return ClassicPS(cluster, ps_config, initial_values=initial), initial


class TestClassicPullPush:
    def test_pull_local_and_remote_values(self):
        ps, initial = build_classic()

        def worker(client, worker_id):
            values = yield from client.pull([0, 7])
            return values

        results = ps.run_workers(worker)
        for values in results:
            np.testing.assert_allclose(values[0], initial[0])
            np.testing.assert_allclose(values[1], initial[7])

    def test_push_is_cumulative_across_workers(self):
        ps, initial = build_classic(num_nodes=2, workers_per_node=2)

        def worker(client, worker_id):
            yield from client.push([3], np.ones((1, 2)))
            return None

        ps.run_workers(worker)
        np.testing.assert_allclose(ps.parameter(3), initial[3] + 4.0)

    def test_the_simulator_acknowledges_a_remote_push_without_needs_ack(self):
        """``push_async(needs_ack=False)`` still asks for an ack: the handle
        completes when it arrives, with the traffic of ``needs_ack=True``."""
        seen = []
        for needs_ack in (False, True):
            ps, _ = build_classic()

            def worker(client, worker_id, needs_ack=needs_ack, ps=ps):
                if worker_id == 0:  # key 7 lives on node 1
                    handle = client.push_async([7], np.ones((1, 2)), needs_ack=needs_ack)
                    yield handle.completion_event
                    return handle.done, ps.sim.now
                return None

            done = ps.run_workers(worker)[0]
            stats = ps.network.stats
            seen.append((done, stats.remote_messages, stats.bytes_sent, stats.per_channel_messages))
        assert seen[0] == seen[1]
        assert seen[0][0][0] and seen[0][1] == 2  # the request and its ack

    def test_pull_sees_prior_push_of_same_worker(self):
        ps, initial = build_classic()

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.push([5], np.full((1, 2), 10.0))
                values = yield from client.pull([5])
                return values[0]
            return None

        results = ps.run_workers(worker)
        np.testing.assert_allclose(results[0], initial[5] + 10.0)

    def test_async_pull_and_wait(self):
        ps, initial = build_classic()

        def worker(client, worker_id):
            handle = client.pull_async([1, 6])
            yield from client.wait(handle)
            return handle.values()

        results = ps.run_workers(worker)
        np.testing.assert_allclose(results[0][0], initial[1])
        np.testing.assert_allclose(results[0][1], initial[6])

    def test_async_push_without_ack_applies_eventually(self):
        ps, initial = build_classic()

        def worker(client, worker_id):
            client.push_async([7], np.ones((1, 2)), needs_ack=False)
            yield from client.barrier()
            return None

        ps.run_workers(worker)
        np.testing.assert_allclose(ps.parameter(7), initial[7] + 2.0)

    def test_localize_unsupported(self):
        ps, _ = build_classic()
        client = ps.client(0, 0)
        with pytest.raises(UnsupportedOperationError):
            client.localize_async([0])

    def test_unknown_key_rejected(self):
        ps, _ = build_classic()
        client = ps.client(0, 0)
        with pytest.raises(UnknownKeyError):
            client.pull_async([99])

    def test_empty_key_list_rejected(self):
        from repro.errors import ParameterServerError

        ps, _ = build_classic()
        client = ps.client(0, 0)
        with pytest.raises(ParameterServerError):
            client.pull_async([])


class TestClassicAccessModes:
    def test_single_node_sharedmem_faster_than_ipc(self):
        """Fast local access dominates on one node (paper §4.2: 71-91x)."""

        def run(ps_cls):
            cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
            ps = ps_cls(cluster, ParameterServerConfig(num_keys=16, value_length=2))

            def worker(client, worker_id):
                for key in range(16):
                    yield from client.pull([key])
                return None

            ps.run_workers(worker)
            return ps.simulated_time

        sharedmem_time = run(ClassicSharedMemoryPS)
        ipc_time = run(ClassicIPCPS)
        assert ipc_time / sharedmem_time > 20

    def test_remote_access_slower_than_local(self):
        ps, _ = build_classic(num_nodes=2)
        cluster_latency = ps.cluster.cost_model.network_latency

        def worker(client, worker_id):
            if worker_id == 0:
                start = client.sim.now
                yield from client.pull([0])  # local (node 0 owns low keys)
                local_time = client.sim.now - start
                start = client.sim.now
                yield from client.pull([7])  # remote
                remote_time = client.sim.now - start
                return local_time, remote_time
            return None

        results = ps.run_workers(worker)
        local_time, remote_time = results[0]
        assert remote_time > local_time
        assert remote_time >= 2 * cluster_latency

    def test_metrics_distinguish_local_and_remote(self):
        ps, _ = build_classic(num_nodes=2)

        def worker(client, worker_id):
            if worker_id == 0:
                yield from client.pull([0])
                yield from client.pull([7])
                yield from client.push([7], np.zeros((1, 2)))
            return None
            yield

        ps.run_workers(worker)
        metrics = ps.metrics()
        assert metrics.key_reads_local == 1
        assert metrics.key_reads_remote == 1
        assert metrics.key_writes_remote == 1
        assert metrics.pulls_local == 1
        assert metrics.pulls_remote == 1


class TestClassicModel:
    def test_all_parameters_shape(self):
        ps, initial = build_classic(num_keys=8, value_length=2)
        np.testing.assert_allclose(ps.all_parameters(), initial)

    def test_current_owner_is_static(self):
        ps, _ = build_classic(num_nodes=2, num_keys=8)
        owners_before = [ps.current_owner(k) for k in range(8)]

        def worker(client, worker_id):
            yield from client.pull([0, 7])
            return None

        ps.run_workers(worker)
        assert [ps.current_owner(k) for k in range(8)] == owners_before

    def test_barrier_synchronizes_workers(self):
        ps, _ = build_classic(num_nodes=2, workers_per_node=2)
        arrival_times = {}

        def worker(client, worker_id):
            yield float(worker_id) * 1e-3  # stagger arrivals
            yield from client.barrier()
            arrival_times[worker_id] = client.sim.now
            return None

        ps.run_workers(worker)
        times = list(arrival_times.values())
        assert max(times) - min(times) < 1e-3
        assert min(times) >= 3e-3

    def test_client_rng_is_per_seed_and_per_worker(self):
        def draws(seed):
            cluster = ClusterConfig(num_nodes=2, workers_per_node=2, seed=seed)
            ps = ClassicPS(cluster, ParameterServerConfig(num_keys=4, value_length=1))
            return {
                (node, local): tuple(ps.client(node, local).rng.integers(0, 1 << 30, size=4))
                for node in range(2)
                for local in range(2)
            }

        seven = draws(7)
        assert draws(7) == seven
        assert draws(8) != seven
        assert len(set(seven.values())) == 4
        for (node, local), drawn in seven.items():
            stream = np.random.default_rng(derive_seed(7, node, local + 1))
            assert drawn == tuple(stream.integers(0, 1 << 30, size=4))

    def test_client_of_an_invalid_node_or_worker_rejected(self):
        ps, _ = build_classic(num_nodes=2, workers_per_node=2)
        with pytest.raises(ExperimentError):
            ps.client(5, 0)
        with pytest.raises(ExperimentError):
            ps.client(0, 99)

    def test_every_node_registers_its_server_and_van_address(self):
        ps, _ = build_classic(num_nodes=3, workers_per_node=2)
        network = ps.network
        for node in range(3):
            assert network.node_of(server_address(node)) == node
            assert network.node_of(van_address(node)) == node
        assert network.node_of(coordinator_address()) == 0
        # Workers are answered through their node's van, not an inbox of their own.
        with pytest.raises(NetworkError):
            network.node_of(("worker", 0, 0))
