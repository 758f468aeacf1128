"""Tests for metric counters and operation handles."""

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.errors import ParameterServerError
from repro.ps import ClassicSharedMemoryPS, LapsePS
from repro.ps.futures import OperationHandle, wait_all
from repro.ps.metrics import PSMetrics, RunningStat
from repro.simnet import Simulator


class TestRunningStat:
    def test_empty(self):
        stat = RunningStat()
        assert stat.count == 0
        assert stat.mean == 0.0

    def test_record_and_mean(self):
        stat = RunningStat()
        for value in (1.0, 2.0, 3.0):
            stat.record(value)
        assert stat.count == 3
        assert stat.mean == pytest.approx(2.0)
        assert stat.minimum == 1.0
        assert stat.maximum == 3.0

    def test_merge(self):
        a, b = RunningStat(), RunningStat()
        a.record(1.0)
        b.record(5.0)
        merged = a.merge(b)
        assert merged.count == 2
        assert merged.mean == pytest.approx(3.0)
        assert merged.minimum == 1.0
        assert merged.maximum == 5.0


class TestPSMetrics:
    def test_totals_and_fractions(self):
        metrics = PSMetrics(pulls_local=3, pulls_remote=1, key_reads_local=30, key_reads_remote=10)
        assert metrics.key_reads_total == 40
        assert metrics.local_read_fraction == pytest.approx(0.75)

    def test_key_accesses_total_counts_reads_and_writes(self):
        metrics = PSMetrics(
            key_reads_local=30, key_reads_remote=10, key_writes_local=5, key_writes_remote=2
        )
        assert metrics.key_accesses_total == 47

    def test_local_fraction_with_no_reads(self):
        assert PSMetrics().local_read_fraction == 1.0

    def test_merge_sums_counters(self):
        a = PSMetrics(pulls_local=1, relocations=2)
        b = PSMetrics(pulls_local=3, relocations=5)
        a.relocation_time.record(1.0)
        b.relocation_time.record(3.0)
        merged = a.merge(b)
        assert merged.pulls_local == 4
        assert merged.relocations == 7
        assert merged.relocation_time.mean == pytest.approx(2.0)

    def test_aggregate(self):
        parts = [PSMetrics(pushes_remote=i) for i in range(4)]
        total = PSMetrics.aggregate(parts)
        assert total.pushes_remote == 6

    def test_as_dict_contains_all_counters(self):
        data = PSMetrics().as_dict()
        assert "relocations" in data
        assert "mean_relocation_time" in data
        assert data["pulls_local"] == 0


class TestOperationHandle:
    def test_pull_completion_and_values(self):
        sim = Simulator()
        handle = OperationHandle(sim, "pull", [3, 1], value_length=2)
        assert not handle.done
        handle.complete_keys([1], np.array([[1.0, 2.0]]))
        assert not handle.done
        handle.complete_keys([3], np.array([[3.0, 4.0]]))
        sim.run()
        assert handle.done
        np.testing.assert_allclose(handle.values(), [[3.0, 4.0], [1.0, 2.0]])

    def test_single_value(self):
        sim = Simulator()
        handle = OperationHandle(sim, "pull", [7], value_length=3)
        handle.complete_keys([7], np.array([[1.0, 2.0, 3.0]]))
        sim.run()
        np.testing.assert_allclose(handle.value(), [1.0, 2.0, 3.0])

    def test_value_requires_single_key(self):
        sim = Simulator()
        handle = OperationHandle(sim, "pull", [1, 2], value_length=1)
        handle.complete_keys([1, 2], np.array([[1.0], [2.0]]))
        sim.run()
        with pytest.raises(ParameterServerError):
            handle.value()

    def test_push_has_no_values(self):
        sim = Simulator()
        handle = OperationHandle(sim, "push", [1], value_length=1)
        handle.complete_keys([1])
        sim.run()
        with pytest.raises(ParameterServerError):
            handle.values()

    def test_values_before_completion_raises(self):
        sim = Simulator()
        handle = OperationHandle(sim, "pull", [1], value_length=1)
        with pytest.raises(ParameterServerError):
            handle.values()
        with pytest.raises(ParameterServerError):
            _ = handle.latency

    def test_duplicate_completion_ignored(self):
        sim = Simulator()
        handle = OperationHandle(sim, "pull", [1], value_length=1)
        handle.complete_keys([1], np.array([[5.0]]))
        handle.complete_keys([1], np.array([[9.0]]))
        sim.run()
        np.testing.assert_allclose(handle.value(), [5.0])

    def test_mismatched_rows_rejected(self):
        sim = Simulator()
        handle = OperationHandle(sim, "pull", [1, 2], value_length=1)
        with pytest.raises(ParameterServerError):
            handle.complete_keys([1, 2], np.array([[1.0]]))

    def test_latency_measured_in_sim_time(self):
        sim = Simulator()
        handle = OperationHandle(sim, "pull", [1], value_length=1)

        def completer():
            yield 2.0
            handle.complete_keys([1], np.array([[1.0]]))

        sim.run_process(completer())
        assert handle.latency == pytest.approx(2.0)

    def test_wait_all(self):
        sim = Simulator()
        handles = [OperationHandle(sim, "push", [k], 1) for k in range(3)]

        def completer():
            for handle in handles:
                yield 1.0
                handle.complete_keys(handle.keys)

        def waiter():
            yield wait_all(sim, handles)
            return sim.now

        sim.process(completer())
        finished = sim.run_process(waiter())
        assert finished == pytest.approx(3.0)

    def test_wait_all_over_already_completed_handles(self):
        """wait_all must not block when every handle finished beforehand."""
        sim = Simulator()
        handles = [OperationHandle(sim, "push", [k], 1) for k in range(3)]
        for handle in handles:
            handle.complete_keys(handle.keys)
        assert all(handle.done for handle in handles)

        def waiter():
            yield wait_all(sim, handles)
            return sim.now

        finished = sim.run_process(waiter())
        assert finished == pytest.approx(0.0)

    def test_wait_all_empty_iterable(self):
        sim = Simulator()

        def waiter():
            yield wait_all(sim, [])
            return sim.now

        assert sim.run_process(waiter()) == pytest.approx(0.0)

    def test_client_wait_all_over_completed_handles(self):
        """The WorkerClient.wait_all generator path with done handles."""
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        ps = ClassicSharedMemoryPS(
            cluster, ParameterServerConfig(num_keys=4, value_length=2)
        )

        def worker(client, worker_id):
            handles = [client.push_async([k], np.ones((1, 2))) for k in range(3)]
            yield from client.wait_all(handles)
            assert all(handle.done for handle in handles)
            # A second wait over the same (now completed) handles returns
            # without yielding any pending event.
            yield from client.wait_all(handles)
            return client.sim.now

        results = ps.run_workers(worker)
        assert results[0] > 0.0

    def test_fail_then_complete_does_not_untrigger(self):
        """Double-completion protection: completing after fail keeps the failure."""
        sim = Simulator()
        handle = OperationHandle(sim, "push", [1], value_length=1)
        handle.fail(ParameterServerError("boom"))
        failed_at = handle.completed_at
        handle.complete_keys([1])
        assert handle.completed_at == failed_at

        def waiter():
            yield handle.completion_event
            return None

        with pytest.raises(ParameterServerError, match="boom"):
            sim.run_process(waiter())

    def test_fail_after_completion_is_ignored(self):
        sim = Simulator()
        handle = OperationHandle(sim, "pull", [1], value_length=1)
        handle.complete_keys([1], np.array([[7.0]]))
        completed_at = handle.completed_at
        handle.fail(ParameterServerError("too late"))
        sim.run()
        assert handle.completed_at == completed_at
        np.testing.assert_allclose(handle.value(), [7.0])

    def test_completion_event_fires_once_for_duplicates(self):
        sim = Simulator()
        handle = OperationHandle(sim, "push", [1, 2], value_length=1)
        fired = []
        handle.completion_event.callbacks.append(lambda _evt: fired.append(sim.now))
        handle.complete_keys([1])
        handle.complete_keys([2])
        handle.complete_keys([1])  # duplicate after full completion
        handle.complete_keys([2])
        sim.run()
        assert len(fired) == 1


class TestZeroKeyOperations:
    """Every primitive rejects an empty key list up front."""

    @pytest.fixture()
    def classic_ps(self):
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        return ClassicSharedMemoryPS(
            cluster, ParameterServerConfig(num_keys=4, value_length=2)
        )

    @pytest.fixture()
    def lapse_ps(self):
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        return LapsePS(cluster, ParameterServerConfig(num_keys=4, value_length=2))

    def test_zero_key_pull_and_push_rejected(self, classic_ps):
        client = classic_ps.client(0, 0)
        with pytest.raises(ParameterServerError, match="at least one key"):
            client.pull_async([])
        with pytest.raises(ParameterServerError, match="at least one key"):
            client.push_async([], np.zeros((0, 2)))
        # Generators inherit the check on their first step.
        with pytest.raises(ParameterServerError, match="at least one key"):
            next(client.pull([]))

    def test_zero_key_pull_rejected_for_iterators(self, classic_ps):
        client = classic_ps.client(0, 0)
        with pytest.raises(ParameterServerError, match="at least one key"):
            client.pull_async(iter([]))
        with pytest.raises(ParameterServerError, match="at least one key"):
            client.pull_async(np.array([], dtype=np.int64))

    def test_zero_key_localize_rejected(self, lapse_ps):
        client = lapse_ps.client(0, 0)
        with pytest.raises(ParameterServerError, match="at least one key"):
            client.localize_async([])
