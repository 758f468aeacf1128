"""Tests for the PAL techniques: data clustering, parameter blocking, latency hiding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, ParameterServerConfig
from repro.errors import ExperimentError
from repro.pal import (
    BlockSchedule,
    Prelocalizer,
    access_counts_by_node,
    assign_parameters_by_frequency,
    block_of_key,
    block_of_keys,
    clustering_localize_plan,
    keys_of_block,
)
from repro.ps import LapsePS


class TestDataClustering:
    def test_access_counts(self):
        counts = access_counts_by_node([[0, 0, 1], [2, 2, 2]], num_keys=4)
        assert counts.shape == (2, 4)
        assert counts[0, 0] == 2
        assert counts[1, 2] == 3

    def test_access_counts_validation(self):
        with pytest.raises(ExperimentError):
            access_counts_by_node([[5]], num_keys=4)
        with pytest.raises(ExperimentError):
            access_counts_by_node([[0]], num_keys=0)

    def test_assignment_prefers_most_frequent_node(self):
        counts = np.array([[5, 0, 1], [1, 3, 1]])
        assignment = assign_parameters_by_frequency(counts)
        assert assignment[0] == 0
        assert assignment[1] == 1

    def test_unaccessed_keys_spread_round_robin(self):
        counts = np.zeros((2, 4), dtype=int)
        assignment = assign_parameters_by_frequency(counts)
        assert set(assignment.tolist()) == {0, 1}

    def test_localize_plan(self):
        assignment = np.array([0, 1, 0, 1, 1])
        assert clustering_localize_plan(assignment, 0) == [0, 2]
        assert clustering_localize_plan(assignment, 1) == [1, 3, 4]
        with pytest.raises(ExperimentError):
            clustering_localize_plan(assignment, -1)

    def test_clustered_workload_is_mostly_local_on_lapse(self):
        """End to end: clustering + localize makes most accesses local."""
        cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
        ps = LapsePS(cluster, ParameterServerConfig(num_keys=10, value_length=2))
        # Node 0's data touches keys 0-4, node 1's data keys 5-9 (plus a little overlap).
        accesses = {0: [0, 1, 2, 3, 4, 4, 5], 1: [5, 6, 7, 8, 9, 9, 4]}
        counts = access_counts_by_node([accesses[0], accesses[1]], num_keys=10)
        assignment = assign_parameters_by_frequency(counts)

        def worker(client, worker_id):
            plan = clustering_localize_plan(assignment, client.node_id)
            if plan:
                yield from client.localize(plan)
            yield from client.barrier()
            for key in accesses[client.node_id]:
                yield from client.pull([key])
            return None

        ps.run_workers(worker)
        metrics = ps.metrics()
        assert metrics.local_read_fraction > 0.8


class TestParameterBlocking:
    def test_keys_of_block_partition_key_space(self):
        all_keys = []
        for block in range(3):
            all_keys.extend(keys_of_block(block, num_keys=10, num_blocks=3))
        assert sorted(all_keys) == list(range(10))

    def test_block_of_key_inverse(self):
        for key in range(10):
            block = block_of_key(key, num_keys=10, num_blocks=3)
            assert key in keys_of_block(block, 10, 3)

    @pytest.mark.parametrize(
        "num_keys, num_blocks", [(100, 6), (10, 3), (7, 7), (16, 4), (9, 1)]
    )
    def test_block_of_keys_agrees_with_the_scalar_maps(self, num_keys, num_blocks):
        blocks = block_of_keys(num_keys, num_blocks)
        assert blocks.dtype == np.int64 and blocks.shape == (num_keys,)
        for block in range(num_blocks):
            keys = keys_of_block(block, num_keys, num_blocks)
            assert np.flatnonzero(blocks == block).tolist() == keys
        assert blocks.tolist() == [
            block_of_key(key, num_keys, num_blocks) for key in range(num_keys)
        ]

    def test_block_of_keys_rejects_more_blocks_than_keys(self):
        with pytest.raises(ExperimentError):
            block_of_keys(2, 3)
        with pytest.raises(ExperimentError):
            block_of_key(0, 2, 3)  # as keys_of_block: no degenerate split

    def test_invalid_blocking(self):
        with pytest.raises(ExperimentError):
            keys_of_block(5, num_keys=10, num_blocks=3)
        with pytest.raises(ExperimentError):
            keys_of_block(0, num_keys=2, num_blocks=3)
        with pytest.raises(ExperimentError):
            block_of_key(11, num_keys=10, num_blocks=3)

    def test_schedule_rotation(self):
        schedule = BlockSchedule(num_workers=3)
        assert schedule.num_subepochs == 3
        assert schedule.assignment_table(0) == [0, 1, 2]
        assert schedule.assignment_table(1) == [1, 2, 0]

    def test_each_worker_sees_every_block_once_per_epoch(self):
        schedule = BlockSchedule(num_workers=4)
        for worker in range(4):
            blocks = {schedule.block_for(worker, s) for s in range(schedule.num_subepochs)}
            assert blocks == set(range(4))

    def test_schedule_validation(self):
        with pytest.raises(ExperimentError):
            BlockSchedule(num_workers=0)
        with pytest.raises(ExperimentError):
            BlockSchedule(num_workers=4, num_blocks=2)
        schedule = BlockSchedule(num_workers=2)
        with pytest.raises(ExperimentError):
            schedule.block_for(5, 0)
        with pytest.raises(ExperimentError):
            schedule.block_for(0, -1)

    @settings(max_examples=30, deadline=None)
    @given(
        num_workers=st.integers(min_value=1, max_value=8),
        num_keys=st.integers(min_value=8, max_value=64),
    )
    def test_property_schedule_is_conflict_free_and_covering(self, num_workers, num_keys):
        schedule = BlockSchedule(num_workers=num_workers)
        for subepoch in range(schedule.num_subepochs):
            assert len(set(schedule.assignment_table(subepoch))) == num_workers
            covered = []
            for worker in range(num_workers):
                covered.extend(schedule.keys_for(worker, subepoch, num_keys))
            assert len(covered) == len(set(covered))


class TestLatencyHiding:
    def _build(self):
        cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
        return LapsePS(cluster, ParameterServerConfig(num_keys=12, value_length=2))

    def test_prelocalizer_window(self):
        ps = self._build()

        def worker(client, worker_id):
            if worker_id != 0:
                return None
            prelocalizer = Prelocalizer(client, lookahead=1)
            data = [[6], [7], [8], [9]]
            prelocalizer.prime(data[0])
            pulled = []
            for index, keys in enumerate(data):
                if index + 1 < len(data):
                    prelocalizer.announce(data[index + 1])
                yield from prelocalizer.ready()
                values = yield from client.pull(keys)
                pulled.append(values[0].copy())
            return pulled
            yield

        results = ps.run_workers(worker)
        assert len(results[0]) == 4
        # After the run, all prelocalized keys belong to node 0.
        assert all(ps.current_owner(k) == 0 for k in (6, 7, 8, 9))

    def test_prelocalized_access_is_local(self):
        ps = self._build()

        def worker(client, worker_id):
            if worker_id != 0:
                return None
            prelocalizer = Prelocalizer(client)
            prelocalizer.prime([10])
            yield from prelocalizer.ready()
            local_before = ps.metrics().key_reads_local
            yield from client.pull([10])
            local_after = ps.metrics().key_reads_local
            return local_after - local_before

        results = ps.run_workers(worker)
        assert results[0] == 1

    def test_prelocalizer_validation(self):
        ps = self._build()
        client = ps.client(0, 0)
        with pytest.raises(ExperimentError):
            Prelocalizer(client, lookahead=0)
        prelocalizer = Prelocalizer(client)
        with pytest.raises(ExperimentError):
            next(prelocalizer.ready())

    def test_empty_announce_is_allowed(self):
        ps = self._build()

        def worker(client, worker_id):
            if worker_id != 0:
                return None
            prelocalizer = Prelocalizer(client)
            prelocalizer.announce([])
            yield from prelocalizer.ready()
            return "ok"

        assert ps.run_workers(worker)[0] == "ok"
