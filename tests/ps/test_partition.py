"""Unit and property-based tests for key partitioners and the hot-key policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.ps.partition import AccessCountHotKeyPolicy, RangePartitioner


class TestRangePartitioner:
    def test_balanced_ranges(self):
        part = RangePartitioner(num_keys=10, num_nodes=3)
        sizes = [len(part.keys_of(node)) for node in range(3)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_ranges(self):
        part = RangePartitioner(num_keys=100, num_nodes=4)
        for node in range(4):
            keys = part.keys_of(node)
            assert keys == list(range(keys[0], keys[-1] + 1))

    def test_node_of_matches_keys_of(self):
        part = RangePartitioner(num_keys=17, num_nodes=5)
        for node in range(5):
            for key in part.keys_of(node):
                assert part.node_of(key) == node

    def test_range_of(self):
        part = RangePartitioner(num_keys=8, num_nodes=2)
        assert part.range_of(0) == (0, 4)
        assert part.range_of(1) == (4, 8)

    def test_single_node_owns_everything(self):
        part = RangePartitioner(num_keys=5, num_nodes=1)
        assert all(part.node_of(k) == 0 for k in range(5))

    def test_more_nodes_than_keys(self):
        part = RangePartitioner(num_keys=2, num_nodes=4)
        covered = {part.node_of(k) for k in range(2)}
        assert len(covered) == 2

    def test_empty_ranges_when_nodes_exceed_keys(self):
        """Nodes beyond the key count get empty (but valid) ranges."""
        part = RangePartitioner(num_keys=3, num_nodes=5)
        assert part.keys_of(3) == []
        assert part.keys_of(4) == []
        for node in (3, 4):
            start, end = part.range_of(node)
            assert start == end
        # Every key is still covered exactly once.
        all_keys = [key for node in range(5) for key in part.keys_of(node)]
        assert sorted(all_keys) == [0, 1, 2]

    def test_single_key_single_node(self):
        part = RangePartitioner(num_keys=1, num_nodes=1)
        assert part.node_of(0) == 0
        assert part.keys_of(0) == [0]
        assert part.range_of(0) == (0, 1)

    def test_invalid_arguments(self):
        with pytest.raises(PartitionError):
            RangePartitioner(0, 1)
        with pytest.raises(PartitionError):
            RangePartitioner(1, 0)
        part = RangePartitioner(4, 2)
        with pytest.raises(PartitionError):
            part.node_of(7)
        with pytest.raises(PartitionError):
            part.keys_of(9)


    def test_nodes_of_rejects_out_of_range_keys(self):
        part = RangePartitioner(num_keys=8, num_nodes=2)
        with pytest.raises(PartitionError, match="key 8 out of range"):
            part.nodes_of([0, 8, -1])
        with pytest.raises(PartitionError, match="key -1 out of range"):
            part.nodes_of([3, -1])
        # Large batches reach the vectorized check through nodes_of_list.
        big = RangePartitioner(num_keys=200, num_nodes=3)
        with pytest.raises(PartitionError, match="key 200 out of range"):
            big.nodes_of_list(list(range(100)) + [200])


class TestHotKeyPolicies:
    def test_access_count_threshold_boundary(self):
        policy = AccessCountHotKeyPolicy(threshold=3)
        assert not policy.is_hot(7)
        policy.record_access(7)
        policy.record_access(7)
        assert not policy.is_hot(7)  # one below the threshold
        policy.record_access(7)
        assert policy.is_hot(7)  # exactly at the threshold
        policy.record_access(7)
        assert policy.is_hot(7)  # and beyond
        assert not policy.is_hot(8)

    def test_access_counts_are_per_key(self):
        policy = AccessCountHotKeyPolicy(threshold=2)
        policy.record_access(1)
        policy.record_access(2)
        assert not policy.is_hot(1) and not policy.is_hot(2)
        policy.record_access(1)
        assert policy.is_hot(1)
        assert not policy.is_hot(2)

    def test_threshold_one_is_eager(self):
        policy = AccessCountHotKeyPolicy(threshold=1)
        policy.record_access(0)
        assert policy.is_hot(0)

    def test_is_hot_does_not_count_an_access(self):
        policy = AccessCountHotKeyPolicy(threshold=2)
        policy.record_access(5)
        for _ in range(3):
            assert not policy.is_hot(5)
        policy.record_access(5)
        assert policy.is_hot(5)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(PartitionError):
            AccessCountHotKeyPolicy(threshold=0)
        with pytest.raises(PartitionError):
            AccessCountHotKeyPolicy(threshold=-1)


@settings(max_examples=50, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=200),
    num_nodes=st.integers(min_value=1, max_value=16),
)
def test_property_every_key_has_exactly_one_node(num_keys, num_nodes):
    part = RangePartitioner(num_keys, num_nodes)
    for key in range(num_keys):
        node = part.node_of(key)
        assert 0 <= node < num_nodes


@settings(max_examples=50, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=300),
    num_nodes=st.integers(min_value=1, max_value=16),
)
def test_property_closed_form_node_of_matches_vectorized_nodes_of(num_keys, num_nodes):
    """``node_of`` is closed-form arithmetic, ``nodes_of`` a binary search over
    range starts: the two must agree on every key, empty ranges included."""
    part = RangePartitioner(num_keys, num_nodes)
    keys = list(range(num_keys))
    assert part.nodes_of(keys).tolist() == [part.node_of(key) for key in keys]


@settings(max_examples=30, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=100),
    num_nodes=st.integers(min_value=1, max_value=8),
)
def test_property_keys_of_partitions_key_space(num_keys, num_nodes):
    part = RangePartitioner(num_keys, num_nodes)
    all_keys = []
    for node in range(num_nodes):
        all_keys.extend(part.keys_of(node))
    assert sorted(all_keys) == list(range(num_keys))


# --------------------------------------------------------------------- elastic
class TestElasticPartitioner:
    def test_initial_assignment_matches_base_kind(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(20, 4)
        base = RangePartitioner(20, 4)
        for key in range(20):
            assert elastic.node_of(key) == base.node_of(key)
        assert elastic.epoch == 0
        assert elastic.active_nodes == [0, 1, 2, 3]

    def test_restricted_active_set(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(12, 4, active_nodes=[0, 2])
        assert elastic.active_nodes == [0, 2]
        assert set(elastic.nodes_of(list(range(12))).tolist()) == {0, 2}
        assert elastic.keys_of(1) == []
        assert elastic.keys_of(3) == []

    def test_active_subset_is_range_partitioned_in_node_order(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(12, 5, active_nodes=[4, 1, 2])
        assert elastic.active_nodes == [1, 2, 4]
        assert elastic.keys_of(1) == [0, 1, 2, 3]
        assert elastic.keys_of(2) == [4, 5, 6, 7]
        assert elastic.keys_of(4) == [8, 9, 10, 11]

    def test_single_node_cluster(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(7, 1)
        assert elastic.keys_of(0) == list(range(7))
        assert elastic.nodes_of_list(range(7)) == [0] * 7
        # A single-node active set inside a larger capacity works the same.
        wide = ElasticPartitioner(7, 3, active_nodes=[0])
        assert wide.keys_of(0) == list(range(7))

    def test_empty_key_ranges_when_actives_exceed_keys(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(2, 5)
        sizes = [len(elastic.keys_of(node)) for node in range(5)]
        assert sum(sizes) == 2
        assert sizes.count(0) == 3  # three nodes hold empty (but valid) ranges
        for node in range(5):
            assert isinstance(elastic.keys_of(node), list)

    def test_join_moves_only_to_new_node(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(12, 3, active_nodes=[0, 1])
        moves = elastic.rebalance([0, 1, 2])
        assert elastic.epoch == 1
        assert all(new == 2 for _key, _old, new in moves)
        sizes = [len(elastic.keys_of(node)) for node in range(3)]
        assert sum(sizes) == 12
        assert max(sizes) - min(sizes) <= 1

    def test_drain_moves_only_from_departing_node(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(12, 3)
        moves = elastic.rebalance([0, 2])
        assert all(old == 1 for _key, old, _new in moves)
        assert elastic.keys_of(1) == []
        sizes = [len(elastic.keys_of(node)) for node in (0, 2)]
        assert max(sizes) - min(sizes) <= 1

    def test_survivors_shed_their_highest_keys(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(12, 3, active_nodes=[0, 1])
        moves = elastic.rebalance([0, 1, 2])
        assert elastic.keys_of(0) == [0, 1, 2, 3]
        assert elastic.keys_of(1) == [6, 7, 8, 9]
        assert elastic.keys_of(2) == [4, 5, 10, 11]
        assert moves == [(4, 0, 2), (5, 0, 2), (10, 1, 2), (11, 1, 2)]

    def test_rebalance_moves_agree_with_both_epochs(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(30, 4, active_nodes=[0, 1, 2])
        elastic.rebalance([1, 2, 3])
        before = [elastic.node_of(key) for key in range(30)]
        moves = elastic.rebalance([0, 2, 3])
        moved = [key for key, _old, _new in moves]
        assert moved == sorted(moved)
        for key, old, new in moves:
            assert old != new
            assert (elastic.previous_node_of(key), elastic.node_of(key)) == (old, new)
        for key in set(range(30)) - set(moved):
            assert elastic.node_of(key) == elastic.previous_node_of(key) == before[key]

    def test_nodes_of_rejects_negative_keys(self):
        """The lookup indexes an array, where ``-1`` would silently read the
        last key's node; the bounds check must reject it instead."""
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(10, 2)
        with pytest.raises(PartitionError, match="key -1 out of range"):
            elastic.nodes_of([0, -1])
        with pytest.raises(PartitionError, match="key 10 out of range"):
            elastic.nodes_of([10])

    def test_previous_node_of_reports_stale_epoch(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(10, 2)
        before = {key: elastic.node_of(key) for key in range(10)}
        moves = elastic.rebalance([0])
        assert moves  # node 1's keys moved to node 0
        for key in range(10):
            assert elastic.previous_node_of(key) == before[key]
            assert elastic.node_of(key) == 0

    def test_nodes_of_vs_nodes_of_list_parity_across_epoch_bump(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(40, 4, active_nodes=[0, 1, 2])
        keys = list(range(40))
        small = keys[:5]  # below the pure-Python small-batch threshold
        for _epoch in range(3):
            assert elastic.nodes_of(keys).tolist() == elastic.nodes_of_list(keys)
            assert elastic.nodes_of(small).tolist() == elastic.nodes_of_list(small)
            assert [elastic.node_of(key) for key in keys] == elastic.nodes_of(keys).tolist()
            if elastic.epoch == 0:
                elastic.rebalance([0, 1, 2, 3])
            else:
                elastic.rebalance([0, 2, 3])

    def test_rebalance_without_change_is_a_noop_move_list(self):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(10, 2)
        assert elastic.rebalance([0, 1]) == []

    def test_validation(self):
        from repro.ps.partition import ElasticPartitioner

        with pytest.raises(PartitionError):
            ElasticPartitioner(10, 2, active_nodes=[])
        with pytest.raises(PartitionError):
            ElasticPartitioner(10, 2, active_nodes=[0, 0])
        with pytest.raises(PartitionError):
            ElasticPartitioner(10, 2, active_nodes=[0, 7])
        elastic = ElasticPartitioner(10, 2)
        with pytest.raises(PartitionError):
            elastic.rebalance([5])
        with pytest.raises(PartitionError):
            elastic.node_of(10)
        with pytest.raises(PartitionError):
            elastic.previous_node_of(-1)

    @settings(max_examples=30, deadline=None)
    @given(
        num_keys=st.integers(min_value=1, max_value=120),
        capacity=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_property_rebalance_partitions_key_space(self, num_keys, capacity, data):
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(num_keys, capacity)
        for _round in range(3):
            active = data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=capacity - 1),
                    min_size=1,
                    max_size=capacity,
                )
            )
            elastic.rebalance(sorted(active))
            gathered = []
            for node in range(capacity):
                gathered.extend(elastic.keys_of(node))
            assert sorted(gathered) == list(range(num_keys))
            sizes = [len(elastic.keys_of(node)) for node in sorted(active)]
            assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=30, deadline=None)
    @given(
        num_keys=st.integers(min_value=1, max_value=120),
        capacity=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_property_survivors_keep_their_quota_of_keys(self, num_keys, capacity, data):
        """Movement-minimizing: a node active before and after a rebalance keeps
        its lowest keys up to its new balanced quota and loses only the rest."""
        from repro.ps.partition import ElasticPartitioner

        elastic = ElasticPartitioner(num_keys, capacity)
        for _round in range(3):
            active = sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=capacity - 1),
                        min_size=1,
                        max_size=capacity,
                    )
                )
            )
            held = {node: elastic.keys_of(node) for node in elastic.active_nodes}
            elastic.rebalance(active)
            base, remainder = divmod(num_keys, len(active))
            for index, node in enumerate(active):
                if node not in held:
                    continue
                quota = base + (1 if index < remainder else 0)
                lost = set(held[node]) - set(elastic.keys_of(node))
                assert lost == set(held[node][quota:])
