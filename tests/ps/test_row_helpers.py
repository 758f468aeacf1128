"""Tests for the row-selection helpers the batched operation paths share."""

import numpy as np

from repro.config import ClusterConfig, ParameterServerConfig
from repro.experiments import make_parameter_server
from repro.ps.base import KeyRows, copy_rows, first_missing, select_rows


def test_select_rows_views_a_single_row():
    updates = np.arange(6.0).reshape(3, 2)
    row = select_rows(updates, [1])
    assert row.shape == (1, 2)
    assert np.shares_memory(row, updates)
    np.testing.assert_array_equal(row, [[2.0, 3.0]])


def test_copy_rows_detaches_a_single_row():
    updates = np.arange(6.0).reshape(3, 2)
    row = copy_rows(updates, [1])
    updates[1] = -1.0  # the caller reuses its gradient buffer
    np.testing.assert_array_equal(row, [[2.0, 3.0]])


def test_several_rows_come_back_in_position_order_as_copies():
    updates = np.arange(8.0).reshape(4, 2)
    for helper in (select_rows, copy_rows):
        rows = helper(updates, [3, 0, 3])
        assert not np.shares_memory(rows, updates)
        np.testing.assert_array_equal(rows, updates[[3, 0, 3]])


def test_key_rows_keeps_every_occurrence_of_a_duplicate_key():
    group = KeyRows()
    for row, key in enumerate([5, 2, 5]):
        group.add(key, row)
    assert group.keys == [5, 2, 5]
    assert group.rows == [0, 1, 2]


def test_first_missing_names_the_first_key_the_node_does_not_hold():
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1)
    ps = make_parameter_server(
        "lapse", cluster, ParameterServerConfig(num_keys=4, value_length=2)
    )
    node0 = ps.states[0]
    assert first_missing(node0, [1, 0]) is None
    assert first_missing(node0, [0, 3, 2]) == 3
