"""One table of outstanding operations per node.

Every client operation gets one op id when it is issued
(:meth:`NodeState.register_handle`); its node's ``outstanding`` table holds
it under that id until it completes, every request sent for it carries the
id, and the van of the issuing node finds it there.
"""

from unittest import mock

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.experiments.runner import make_parameter_server
from repro.ml.common import needs_clock
from repro.ps.futures import OperationHandle
from repro.ps.messages import PullResponse, PushAck
from repro.ps.stale import StaleReplicaPolicy

SIM_SYSTEMS = (
    "classic",
    "classic_fast_local",
    "lapse",
    "stale_ssp",
    "stale_ssppush",
    "replica",
    "replica_clock",
    "hybrid",
)


def build(system, num_nodes=2, workers_per_node=2):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=1)
    config = ParameterServerConfig(num_keys=12, value_length=2)
    return make_parameter_server(system, cluster, config)


@pytest.mark.parametrize("system", SIM_SYSTEMS)
def test_each_handle_gets_an_op_id_unique_at_its_node_and_tables_end_empty(system):
    ps = build(system)
    issued = {node: [] for node in range(ps.cluster.num_nodes)}

    def worker(client, worker_id):
        table = client.state.outstanding
        handles = [
            client.pull_async([1, 7]),
            client.push_async([7, 1, 7], np.ones((3, 2))),
            client.pull_async([worker_id]),
        ]
        # Nothing completes before the worker yields: every handle is in its
        # node's table under its own id.
        for handle in handles:
            assert table[handle.op_id] is handle
        issued[client.node_id].extend(handle.op_id for handle in handles)
        yield from client.wait_all(handles)
        if needs_clock(ps):
            yield from client.clock()
        yield from client.barrier()

    ps.run_workers(worker)
    for node, op_ids in issued.items():
        assert len(op_ids) == 3 * ps.cluster.workers_per_node
        assert len(set(op_ids)) == len(op_ids), f"node {node} reused an op id"
    assert all(not state.outstanding for state in ps.states)


def response(op_type, op_id):
    if op_type == "pull":
        return PullResponse(op_id, (5,), np.full((1, 2), 3.0), 1)
    return PushAck(op_id, (5,), 1)


@pytest.mark.parametrize("op_type", ["pull", "push"])
@pytest.mark.parametrize("system", SIM_SYSTEMS)
def test_response_is_ignored_unless_its_op_id_is_outstanding_at_its_node(system, op_type):
    ps = build(system, workers_per_node=1)
    handle = OperationHandle(ps.sim, op_type, (5,), 2)
    ps.states[0].register_handle(handle)

    ps._handle_van_message(ps.states[0], response(op_type, handle.op_id + 1))
    ps._handle_van_message(ps.states[1], response(op_type, handle.op_id))
    assert not handle.done
    ps._handle_van_message(ps.states[0], response(op_type, handle.op_id))
    assert handle.done


@pytest.mark.parametrize("system", ["stale_ssp", "stale_ssppush"])
def test_stale_pull_over_two_owners_completes_through_two_fetches(system):
    fetched = []
    install = StaleReplicaPolicy._install_fetched

    def record(self, state, message):
        fetched.append((message.op_id, message.keys))
        install(self, state, message)

    with mock.patch.object(StaleReplicaPolicy, "_install_fetched", record):
        ps = build(system, num_nodes=3, workers_per_node=1)
    remote, remote_2 = 5, 9  # range partition over 3 nodes: 0-3 | 4-7 | 8-11
    expected = ps.all_parameters()[[remote, remote_2]]

    def worker(client, worker_id):
        result = None
        if worker_id == 0:
            handle = client.pull_async([remote, remote_2])
            assert client.state.outstanding[handle.op_id] is handle
            yield from client.wait(handle)
            assert handle.op_id not in client.state.outstanding
            result = handle
        yield from client.clock()
        yield from client.barrier()
        return result

    handle = ps.run_workers(worker)[0]
    np.testing.assert_array_equal(handle.values(), expected)
    # One fetch response per owner, each with that owner's keys only.
    assert sorted(fetched) == [(handle.op_id, (remote,)), (handle.op_id, (remote_2,))]
    assert set(ps.states[0].replicas) == {remote, remote_2}
