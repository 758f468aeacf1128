"""Message grouping (Lapse §3.7): one message per destination.

A multi-key pull or push sends the keys bound for one remote node in one
message, on every simulated system.  Worker 0 (node 0 of 3) names four keys
held by one remote owner or by two; the check counts the messages node 0
sends to each server, by type.
"""

from collections import Counter

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.experiments.runner import make_parameter_server
from repro.ml.common import needs_clock
from repro.simnet.node import server_address

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


@pytest.mark.parametrize(
    "keys, owners",
    [((4, 5, 6, 7), {1}), ((4, 9, 5, 8), {1, 2})],  # range partition: 0-3 | 4-7 | 8-11
    ids=["one-owner", "two-owners"],
)
@pytest.mark.parametrize("op_type", ["pull", "push"])
@pytest.mark.parametrize("system", SIM_SYSTEMS)
def test_multi_key_operation_sends_one_message_per_destination(
    system, op_type, keys, owners
):
    cluster = ClusterConfig(num_nodes=3, workers_per_node=1, seed=1)
    ps = make_parameter_server(
        system, cluster, ParameterServerConfig(num_keys=12, value_length=2)
    )
    servers = {server_address(node): node for node in range(cluster.num_nodes)}
    sent = Counter()
    send = ps.network.send

    def record(src, dst, payload, size, *args, **kwargs):
        if src == 0 and dst in servers:
            sent[servers[dst], type(payload).__name__] += 1
        return send(src, dst, payload, size, *args, **kwargs)

    ps.network.send = record

    def worker(client, worker_id):
        if worker_id == 0:
            if op_type == "pull":
                yield from client.pull(list(keys))
            else:
                yield from client.push(list(keys), np.ones((len(keys), 2)))
        if needs_clock(ps):
            yield from client.clock()
        yield from client.barrier()

    ps.run_workers(worker)
    assert owners <= {node for node, _ in sent}
    assert set(sent.values()) == {1}, sent
