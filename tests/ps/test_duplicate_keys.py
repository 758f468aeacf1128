"""A key named twice in one operation carries one row per occurrence.

``add_many`` accumulates duplicate keys, and the client API promises the same
for ``push``: every row of ``updates`` is applied to the key at its position.
Pulls return one row per requested position.  Checked on every simulator
system for local, remote and mid-relocation keys, and on the real backend.
"""

import multiprocessing

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.experiments.runner import make_parameter_server
from repro.ml.common import needs_clock

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
RELOCATING_SYSTEMS = ("lapse", "hybrid")

NUM_KEYS = 12  # range partition over 3 nodes: 0-3 | 4-7 | 8-11
LENGTH = 2
LOCAL, LOCAL_2, REMOTE, REMOTE_2 = 1, 2, 5, 9

#: Rows chosen so that "last row applied twice" and "first row dropped" give
#: sums different from the correct one.
ROWS = np.array(
    [[1.0, 2.0], [10.0, 20.0], [100.0, 200.0], [1000.0, 2000.0], [1e4, 2e4]]
)


def build(system, backend="sim", **config):
    cluster = ClusterConfig(num_nodes=3, workers_per_node=1, seed=1)
    ps_config = ParameterServerConfig(num_keys=NUM_KEYS, value_length=LENGTH, **config)
    return make_parameter_server(system, cluster, ps_config, backend=backend)


def run_on_worker_zero(ps, body):
    """Run ``body(client)`` on worker 0; everyone synchronizes afterwards."""

    def worker(client, worker_id):
        result = None
        if worker_id == 0:
            result = yield from body(client)
        if needs_clock(ps):
            yield from client.clock()
        yield from client.barrier()
        return result

    return ps.run_workers(worker)[0]


def expected_growth(keys):
    growth = np.zeros((NUM_KEYS, LENGTH))
    np.add.at(growth, list(keys), ROWS[: len(keys)])
    return growth


@pytest.mark.parametrize("system", SIM_SYSTEMS)
@pytest.mark.parametrize(
    "keys",
    [
        (LOCAL, LOCAL),
        (REMOTE, REMOTE),
        (LOCAL, REMOTE, LOCAL, REMOTE),
        (REMOTE, REMOTE_2, REMOTE_2, REMOTE),
        (LOCAL, LOCAL_2, LOCAL, LOCAL),
    ],
    ids=["local", "remote", "mixed", "two-remote-owners", "local-triple"],
)
def test_push_applies_every_row(system, keys):
    ps = build(system)

    def body(client):
        yield from client.push(list(keys), ROWS[: len(keys)])

    run_on_worker_zero(ps, body)
    np.testing.assert_array_equal(ps.all_parameters(), expected_growth(keys))
    # Every response found its handle, and every handle left its node's table.
    assert all(not state.outstanding for state in ps.states)


@pytest.mark.parametrize("system", SIM_SYSTEMS)
def test_pull_returns_one_row_per_position(system):
    ps = build(system)
    keys = [REMOTE, LOCAL, REMOTE, LOCAL, REMOTE_2]

    def body(client):
        yield from client.push([LOCAL, REMOTE, REMOTE_2], ROWS[:3])
        if needs_clock(ps):
            yield from client.clock()
        return (yield from client.pull(keys))

    values = run_on_worker_zero(ps, body)
    by_key = {LOCAL: ROWS[0], REMOTE: ROWS[1], REMOTE_2: ROWS[2]}
    np.testing.assert_array_equal(values, np.array([by_key[key] for key in keys]))


@pytest.mark.parametrize("system", ("replica", "hybrid"))
def test_push_to_replicated_key_applies_every_row(system):
    ps = build(system, hot_key_threshold=2)

    def body(client):
        for _ in range(3):  # hot after at most two reads: installs the replica
            yield from client.pull([REMOTE])
        yield from client.push([REMOTE, LOCAL, REMOTE], ROWS[:3])

    run_on_worker_zero(ps, body)
    assert ps.metrics().replica_writes == 2
    np.testing.assert_array_equal(
        ps.all_parameters(), expected_growth((REMOTE, LOCAL, REMOTE))
    )


@pytest.mark.parametrize("system", RELOCATING_SYSTEMS)
def test_push_to_key_in_relocation_applies_every_row(system):
    """Worker-side queue: the key is on its way to the pushing node."""
    ps = build(system)
    keys = (REMOTE, LOCAL, REMOTE, REMOTE_2, REMOTE)

    def body(client):
        localize = client.localize_async([REMOTE])
        push = client.push_async(list(keys), ROWS[: len(keys)], needs_ack=True)
        yield from client.wait_all([localize, push])

    run_on_worker_zero(ps, body)
    assert ps.metrics().queued_ops == 3
    assert ps.current_owner(REMOTE) == 0
    np.testing.assert_array_equal(ps.all_parameters(), expected_growth(keys))


@pytest.mark.parametrize("system", RELOCATING_SYSTEMS)
def test_remote_push_queued_at_new_owner_applies_every_row(system):
    """Server-side queue: the request overtakes the relocation transfer.

    ``REMOTE_2`` (home node 2) first moves to node 1.  Node 0 then localizes
    it (3 messages: home, owner, transfer) while the worker of the home node
    pushes it twice in one operation; the home table already names node 0, so
    the push takes one hop and waits there for the transfer.
    """
    ps = build(system)
    latency = ps.cluster.cost_model.network_latency

    def worker(client, worker_id):
        if worker_id == 1:
            yield from client.localize([REMOTE_2])
        yield from client.barrier()
        if worker_id == 0:
            yield from client.localize([REMOTE_2])
        elif worker_id == 2:
            # Node 0 hosts the barrier coordinator and left the barrier one
            # latency earlier: by now the home has handled its request.
            yield 0.5 * latency
            yield from client.push([REMOTE_2, REMOTE, REMOTE_2], ROWS[:3])
        yield from client.barrier()

    ps.run_workers(worker)
    assert ps.metrics().queued_ops == 2
    assert ps.current_owner(REMOTE_2) == 0
    np.testing.assert_array_equal(
        ps.all_parameters(), expected_growth((REMOTE_2, REMOTE, REMOTE_2))
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the real backend requires the fork start method",
)
@pytest.mark.parametrize("system", ("classic", "classic_fast_local", "lapse"))
def test_real_backend_client_api(system):
    keys = [REMOTE, LOCAL, REMOTE, LOCAL, REMOTE_2]
    with build(system, backend="real") as ps:

        def worker(client, worker_id):
            values = None
            if worker_id == 0:
                yield from client.push(keys[:4], ROWS[:4])
                values = yield from client.pull(keys)
            yield from client.barrier()
            return values

        values = ps.run_workers(worker)[0]
        stored = ps.all_parameters()
    growth = expected_growth(keys[:4])
    np.testing.assert_array_equal(stored, growth)
    np.testing.assert_array_equal(values, growth[keys])
