"""Server processes live from the first run to shutdown; workers for one run.

The first ``run_workers`` forks the servers; later runs talk to the same
processes (a run ends with ``sync``, not ``stop``); ``shutdown()``, leaving
the ``with`` block and dropping the last reference each stop them; a failed
run discards the whole group and the next run forks a fresh one.
"""

import gc
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.errors import ParameterServerError
from repro.experiments.runner import make_parameter_server
from repro.ps.base import ClusterConfig, ParameterServerConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the real backend requires the fork start method",
)

NUM_KEYS = 8  # range partition over 2 nodes: 0-3 | 4-7
LENGTH = 2


def _server():
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=NUM_KEYS, value_length=LENGTH)
    return make_parameter_server("lapse", cluster, ps_config, backend="real")


def _move_and_push(client, worker_id):
    """Each worker pulls every key over to its node and adds one to it."""
    keys = list(range(NUM_KEYS))
    yield from client.localize(keys)
    yield from client.push(keys, np.ones((NUM_KEYS, LENGTH)))
    return os.getpid()


def _children():
    """name -> pid of this process's live children (between runs: the servers)."""
    return {child.name: child.pid for child in multiprocessing.active_children()}


def _gone(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):  # not even a zombie
            os.kill(pid, 0)
    return True


def test_servers_outlive_runs_and_workers_do_not():
    ps = _server()
    assert _children() == {}  # set-up forks nothing
    worker_pids = set()
    servers = None
    expected = 0.0
    for round_number in (1, 2, 3):
        worker_pids.update(ps.run_workers(_move_and_push))
        if servers is None:
            servers = _children()
        assert _children() == servers and sorted(servers) == ["server-0", "server-1"]
        expected += 2.0
        np.testing.assert_array_equal(ps.all_parameters(), expected)
        assert ps.metrics().localize_calls == 2 * round_number  # deltas, not totals, came home
        # Between runs the parent sees where the keys went and may write their
        # values: the servers' stores are these shared blocks.
        for key in range(NUM_KEYS):
            holders = [node for node, state in enumerate(ps.states) if key in state.storage]
            assert holders == [ps.current_owner(key)]
            ps.states[holders[0]].storage.add_many([key], np.ones((1, LENGTH)))
        expected += 1.0
    assert len(worker_pids) == 6  # a fork per worker and run
    ps.shutdown()
    assert _children() == {} and _gone(servers.values())
    ps.shutdown()  # idempotent


def test_leaving_the_with_block_stops_the_servers():
    with _server() as ps:
        ps.run_workers(_move_and_push)
        servers = _children()
        assert len(servers) == 2
    assert _children() == {} and _gone(servers.values())


def test_dropping_the_last_reference_stops_the_servers():
    ps = _server()
    ps.run_workers(_move_and_push)
    servers = _children()
    assert len(servers) == 2
    del ps
    gc.collect()  # the runtime's object graph has cycles
    assert _children() == {} and _gone(servers.values())


def test_failed_run_discards_the_group_and_the_next_run_starts_a_fresh_one():
    def killed(client, worker_id):
        yield from client.barrier()
        if worker_id == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        while True:  # no key moves: the parent's tables stay true
            yield from client.pull([0, 7])

    with _server() as ps:
        ps.run_workers(_move_and_push)
        first = _children()
        with pytest.raises(ParameterServerError, match="worker-0"):
            ps.run_workers(killed)
        assert _children() == {} and _gone(first.values())
        ps.run_workers(_move_and_push)
        second = _children()
        assert sorted(second) == ["server-0", "server-1"]
        assert not set(second.values()) & set(first.values())
        np.testing.assert_array_equal(ps.all_parameters(), 4.0)
        assert ps.metrics().relocations > 0
