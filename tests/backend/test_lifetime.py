"""Server processes live from the first run to shutdown; workers as long as
the function they run.

The first ``run_workers`` forks the servers; later runs talk to the same
processes (a run ends with ``sync``, not ``stop``).  A run forks one worker
per client unless the previous run passed the very same ``worker_fn`` on the
same clients: that cohort is told to go again.  ``shutdown()``, leaving the
``with`` block and dropping the last reference each stop servers and
workers; a failed run discards every child and the next run forks afresh.
"""

import gc
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.data import generate_matrix
from repro.errors import ParameterServerError
from repro.experiments.runner import make_parameter_server
from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer
from repro.ps.base import ClusterConfig, ParameterServerConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the real backend requires the fork start method",
)

NUM_KEYS = 8  # range partition over 2 nodes: 0-3 | 4-7
LENGTH = 2
PROCESSES = ["server-0", "server-1", "worker-0", "worker-1"]


def _server(backend="real", num_keys=NUM_KEYS, length=LENGTH):
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=num_keys, value_length=length)
    return make_parameter_server("lapse", cluster, ps_config, backend=backend)


def _move_and_push(client, worker_id):
    """Each worker pulls every key over to its node and adds one to it."""
    keys = list(range(NUM_KEYS))
    yield from client.localize(keys)
    yield from client.push(keys, np.ones((NUM_KEYS, LENGTH)))
    return os.getpid()


class _Task:
    def epoch(self, client, worker_id):
        return (yield from _move_and_push(client, worker_id))


def _children():
    """name -> pid of this process's live children."""
    return {child.name: child.pid for child in multiprocessing.active_children()}


def _workers():
    return {name: pid for name, pid in _children().items() if name.startswith("worker")}


def _gone(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):  # not even a zombie
            os.kill(pid, 0)
    return True


def test_servers_and_workers_of_one_callable_outlive_runs():
    ps = _server()
    assert _children() == {}  # set-up forks nothing
    worker_pids = set()
    children = None
    expected = 0.0
    for round_number in (1, 2, 3):
        worker_pids.update(ps.run_workers(_move_and_push))
        if children is None:
            children = _children()
        assert _children() == children and sorted(children) == PROCESSES
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
    assert worker_pids == {children["worker-0"], children["worker-1"]}  # one fork per worker
    ps.shutdown()
    assert _children() == {} and _gone(children.values())
    ps.shutdown()  # idempotent


def test_a_new_callable_forks_new_workers_and_reaps_the_old():
    task = _Task()
    with _server() as ps:
        servers, previous = None, set()
        for round_number in (1, 2, 3, 4):
            if round_number % 2:
                worker_fn = task.epoch  # a bound method, fetched anew
            else:
                def worker_fn(client, worker_id):  # a fresh closure
                    return (yield from _move_and_push(client, worker_id))

            pids = set(ps.run_workers(worker_fn))
            children = _children()
            assert sorted(children) == PROCESSES
            assert {children["worker-0"], children["worker-1"]} == pids
            assert not pids & previous and _gone(previous)
            servers = servers or (children["server-0"], children["server-1"])
            assert (children["server-0"], children["server-1"]) == servers
            previous = pids
            np.testing.assert_array_equal(ps.all_parameters(), 2.0 * round_number)
            assert ps.metrics().localize_calls == 2 * round_number


def test_leaving_the_with_block_stops_servers_and_workers():
    with _server() as ps:
        ps.run_workers(_move_and_push)
        children = _children()
        assert sorted(children) == PROCESSES
    assert _children() == {} and _gone(children.values())


def test_dropping_the_last_reference_stops_servers_and_workers():
    ps = _server()
    ps.run_workers(_move_and_push)
    children = _children()
    assert sorted(children) == PROCESSES
    del ps
    gc.collect()  # the runtime's object graph has cycles
    assert _children() == {} and _gone(children.values())


def test_failed_run_discards_every_child_and_the_next_run_starts_afresh():
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
        assert sorted(second) == PROCESSES
        assert not set(second.values()) & set(first.values())
        np.testing.assert_array_equal(ps.all_parameters(), 4.0)
        assert ps.metrics().relocations > 0


def test_a_worker_killed_while_idle_fails_the_next_run_and_leaves_no_child():
    with _server() as ps:
        ps.run_workers(_move_and_push)
        children = _children()
        os.kill(children["worker-1"], signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(ParameterServerError, match="worker-1"):
            ps.run_workers(_move_and_push)
        assert time.monotonic() - started < 5.0
        assert _children() == {} and _gone(children.values())


def test_mf_epochs_keep_their_workers_and_the_simulators_loss():
    matrix = generate_matrix(num_rows=32, num_cols=16, num_entries=300, rank=4, seed=1)
    config = MatrixFactorizationConfig(rank=4, compute_time_per_entry=0.0)
    trainers = {
        backend: MatrixFactorizationTrainer(
            _server(backend, num_keys=matrix.num_cols, length=4), matrix, config, seed=1
        )
        for backend in ("sim", "real")
    }
    workers = None
    with trainers["real"].ps:
        for _ in range(3):
            sim, real = (trainers[backend].run_epoch() for backend in ("sim", "real"))
            assert real.loss == pytest.approx(sim.loss, rel=1e-9)
            workers = workers or _workers()
            assert _workers() == workers and sorted(workers) == PROCESSES[2:]
    assert _gone(workers.values())
