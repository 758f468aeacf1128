"""The real backend runs the simulator's protocol: what that buys, pinned.

* **Exact quiescence.**  ``run_workers`` returns only when nothing is in
  flight: under conflicting ``localize`` calls, synchronous and
  fire-and-forget pushes issued right up to the workers' exit, every update
  is conserved and every key is resident at exactly the node its home names.
* **Snapshot at hand-over.**  ``multiprocessing.Queue.put`` pickles in a
  feeder thread after it returned, so a push must copy its update rows before
  the caller can reuse the buffer.
* **Fail fast.**  A killed server or worker — or one that leaves with exit
  status 0 before it reported — ends the run with an error naming it,
  promptly, leaving no process and no shared-memory segment behind (the
  fixture in ``conftest.py`` checks both after every test).
* **KGE and word2vec** run on real processes unchanged — the protocol they
  need (asynchronous prelocalization, ``pull_if_local``, multi-key steps) is
  the simulator's own.
"""

import math
import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

from repro.errors import ParameterServerError
from repro.experiments import runner
from repro.experiments.runner import KGEScale, W2VScale, make_parameter_server
from repro.ps.base import ClusterConfig, ParameterServerConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the real backend requires the fork start method",
)

NUM_KEYS = 24
LENGTH = 3


def assert_single_consistent_owner(ps):
    """Every key is resident at exactly the node ``current_owner`` names."""
    for key in range(ps.ps_config.num_keys):
        owner = ps.current_owner(key)
        holders = [node for node, state in enumerate(ps.states) if key in state.storage]
        assert holders == [owner], key


# ------------------------------------------------------------- quiescence
def _stress_worker(ops):
    """~``ops`` mixed operations per worker on a small, contended key space.

    Updates are small integers, so their sums are exact in any order.  Returns
    what this worker pushed, as a dense (NUM_KEYS, LENGTH) total.
    """

    def worker(client, worker_id):
        rng = np.random.default_rng(1000 + worker_id)
        pushed = np.zeros((NUM_KEYS, LENGTH))
        for _ in range(ops):
            keys = rng.integers(0, NUM_KEYS, size=int(rng.integers(1, 4))).tolist()
            kind = rng.integers(0, 4)
            if kind == 0 and client.policy.supports_localize:
                yield from client.localize(keys)
            elif kind == 1:
                values = yield from client.pull(keys)
                assert values.shape == (len(keys), LENGTH)
            else:
                updates = rng.integers(1, 5, size=(len(keys), LENGTH)).astype(np.float64)
                np.add.at(pushed, keys, updates)
                if kind == 2:
                    yield from client.push(keys, updates)
                else:
                    client.push_async(keys, updates)
        # Right before exit: one more of each flavour, the last one not waited for.
        last = np.full((2, LENGTH), float(worker_id + 1))
        yield from client.push([0, NUM_KEYS - 1], last)
        client.push_async([0, NUM_KEYS - 1], last)
        np.add.at(pushed, [0, NUM_KEYS - 1, 0, NUM_KEYS - 1], np.vstack([last, last]))
        return pushed

    return worker


@pytest.mark.parametrize(
    "system, location_caches",
    [("lapse", False), ("lapse", True), ("classic", False)],
    ids=("lapse", "lapse-caches", "classic"),
)
def test_quiescence_conserves_every_update(system, location_caches):
    cluster = ClusterConfig(num_nodes=3, workers_per_node=2, seed=0)
    ps_config = ParameterServerConfig(
        num_keys=NUM_KEYS, value_length=LENGTH, location_caches=location_caches
    )
    with make_parameter_server(system, cluster, ps_config, backend="real") as ps:
        expected = np.zeros((NUM_KEYS, LENGTH))
        for _ in range(2):  # the second round forks from the first one's tables
            expected += sum(ps.run_workers(_stress_worker(ops=300)))
            np.testing.assert_array_equal(ps.all_parameters(), expected)
            assert_single_consistent_owner(ps)
        metrics = ps.metrics()
        if system == "lapse":
            assert metrics.relocations > 0
            # §3.2's queue-and-drain executes on real cores: operations meet
            # keys that are still on their way in.
            assert metrics.queued_ops > 0


# ------------------------------------------------------- snapshot at hand-over
@pytest.mark.parametrize("system", ("lapse", "classic"))
def test_push_snapshots_updates_at_hand_over(system):
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=8, value_length=4096)
    with make_parameter_server(system, cluster, ps_config, backend="real") as ps:
        # Not resident at worker 0's node (lapse), through the server (classic).
        remote = [key for key in range(8) if ps.home_node(key) == 1]

        def worker(client, worker_id):
            if worker_id == 0:
                # One hand-over first, so that the queue's feeder thread is
                # up and the next one is pickled whenever it gets to run.
                yield from client.pull(remote)
                buffer = np.full((len(remote), 4096), 7.0)
                client.push_async(remote, buffer)
                buffer[:] = 0.0  # the caller's buffer is the caller's again
            yield from client.barrier()

        ps.run_workers(worker)
        np.testing.assert_array_equal(ps.all_parameters()[remote], 7.0)


# ------------------------------------------------------------------ fail fast
class _RecordingContext:
    """The fork context, remembering the processes it creates — so that a
    worker (forked after them) can look a victim's pid up by name."""

    def __init__(self, context):
        self._context = context
        self.processes = []

    def __getattr__(self, name):
        return getattr(self._context, name)

    def Process(self, *args, **kwargs):
        process = self._context.Process(*args, **kwargs)
        self.processes.append(process)
        return process


@pytest.mark.parametrize("victim", ("server-0", "worker-0"))
def test_killed_child_fails_the_run_fast_and_clean(victim):
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=8, value_length=2)
    ps = make_parameter_server("lapse", cluster, ps_config, backend="real")
    try:
        context = ps._ctx = _RecordingContext(ps._ctx)

        def worker(client, worker_id):
            yield from client.barrier()
            if worker_id == 1:  # forked last: every other child is on record
                target = next(p for p in context.processes if p.name == victim)
                os.kill(target.pid, signal.SIGKILL)
            while True:  # mid-run: both workers keep crossing nodes
                yield from client.pull([0, 7])

        started = time.monotonic()
        with pytest.raises(ParameterServerError, match=victim):
            ps.run_workers(worker)
        assert time.monotonic() - started < 5.0
        assert multiprocessing.active_children() == []
    finally:
        ps.shutdown()


@pytest.mark.parametrize("leave", (lambda: os._exit(0), sys.exit), ids=("os._exit", "sys.exit"))
def test_worker_leaving_with_status_zero_fails_the_run_fast(leave):
    """Exit code 0 is not a report: the parent used to look at children only
    when they had a non-zero one, and waited out its 300 s timeout."""
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=8, value_length=2)
    with make_parameter_server("lapse", cluster, ps_config, backend="real") as ps:

        def worker(client, worker_id):
            yield from client.barrier()
            for step in range(10**9):  # mid-run: both workers keep crossing nodes
                yield from client.pull([0, 7])
                if worker_id == 1 and step == 20:
                    leave()

        started = time.monotonic()
        with pytest.raises(ParameterServerError, match="worker-1 exited with code 0"):
            ps.run_workers(worker)
        assert time.monotonic() - started < 5.0
        assert multiprocessing.active_children() == []


def test_server_refuses_to_stop_with_work_in_flight():
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=8, value_length=2)
    with make_parameter_server("lapse", cluster, ps_config, backend="real") as ps:
        ps.states[0].relocating_in[5] = None  # forked into server 0
        with pytest.raises(ParameterServerError, match=r"(?s)server-0.*\[5\] relocating in"):
            ps.run_workers(lambda client, worker_id: None)


# ------------------------------------------------ KGE and word2vec, for free
@pytest.fixture()
def built_servers(monkeypatch):
    """The parameter servers the experiment runner builds, for inspection
    (a shut-down real server keeps a private copy of its final state)."""
    servers = []
    make = runner.make_parameter_server

    def recording_make(*args, **kwargs):
        servers.append(make(*args, **kwargs))
        return servers[-1]

    monkeypatch.setattr(runner, "make_parameter_server", recording_make)
    return servers


def test_kge_on_lapse_runs_on_real_processes(built_servers):
    scale = KGEScale(num_entities=60, num_relations=4, num_triples=160)
    result = runner.run_kge_experiment(
        "lapse", num_nodes=2, workers_per_node=2, scale=scale, compute_loss=True,
        backend="real",
    )
    assert result.backend == "real"
    assert math.isfinite(result.final_loss)
    assert result.metrics.relocations > 0
    assert_single_consistent_owner(built_servers[0])


def test_w2v_on_lapse_runs_on_real_processes(built_servers):
    scale = W2VScale(vocabulary_size=80, num_sentences=24, presample_size=40, presample_refresh=30)
    result = runner.run_w2v_experiment(
        "lapse", num_nodes=2, workers_per_node=2, scale=scale, compute_error=True,
        backend="real",
    )
    assert result.backend == "real"
    assert math.isfinite(result.final_loss)
    assert result.metrics.relocations > 0
    assert_single_consistent_owner(built_servers[0])
