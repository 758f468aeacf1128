"""Block visits on the real backend's shared-memory lane.

``RealWorkerClient.fused_local_steps()`` hands the MF trainer a runner whose
``visit`` is the worker's lane applied to a whole block: residency check and
read under one short hold of the node lock, the kernel outside it, and a
compare-and-swap write under a second — counted as the per-entry loop counts
the same entries.  The oracle is the technique of
``tests/ps/test_fused_steps.py``: the same run with the runner withheld, and
the simulator.  Also pinned: a refused visit touches nothing, the lock is free
inside the kernel and while a visit burns its compute time, a write that lands
in between is neither lost nor doubled, and a worker that dies *holding* the
lock still fails the run fast and clean.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from test_real_backend import MIRRORED_COUNTERS, TINY, _run

from repro.backend import real as real_backend
from repro.backend.real import RealWorkerClient
from repro.data import generate_matrix
from repro.errors import ParameterServerError
from repro.experiments.runner import make_parameter_server
from repro.obs import TraceConfig
from repro.ps.base import ClusterConfig, ParameterServerConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the real backend requires the fork start method",
)

EPOCHS = 2
#: Entries of TINY's matrix (the generator drops repeated cells).
NUM_ENTRIES = generate_matrix(
    TINY.num_rows, TINY.num_cols, TINY.num_entries, rank=TINY.rank, seed=0
).num_entries

NUM_KEYS = 8  # range partition over 2 nodes: 0-3 | 4-7
LENGTH = 2


def paths(result):
    return result.fused_steps, result.declined_steps


def assert_equals_simulator(real, sim):
    assert real.final_loss == sim.final_loss  # bit-equal, not approx
    for counter in MIRRORED_COUNTERS:
        assert getattr(real.metrics, counter) == getattr(sim.metrics, counter), counter


# ------------------------------------------------- three-way equality (a)
@pytest.mark.parametrize("num_nodes, workers_per_node", [(2, 1), (2, 2), (3, 2)])
def test_lapse_visits_equal_the_per_entry_loop_and_the_simulator(
    num_nodes, workers_per_node, monkeypatch
):
    shape = dict(num_nodes=num_nodes, workers_per_node=workers_per_node, epochs=EPOCHS)
    sim = _run("lapse", "sim", **shape)
    visits = _run("lapse", "real", **shape)
    monkeypatch.setattr(RealWorkerClient, "fused_local_steps", lambda self: None)
    per_entry = _run("lapse", "real", **shape)
    assert_equals_simulator(visits, sim)
    assert_equals_simulator(per_entry, sim)
    # Every block is localized before its visit, so every entry is taken,
    # and a block is private to its visit, so no write conflicts.
    assert paths(visits) == paths(sim) == (EPOCHS * NUM_ENTRIES, 0)
    assert paths(per_entry) == (0, 0)
    assert visits.visit_conflicts == 0


@pytest.mark.parametrize("num_nodes, workers_per_node", [(2, 1), (3, 2)])
def test_static_allocation_takes_local_blocks_and_declines_the_rest(num_nodes, workers_per_node):
    shape = dict(num_nodes=num_nodes, workers_per_node=workers_per_node, epochs=EPOCHS)
    sim = _run("classic_fast_local", "sim", **shape)
    real = _run("classic_fast_local", "real", **shape)
    assert_equals_simulator(real, sim)
    fused, declined = paths(real)
    assert fused > 0 and declined > 0 and fused + declined == EPOCHS * NUM_ENTRIES
    assert paths(real) == paths(sim)  # one residency rule on both backends


def test_no_runner_without_the_lane():
    assert paths(_run("classic", "real")) == (0, 0)


def test_tracing_does_not_change_the_lane():
    plain = _run("lapse", "real", epochs=1)
    traced = _run("lapse", "real", epochs=1, trace=TraceConfig())
    assert paths(traced) == paths(plain) == (NUM_ENTRIES, 0)
    # A visit reports what it did: one pull and one push of its block (2
    # workers x 2 subepochs, 4 keys a block), next to the 4 localizes.
    spans = [(op[0], op[4]) for trace in traced.tracer.node_traces() for op in trace.ops]
    assert sorted(spans) == [("localize", 4)] * 4 + [("pull", 4)] * 4 + [("push", 4)] * 4


# -------------------------------------------------- one visit, up close
def _server(workers_per_node=1):
    cluster = ClusterConfig(num_nodes=2, workers_per_node=workers_per_node, seed=0)
    ps_config = ParameterServerConfig(num_keys=NUM_KEYS, value_length=LENGTH)
    return make_parameter_server("lapse", cluster, ps_config, backend="real")


def _lock_is_free(lock):
    free = lock.acquire(block=False)
    if free:
        lock.release()
    return free


def _observe(client):
    """Node store and counters as worker 0 sees them (nobody else touches
    node 0 in these tests, so no lock is needed to look)."""
    storage = client.state.storage
    resident = [key for key in range(NUM_KEYS) if key in storage]
    return storage.get_many(resident).tobytes(), client.state.metrics.as_dict()


def test_refused_visit_touches_nothing():  # (b)
    block, entries = [0, 1, 2, 3], np.array([1, 3, 3, 0, 2])

    def worker(client, worker_id):
        report = None
        if worker_id == 0:
            runner = client.fused_local_steps()
            calls = []

            def kernel(values):
                calls.append(len(values))
                return values + 1.0

            before = _observe(client)
            refused = [runner.visit([2, 3, 4], entries, 0.0, kernel)]  # 4 lives on node 1
            client._overtakable = True
            refused.append(runner.visit(block, entries, 0.0, kernel))
            client._overtakable = False
            untouched = _observe(client) == before and not calls
            taken = runner.visit(block, entries, 0.0, kernel)
            metrics = client.state.metrics
            counted = (
                metrics.pulls_local, metrics.key_reads_local,
                metrics.pushes_local, metrics.key_writes_local,
            )
            report = (
                refused, untouched, taken, calls, counted,
                (runner.taken, sum(runner.reasons.values())), dict(runner.reasons),
            )
        yield from client.barrier()
        return report

    with _server() as ps:
        report = ps.run_workers(worker)[0]
        reasons = {"not resident": 5, "handed over": 5}
        assert report == ([(0, None)] * 2, True, (5, None), [4], (5, 5, 5, 5), (5, 10), reasons)
        np.testing.assert_array_equal(ps.all_parameters()[:4], 1.0)
        np.testing.assert_array_equal(ps.all_parameters()[4:], 0.0)
        assert ps.metrics().pulls_local == 5  # the worker's counters came home


def test_visits_of_a_contended_block_lose_no_update():
    """Nothing about a visit assumes the block is private: four workers on two
    cores visit, push to and relocate the *same* block; integer increments sum
    exactly in any order, so one lost or doubled write shows."""
    block = [0, 1, 2, 3]
    entries = np.array(block)

    def worker(client, worker_id):
        rng = np.random.default_rng(worker_id)
        runner = client.fused_local_steps()
        for _ in range(150):
            choice = rng.integers(0, 8)
            if choice == 0:
                yield from client.localize(block)  # moves it under everyone else
            if runner.visit(block, entries, 0.0, lambda values: values + 1.0)[0]:
                continue
            if choice < 4:
                client.push_async(block, np.ones((4, LENGTH)))  # next visit must not overtake it
            else:
                yield from client.push(block, np.ones((4, LENGTH)))
        return runner.taken, sum(runner.reasons.values())

    with _server(workers_per_node=2) as ps:
        counts = ps.run_workers(worker)
        np.testing.assert_array_equal(ps.all_parameters()[block], 4 * 150.0)
        assert sum(taken for taken, _ in counts) > 0 and sum(lost for _, lost in counts) > 0


def test_lock_is_free_inside_the_kernel_and_a_write_in_between_is_kept(monkeypatch):  # (c)
    """A deterministic conflict: the kernel itself pushes +1 to its block, then
    returns ``values + 1``.  The visit's compare-and-swap sees the block
    changed and hands its own +1 to the push path: 2, not 1 (the push lost)
    and not 3 (the kernel's result taken for an increment of the new values).
    The visit counts one conflict."""
    with _server() as ps:
        observed = {}  # filled in worker 0's process, which returns it

        def worker(client, worker_id):
            def kernel(values):
                observed["kernel"] = _lock_is_free(ps.node_locks[0])
                client.push_async([0, 1], np.ones((2, LENGTH)))
                return values + 1.0

            if worker_id == 0:
                runner = client.fused_local_steps()
                assert runner.visit([0, 1], np.array([0, 1, 1]), 0.5, kernel) == (3, None)
                observed["taken"] = runner.taken
                observed["conflicts"] = runner.conflicts
            yield from client.barrier()
            return observed

        # Where the visit burns its compute time (forked into the workers).
        monkeypatch.setattr(
            real_backend, "_busy_wait",
            lambda seconds: observed.update(compute=(seconds, _lock_is_free(ps.node_locks[0]))),
        )
        assert ps.run_workers(worker)[0] == {
            "kernel": True, "taken": 3, "conflicts": 1, "compute": (1.5, True)
        }
        np.testing.assert_array_equal(ps.all_parameters()[:2], 2.0)
        np.testing.assert_array_equal(ps.all_parameters()[2:], 0.0)


def test_failing_kernel_releases_the_lock_and_fails_the_run():  # (c)
    def worker(client, worker_id):
        if worker_id == 0:
            try:
                client.fused_local_steps().visit([0, 1], np.array([0]), 0.0, lambda values: 1 // 0)
            except ZeroDivisionError:
                if not _lock_is_free(client.ps.node_locks[client.node_id]):
                    raise RuntimeError("the visit left the node lock held") from None
                raise
        yield from client.barrier()

    with _server() as ps:
        with pytest.raises(ParameterServerError, match=r"(?s)worker-0.*ZeroDivisionError") as info:
            ps.run_workers(worker)
        assert "left the node lock held" not in str(info.value)
        assert multiprocessing.active_children() == []


def test_worker_killed_inside_a_visit_fails_the_run_fast_and_clean():  # (d)
    """The lock dies held: the node-mate (its lane) and server 0 (a pull from
    node 1, on which server 1 then waits) block on it for good.  The parent's
    watch on the process sentinels does not depend on the lock."""
    ps = _server(workers_per_node=2)
    try:

        def die_holding_the_lock(values):
            ps.node_locks[0].acquire()  # as the visit's write would
            time.sleep(0.2)  # everyone else queues up behind the lock
            os.kill(os.getpid(), signal.SIGKILL)

        def worker(client, worker_id):
            yield from client.barrier()
            if worker_id == 0:
                client.fused_local_steps().visit([0, 1], np.array([0]), 0.0, die_holding_the_lock)
            while True:  # node-mate: the lane; node 1: through both servers
                yield from client.pull([2, 3])

        started = time.monotonic()
        with pytest.raises(ParameterServerError, match="worker-0"):
            ps.run_workers(worker)
        assert time.monotonic() - started < 5.0
        assert multiprocessing.active_children() == []
    finally:
        ps.shutdown()
