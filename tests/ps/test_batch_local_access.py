"""Whole-batch local access of the Lapse client against the per-key route.

An operation whose keys are all resident is served by one shared-memory
access and completes its handle in one piece.  That must be unobservable: the
same values, completion times, metric counters, latch acquisitions and final
parameters as routing every key on its own (``PerKeyRoutePolicy`` below —
relocation without the shortcut, so the one client routes, groups and acts
key by key), for all-resident and for mixed batches.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, CostModel, ParameterServerConfig
from repro.errors import ParameterServerError
from repro.ps import LapsePS, RelocationPolicy
from repro.ps.futures import OperationHandle
from repro.simnet import Simulator

NUM_KEYS = 12  # range partition over 3 nodes: 0-3 | 4-7 | 8-11
LENGTH = 2
INITIAL = np.arange(NUM_KEYS * LENGTH, dtype=float).reshape(NUM_KEYS, LENGTH)


class PerKeyRoutePolicy(RelocationPolicy):
    """Relocation with every key routed on its own (no batch shortcut)."""

    resident_is_local = False


class PerKeyRoutePS(LapsePS):
    policy_class = PerKeyRoutePolicy


def build(ps_class, **cost):
    cluster = ClusterConfig(
        num_nodes=3, workers_per_node=1, seed=1, cost_model=CostModel(**cost)
    )
    ps_config = ParameterServerConfig(num_keys=NUM_KEYS, value_length=LENGTH)
    return ps_class(cluster, ps_config, initial_values=INITIAL)


def observe(ps, handles):
    """Everything a run may show: handle results, clocks, counters, model."""
    return {
        "values": [h.values().tolist() if h.op_type == "pull" else None for h in handles],
        "first": [h.first_value().tolist() if h.op_type == "pull" else None for h in handles],
        "completed_at": [h.completed_at for h in handles],
        "latency": [h.latency for h in handles],
        "now": ps.simulated_time,
        "metrics": ps.metrics().as_dict(),
        "latches": [state.latches.acquisitions for state in ps.states],
        "messages": (ps.network.stats.messages_sent, ps.network.stats.bytes_sent),
        "parameters": ps.all_parameters().tolist(),
    }


def all_resident(ps):
    client = ps.client(0, 0)
    handles = []

    def worker(client_, worker_id):
        if worker_id == 0:
            handles.append(client.pull_async([2, 0, 3]))
            handles.append(
                client.push_async([3, 0, 1, 0], np.arange(8.0).reshape(4, 2), needs_ack=True)
            )
            yield from client.wait_all(handles)
            handles.append(client.pull_async([0, 1, 2, 3]))
            yield from client.wait_all(handles)
            handles.append(client.pull_async([1]))
            yield from client.wait_all(handles)

    ps.run_workers(worker)
    return observe(ps, handles)


def mixed(ps):
    """One resident key, one remote key, one key queued behind its relocation."""
    client = ps.client(0, 0)
    handles = []

    def worker(client_, worker_id):
        if worker_id == 0:
            handles.append(client.localize_async([5]))
            handles.append(client.pull_async([1, 9, 5]))
            handles.append(client.push_async([5, 1, 9], np.ones((3, 2)), needs_ack=True))
            handles.append(client.pull_async([9, 5, 1]))
            yield from client.wait_all(handles)

    ps.run_workers(worker)
    assert ps.metrics().queued_ops == 3
    return observe(ps, handles[1:])


def relocated_away(ps):
    """Resident at issue, gone when the (here: very slow) access runs."""
    handles = []

    def worker(client, worker_id):
        if worker_id == 0:
            handles.append(client.pull_async([1, 2]))
            handles.append(client.push_async([2, 1], np.array([[1.0, 1.0], [5.0, 5.0]]), True))
            yield from client.wait_all(handles)
        elif worker_id == 1:
            yield from client.localize([1])

    ps.run_workers(worker)
    assert ps.current_owner(1) == 1
    return observe(ps, handles)


@pytest.mark.parametrize("scenario", [all_resident, mixed])
def test_batch_access_equals_per_key_route(scenario):
    assert scenario(build(LapsePS)) == scenario(build(PerKeyRoutePS))


def test_key_relocated_away_before_the_access_completes_through_the_fallback(monkeypatch):
    # A shared-memory access slower than a relocation: key 1 leaves node 0
    # between the issue of the batch and its access.
    slow = dict(sharedmem_access_latency=1e-3)
    reissued = []
    reissue_key = RelocationPolicy._reissue_key

    def recording_reissue_key(self, client, handle, key, pull, update=None):
        reissued.append((handle.op_type, key))
        reissue_key(self, client, handle, key, pull, update)

    monkeypatch.setattr(RelocationPolicy, "_reissue_key", recording_reissue_key)
    observed = relocated_away(build(LapsePS, **slow))
    assert reissued == [("pull", 1), ("push", 1)]
    assert observed == relocated_away(build(PerKeyRoutePS, **slow))
    assert observed["values"][0] == [INITIAL[1].tolist(), INITIAL[2].tolist()]
    np.testing.assert_array_equal(observed["parameters"][1], INITIAL[1] + 5.0)
    np.testing.assert_array_equal(observed["parameters"][2], INITIAL[2] + 1.0)
    assert observed["metrics"]["key_reads_remote"] == 0  # re-routed without counters


class TestBatchCompletedHandle:
    def handle(self, op_type="pull", keys=(4, 7)):
        sim = Simulator()
        return sim, OperationHandle(sim, op_type, keys, value_length=2)

    def test_results(self):
        sim, handle = self.handle()
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        sim.call_later(0.25, lambda _: handle.complete_batch(block), None)
        with pytest.raises(ParameterServerError):
            handle.values()
        sim.run()
        assert handle.done
        assert handle.completed_at == 0.25
        assert handle.latency == 0.25
        assert handle.values() is block
        np.testing.assert_array_equal(handle.first_value(), [1.0, 2.0])
        with pytest.raises(ParameterServerError):
            handle.value()  # two keys

    def test_single_key_value(self):
        _, handle = self.handle(keys=(4,))
        handle.complete_batch(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(handle.value(), [1.0, 2.0])

    def test_push_carries_no_values(self):
        _, handle = self.handle("push")
        handle.complete_batch()
        assert handle.done
        with pytest.raises(ParameterServerError):
            handle.values()

    def test_later_completions_are_ignored(self):
        sim, handle = self.handle()
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        fired = []
        handle.completion_event.callbacks.append(fired.append)
        handle.complete_batch(block)
        sim.run()
        handle.complete_keys([4], np.array([[9.0, 9.0]]))
        handle.complete_keys([7])
        handle.complete_batch(np.zeros((2, 2)))
        sim.run()
        assert len(fired) == 1
        assert handle.values() is block
