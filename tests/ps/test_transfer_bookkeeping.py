"""Relocation transfers: batched bookkeeping against the key-by-key loop.

``RelocationPolicy._handle_transfer`` hoists what is constant over a transfer
and completes a localize handle once per run of consecutive keys sharing it.
That must be unobservable.  ``KeyByKeyTransferPolicy`` below keeps the loop it
replaced — per key: install, both ``RunningStat.record`` calls, one
``complete_keys([key])`` per handle, drain, follow-up — and a workload of
overlapping multi-key localizes, queued pulls/pushes and localization
conflicts must give the same handle completion instants, counters, relocation
statistics (to the bit: ``total`` accumulates in the same order), messages and
model on both.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.errors import RelocationError
from repro.ps import HybridPS, LapsePS, RelocationPolicy
from repro.ps.hybrid import HybridManagementPolicy
from repro.ps.metrics import RunningStat

NUM_KEYS = 24
LENGTH = 2
INITIAL = np.arange(NUM_KEYS * LENGTH, dtype=float).reshape(NUM_KEYS, LENGTH)


class KeyByKeyTransferPolicy(RelocationPolicy):
    """Relocation with the transfer handled one key at a time."""

    def _handle_transfer(self, state, transfer):
        if transfer.values.shape[0] == 0:
            self._complete_requester_side(state, list(transfer.keys))
            return
        ps = self.ps
        for index, key in enumerate(transfer.keys):
            if key not in state.relocating_in:
                raise RelocationError(f"unrequested transfer of key {key}")
            state.storage.insert(key, transfer.values[index])
            if self.replication is not None:
                self.replication.adopt_subscribers(
                    state, key, transfer.subscribers[index] if transfer.subscribers else ()
                )
            entry = state.relocating_in.pop(key)
            state.metrics.relocations += 1
            state.metrics.relocation_time.record(ps.sim.now - entry.requested_at)
            state.metrics.blocking_time.record(ps.sim.now - transfer.removed_at)
            if ps.ps_config.location_caches:
                state.location_cache.pop(key, None)
            for handle in entry.localize_handles:
                handle.complete_keys([key])
            self._drain_queue(state, key, entry)  # and the follow-up instruction


class KeyByKeyLapsePS(LapsePS):
    policy_class = KeyByKeyTransferPolicy


class KeyByKeyHybridPolicy(HybridManagementPolicy):
    def __init__(self, ps):
        super().__init__(ps)
        self.relocation = KeyByKeyTransferPolicy(ps)
        self.relocation.replication = self.replication
        self.replication.relocation = self.relocation


class KeyByKeyHybridPS(HybridPS):
    policy_class = KeyByKeyHybridPolicy


def run_workload(ps_class, seed, location_caches=False):
    cluster = ClusterConfig(num_nodes=3, workers_per_node=2, seed=seed)
    ps_config = ParameterServerConfig(
        num_keys=NUM_KEYS, value_length=LENGTH, location_caches=location_caches
    )
    ps = ps_class(cluster, ps_config, initial_values=INITIAL)
    completions = {}

    def worker(client, worker_id):
        rng = np.random.default_rng([seed, worker_id])
        log = completions.setdefault(worker_id, [])
        for _ in range(12):
            # Overlapping multi-key localizes: workers of one node share keys
            # in flight, workers of other nodes contend for them.
            keys = sorted(set(rng.integers(0, NUM_KEYS, size=int(rng.integers(2, 7))).tolist()))
            localize = client.localize_async(keys)
            # Operations issued while the keys travel are queued and drained.
            touched = [int(key) for key in rng.choice(keys, size=2)]
            pull = client.pull_async(touched)
            push = client.push_async(touched, np.ones((2, LENGTH)), needs_ack=True)
            for handle in (localize, pull, push):
                yield from client.wait(handle)
                log.append((handle.op_type, handle.completed_at))
            log.append(pull.values().tobytes())
            yield float(rng.integers(0, 4)) * 50e-6

    ps.run_workers(worker)
    return {
        "completions": completions,
        "metrics": ps.metrics().as_dict(),
        "stats": [
            (vars(state.metrics.relocation_time), vars(state.metrics.blocking_time))
            for state in ps.states
        ],
        "latches": [state.latches.acquisitions for state in ps.states],
        "messages": (ps.network.stats.messages_sent, ps.network.stats.bytes_sent),
        "parameters": ps.all_parameters().tobytes(),
        "now": ps.simulated_time,
    }


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "ps_class, reference_class, location_caches",
    [
        (LapsePS, KeyByKeyLapsePS, False),
        (LapsePS, KeyByKeyLapsePS, True),
        (HybridPS, KeyByKeyHybridPS, False),
    ],
)
def test_transfer_bookkeeping_equals_key_by_key_loop(
    ps_class, reference_class, location_caches, seed
):
    actual = run_workload(ps_class, seed, location_caches)
    expected = run_workload(reference_class, seed, location_caches)
    assert actual["metrics"]["relocations"] > 50
    assert actual["metrics"]["queued_ops"] > 0
    assert actual == expected


@pytest.mark.parametrize("times", [0, 1, 2, 17])
def test_record_repeated_equals_repeated_record(times):
    batched, looped = RunningStat(), RunningStat()
    for stat in (batched, looped):
        stat.record(0.1)  # 0.1 + 0.3 + 0.3 + ... rounds unlike 0.1 + n * 0.3
    batched.record_repeated(0.3, times)
    for _ in range(times):
        looped.record(0.3)
    assert vars(batched) == vars(looped)
    empty = RunningStat()
    empty.record_repeated(0.3, 0)
    assert empty.buckets is None and empty.count == 0
