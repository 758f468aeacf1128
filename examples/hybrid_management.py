#!/usr/bin/env python3
"""Hybrid management: replicate the hot keys, relocate the long tail.

**Paper anchor:** the outlook of *Dynamic Parameter Allocation in Parameter
Servers* (§3 introduces relocation; §3.4/Table 1 analyse what each management
technique does to per-key consistency) sketches combining multiple management
techniques inside one server, the direction later formalized as NuPS
(Renz-Wieland et al., SIGMOD 2022).  This example runs that combination: the
``hybrid`` PS assigns a technique **per key** via the hot-key policy of
``repro.ps.partition``.

The workload is deliberately skewed, like the paper's KGE and word-vector
tasks (§4.3, §4.4): every worker keeps hammering a handful of cluster-wide
*hot* keys (relation embeddings / frequent words) and sweeps a private range
of *cold* keys (entity embeddings / rare words) that it localizes first.
Watch three things in the output:

1. **Per-key routing** — the hot keys end up *replicated* on every accessing
   node while staying with their owner; the cold keys end up *relocated* to
   their single accessor (``HybridPS.key_management``).
2. **Split maintenance price** — relocations happen only for the long tail,
   synchronization traffic is paid only for the hot set (compare the same
   counters in ``examples/replication_comparison.py``, where each pure
   strategy pays its price for *every* key).
3. **Per-key consistency** (§3.4 / Table 1) — ``HybridPS.key_guarantees``
   classifies each key by the technique that manages it: relocated keys keep
   per-key sequential consistency for synchronous operations, replicated
   keys trade it for eventual consistency plus the session guarantees.

Run with::

    python examples/hybrid_management.py
"""

import numpy as np

from repro import ClusterConfig, ParameterServerConfig
from repro.ps import HybridPS

NUM_NODES = 4
WORKERS_PER_NODE = 2
NUM_KEYS = 64
HOT_KEYS = [0, 1, 2, 3]
COLD_BASE = 8
ROUNDS = 30
VALUE_LENGTH = 8


def worker(client, worker_id):
    rng = client.rng
    private = COLD_BASE + worker_id  # one cold key per worker
    yield from client.localize([private])  # relocate the cold key here once
    for _ in range(ROUNDS):
        hot = int(rng.choice(HOT_KEYS))
        values = yield from client.pull([hot, private])
        update = np.ones((2, VALUE_LENGTH)) * 0.01
        yield from client.push([hot, private], update)
        del values
    yield from client.barrier()
    return None


def main() -> None:
    cluster = ClusterConfig(
        num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE, seed=7
    )
    # Threshold 2: a node replicates a key after its second remote read, so
    # one-off accesses stay relocatable (the runner's default for `hybrid`).
    config = ParameterServerConfig(
        num_keys=NUM_KEYS, value_length=VALUE_LENGTH, hot_key_threshold=2
    )
    ps = HybridPS(cluster, config)
    ps.run_workers(worker)
    metrics = ps.metrics()

    print(f"simulated time: {ps.simulated_time * 1e3:.3f} ms")
    print(f"local read fraction: {metrics.local_read_fraction:.3f}")
    print(
        f"maintenance: {metrics.relocations} relocations (long tail) vs "
        f"{metrics.replica_sync_bytes} sync bytes over "
        f"{metrics.replica_creates} replicas (hot set)"
    )

    print("\nper-key technique and consistency classification (Table 1):")
    header = f"{'key':>4}  {'managed by':<12} {'holders':<14} {'sequential':<11} {'eventual':<9} {'session'}"
    print(header)
    print("-" * len(header))
    sample = HOT_KEYS + [COLD_BASE, COLD_BASE + 3, COLD_BASE + 7]
    for key in sample:
        technique = ps.key_management(key)
        guarantees = ps.key_guarantees(key)
        holders = ps.replica_holders(key) or (ps.current_owner(key),)
        print(
            f"{key:>4}  {technique:<12} {str(holders):<14} "
            f"{str(guarantees['sequential']):<11} {str(guarantees['eventual']):<9} "
            f"{guarantees['session']}"
        )

    # Both techniques land every update exactly once (conflict-free
    # aggregation for replicas, queue-and-drain for relocations).
    expected_cold = ROUNDS * 0.01
    for worker_id in range(NUM_NODES * WORKERS_PER_NODE):
        value = float(ps.parameter(COLD_BASE + worker_id)[0])
        assert abs(value - expected_cold) < 1e-9, (worker_id, value)
    total_hot = sum(float(ps.parameter(key)[0]) for key in HOT_KEYS)
    expected_hot_total = NUM_NODES * WORKERS_PER_NODE * ROUNDS * 0.01
    assert abs(total_hot - expected_hot_total) < 1e-9
    print(
        "\nevery update landed exactly once: cold keys each hold "
        f"{expected_cold:.2f}, hot keys sum to {total_hot:.2f}"
    )


if __name__ == "__main__":
    main()
