#!/usr/bin/env python3
"""Crash-consistent durability: a node dies mid-training and loses nothing.

**Paper anchor:** *Dynamic Parameter Allocation in Parameter Servers* keeps
exactly one copy of every parameter under pure relocation (§3.2) — the
paper's outlook (§7) names fault tolerance as the open flank of that
design, since a crashed node takes its shard with it.  This example runs
the DSGD matrix-factorization workload (§4.2) with the durability subsystem
installed (``repro.durability``: a per-node delta write-ahead log behind a
transparent storage proxy, plus simulated-time checkpoints) and shows that
a crash-and-restart becomes lossless *and exact*:

1. **Failure-free reference** — the same workload, same seed, no durability
   and no crash; its final model is the comparison target.
2. **Durable run with a crash** — after the first epoch, node 2 fails and
   restarts at the same boundary.  Its volatile state is wiped; recovery
   rebuilds every key it owned from the latest checkpoint plus a WAL-suffix
   replay and re-admits the machine through the normal joining rebalance.
3. **Exactness check** — zero lost keys, and the final model is
   **bit-identical** to the failure-free reference: replay re-applies the
   same float64 deltas in the same per-key order, so not a single bit may
   differ.

Try ``DURABILITY = None`` to see the contrast: under pure relocation the
crash then loses the failed node's keys (``PSMetrics.lost_keys``).

Block visits run as one numerics kernel on the logged store too, except where
a node's next checkpoint falls inside a visit; the script prints the entries
each path took and exits non-zero if a run fused none (CI runs it).

Run with::

    python examples/crash_recovery.py
"""

import sys

import numpy as np

from repro.durability import DurabilityConfig
from repro.experiments import MFScale, make_elastic_mf

SYSTEM = "lapse"   # pure relocation: one copy of every key, no replicas
CAPACITY = 3
CRASH_NODE = 2
EPOCHS = 3
DURABILITY = DurabilityConfig()  # try None: the crash becomes lossy
SCALE = MFScale(num_rows=120, num_cols=32, num_entries=2000, rank=4)


def train(durability, crash_after_first_epoch):
    elastic, trainer = make_elastic_mf(
        SYSTEM, num_nodes=CAPACITY, scale=SCALE, workers_per_node=2, seed=0,
        durability=durability,
    )
    for index in range(EPOCHS):
        result = elastic.run_epoch(trainer, compute_loss=False)
        print(f"  epoch {index}: {result.duration * 1e3:7.2f} ms simulated")
        if index == 0 and crash_after_first_epoch:
            now = elastic.ps.simulated_time
            elastic.fail_at(now, CRASH_NODE)
            elastic.rejoin_at(now, CRASH_NODE)
            print(f"  -> node {CRASH_NODE} crashes and restarts at this boundary")
    reasons = sorted(trainer.decline_reasons.items())
    why = ", ".join(f"{reason} {count}" for reason, count in reasons)
    print(f"  block-visit entries: {trainer.fused_steps} fused, "
          f"{trainer.declined_steps} declined (event loop: {why or 'none'})")
    return elastic, trainer


def main():
    print(f"Failure-free reference ({SYSTEM!r}, {CAPACITY} nodes, no durability)")
    reference, reference_trainer = train(durability=None, crash_after_first_epoch=False)
    reference_params = reference.ps.all_parameters()

    print("\nDurable run: WAL + checkpoints installed, crash after epoch 0")
    elastic, trainer = train(durability=DURABILITY, crash_after_first_epoch=True)
    ps = elastic.ps
    metrics = ps.metrics()

    print(f"\n  WAL activity: {metrics.wal_appends} appends, "
          f"{metrics.wal_bytes} logged bytes, {metrics.checkpoints} checkpoints")
    print(f"  recovery: {metrics.wal_recovered_keys} keys rebuilt from the log "
          f"({metrics.replayed_deltas} deltas replayed), "
          f"{metrics.lost_keys} lost")
    print(f"  node {CRASH_NODE} ended as "
          f"{elastic.membership.state_of(CRASH_NODE)!r}")

    exact = np.array_equal(ps.all_parameters(), reference_params)
    print(f"  final model bit-identical to the failure-free reference: {exact}")
    if DURABILITY is not None:
        assert metrics.lost_keys == 0 and exact
    if min(reference_trainer.fused_steps, trainer.fused_steps) == 0:
        sys.exit(f"a {SYSTEM} run fused no block visit: the fused lane is off")


if __name__ == "__main__":
    main()
