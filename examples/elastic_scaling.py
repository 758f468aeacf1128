#!/usr/bin/env python3
"""Elastic cluster runtime: grow, shrink, and survive failures at run time.

**Paper anchor:** the outlook of *Dynamic Parameter Allocation in Parameter
Servers* (§7) notes that DPA makes a parameter server adaptable at run time —
relocation is the mechanism that lets a cluster change *while training runs*.
This example drives one full elastic lifecycle of the DSGD matrix-
factorization workload (§4.2) through ``repro.cluster``:

1. **Join mid-epoch** — a reserve node joins while an epoch is running; the
   :class:`~repro.ps.partition.ElasticPartitioner` computes its balanced key
   share (movement-minimizing), home duties are handed over, and ownership
   migrates through the *same* relocation protocol the application uses
   (§3.2).  The next epoch is faster: more workers, all accesses local.
2. **Graceful drain** — a node announces departure; its workers finish the
   epoch, its keys relocate away, and it leaves once it owns nothing.  A
   static classic PS cannot do either (try ``SYSTEM = "classic"``: the
   drained node stays "draining" forever).
3. **Failure with recovery** — standby replicas are provisioned
   (``ensure_backups``), then a node crashes.  Under the ``hybrid`` policy
   every key it owned is recovered from a surviving replica (0 lost); under
   pure relocation (``lapse``) exactly one copy of each parameter exists, so
   the failed node's keys are lost and re-initialized (counted in
   ``PSMetrics.lost_keys``).

The lifecycle runs once per system.  Block visits run as one numerics kernel
except through a membership change; the last table counts the entries each
path took, and the script exits non-zero if ``lapse`` fused none (CI runs
it).

Run with::

    python examples/elastic_scaling.py
"""

import sys

from repro.experiments import MFScale, make_elastic_mf

SYSTEMS = ("hybrid", "lapse")  # try adding "classic": it cannot shed keys
CAPACITY = 3       # node 2 is reserve capacity at start
SCALE = MFScale(num_rows=150, num_cols=24, num_entries=3000, rank=4,
                compute_time_per_entry=25e-6)


def lifecycle(system):
    elastic, trainer = make_elastic_mf(
        system, num_nodes=CAPACITY, initial_nodes=[0, 1],
        scale=SCALE, workers_per_node=2, seed=0,
    )
    ps = elastic.ps
    membership = elastic.membership

    def states():
        return {node: membership.state_of(node) for node in range(CAPACITY)}

    def epoch(label):
        result = elastic.run_epoch(trainer, compute_loss=False)
        print(f"  {label:<28s} epoch time {result.duration * 1e3:7.2f} ms   "
              f"membership {states()}")
        return result

    print(f"Elastic lifecycle on the {system!r} PS "
          f"({CAPACITY} node capacity, 2 workers/node)\n")

    print("Phase 1: baseline on nodes 0 and 1")
    baseline = epoch("baseline")

    print("\nPhase 2: node 2 joins MID-epoch (keys migrate while training runs)")
    elastic.join_at(ps.simulated_time + 0.5 * baseline.duration, node=2)
    epoch("join epoch (disruption)")
    epoch("post-join (3 nodes)")
    metrics = ps.metrics()
    print(f"  -> rebalanced {metrics.rebalanced_keys} keys in "
          f"{metrics.rebalance_time.mean * 1e3:.2f} ms "
          f"({metrics.relocations} relocations so far)")

    print("\nPhase 3: node 1 drains gracefully")
    elastic.drain_at(ps.simulated_time, node=1)
    epoch("drain epoch")
    epoch("post-drain (nodes 0 and 2)")

    if elastic.rebalancer.supports_rebalance:
        print("\nPhase 4: standby replicas, then node 2 crashes")
        installed = elastic.ensure_backups()
        print(f"  provisioned {installed} standby replicas")
        elastic.fail_at(ps.simulated_time, node=2)
        epoch("post-failure (node 0 only)")
        print(f"  -> recovered {elastic.recovered_keys} keys from replicas, "
              f"lost {elastic.lost_keys}")
    else:
        print("\nPhase 4 skipped: a static allocation cannot re-home keys, so "
              "a node failure would be unrecoverable")

    print(f"\nModel intact: {ps.all_parameters().shape} parameters, "
          f"final membership {states()}")
    return trainer


def main():
    lanes = {}
    for system in SYSTEMS:
        trainer = lifecycle(system)
        lanes[system] = (trainer.fused_steps, trainer.declined_steps, trainer.decline_reasons)
        print()
    print("Block-visit entries: fused (one kernel per visit) / declined (event loop), why")
    for system, (fused, declined, reasons) in lanes.items():
        why = ", ".join(f"{reason} {count}" for reason, count in sorted(reasons.items()))
        print(f"  {system:<8s} {fused:7d} / {declined:7d}   {why or 'none'}")
    if "lapse" in lanes and lanes["lapse"][0] == 0:
        sys.exit("lapse fused no block visit: the fused lane is off on elastic clusters")


if __name__ == "__main__":
    main()
