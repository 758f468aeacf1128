"""Replication vs. relocation vs. static allocation vs. hybrid, head-to-head.

Paper: Lapse manages parameter locality by *relocating* each hot parameter to
the single node that accesses it; the related-work discussion (and the NuPS
follow-up) contrasts this with *replication*, which copies hot parameters to
every accessing node and synchronizes the copies asynchronously.  The paper's
systems cover static allocation and relocation; the repo adds a
replication-based PS and — the NuPS direction of the paper's outlook — a
*hybrid* PS that assigns the technique per key (replicate hot keys, relocate
the long tail).

Here: the four strategies run the paper's three workloads (matrix
factorization, knowledge-graph embeddings, word vectors) at a fixed
parallelism, with shared-memory local access everywhere so the comparison
isolates the parameter-management strategy.  Expected shape:

* every dynamic strategy beats the static classic PS on epoch time, because
  they make most reads local;
* replication achieves a local-read fraction comparable to relocation's;
* the strategies pay for locality differently: relocation moves each key
  (relocation messages, zero steady-state overhead), replication keeps paying
  synchronization traffic (flush/broadcast messages) for as long as the keys
  are written;
* the hybrid actually mixes the techniques: it both relocates (cold keys)
  and, on the workloads with shared hot keys, replicates — with less
  synchronization traffic than full replication, because only hot keys pay it.
"""

import pytest
from benchmark_utils import WORKERS_PER_NODE, run_once

from repro.experiments import (
    KGEScale,
    MFScale,
    W2VScale,
    format_table,
    metrics_rows,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)
from repro.ps import PSMetrics

#: All systems run at the paper's mid-scale parallelism level.
NUM_NODES = 4

#: Static allocation vs. relocation vs. replication vs. the per-key hybrid,
#: all with shared-memory local access.
SYSTEMS = ("classic_fast_local", "lapse", "replica", "hybrid")

MF = MFScale()
KGE = KGEScale()
W2V = W2VScale()


def _run_task(task):
    results = []
    for system in SYSTEMS:
        if task == "mf":
            result = run_mf_experiment(
                system, num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE, scale=MF
            )
        elif task == "kge":
            result = run_kge_experiment(
                system, num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE, scale=KGE
            )
        else:
            result = run_w2v_experiment(
                system, num_nodes=NUM_NODES, workers_per_node=WORKERS_PER_NODE, scale=W2V
            )
        results.append(result)
    return results


def _by_system(results):
    return {result.system: result for result in results}


@pytest.mark.parametrize("task", ["mf", "kge", "w2v"])
def test_replication_vs_relocation(benchmark, task):
    results = run_once(benchmark, lambda: _run_task(task))
    # Consolidated metric reporting: counters come from PSMetrics.as_dict via
    # the shared helper, not per-benchmark plumbing.
    rows = metrics_rows(results)
    print()
    print(
        format_table(
            rows,
            title=f"Management strategies ({task}, {NUM_NODES}x{WORKERS_PER_NODE})",
        )
    )

    by_system = _by_system(results)
    classic = by_system["classic_fast_local"]
    lapse = by_system["lapse"]
    replica = by_system["replica"]
    hybrid = by_system["hybrid"]

    # Replication actually happened, and its maintenance traffic is visible.
    assert replica.metrics.replica_creates > 0
    assert replica.metrics.replica_flush_messages > 0
    assert replica.metrics.replica_sync_bytes > 0
    # Relocation does not pay synchronization traffic; replication does not
    # relocate.  The two locality mechanisms are disjoint.
    assert lapse.metrics.replica_sync_bytes == 0
    assert replica.metrics.relocations == 0
    assert lapse.metrics.relocations > 0

    # The hybrid genuinely relocates its long tail ...
    assert hybrid.metrics.relocations > 0
    # ... and replicates only hot keys, so it never pays more synchronization
    # traffic than full replication.  (MF's rotation has no shared hot keys,
    # so the hybrid degenerates to pure relocation there — by design.)
    assert hybrid.metrics.replica_sync_bytes <= replica.metrics.replica_sync_bytes
    if task in ("kge", "w2v"):
        assert hybrid.metrics.replica_creates > 0
    # Per-key assignment keeps locality competitive with the pure strategies.
    assert hybrid.metrics.local_read_fraction > classic.metrics.local_read_fraction

    # Both pure dynamic strategies make most reads local; static cannot.
    assert replica.metrics.local_read_fraction > classic.metrics.local_read_fraction
    assert replica.metrics.local_read_fraction > 0.5

    # Every dynamic strategy beats static allocation on epoch time.
    assert lapse.epoch_duration < classic.epoch_duration
    assert replica.epoch_duration < classic.epoch_duration
    assert hybrid.epoch_duration < classic.epoch_duration

    dynamic = PSMetrics.aggregate([lapse.metrics, replica.metrics, hybrid.metrics])
    print(
        f"\nspeedup vs static: lapse {classic.epoch_duration / lapse.epoch_duration:.1f}x, "
        f"replica {classic.epoch_duration / replica.epoch_duration:.1f}x, "
        f"hybrid {classic.epoch_duration / hybrid.epoch_duration:.1f}x; "
        f"dynamic strategies combined: {dynamic.relocations} relocations, "
        f"{dynamic.replica_creates} replicas, {dynamic.replica_sync_bytes} sync bytes"
    )
