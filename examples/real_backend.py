#!/usr/bin/env python3
"""Quick start for the real multi-core execution backend.

**Paper anchor:** §3.3 (shared-memory local access) and §4.2 (scalability) —
the simulator models these; this backend *does* them: workers are
``multiprocessing`` processes, parameter shards live in
``multiprocessing.shared_memory``, and one server process per node runs the
simulator's own protocol handlers, all behind the same API as the simulator.

The example runs the same small DSGD matrix-factorization job on both
backends and prints the statistical-equivalence comparison: the final loss
agrees (bit-for-bit for this barrier-synchronized workload) and the
deterministic access/relocation counters are exactly equal, while wall-clock
epoch time replaces simulated time.  It is a check as well as a tour: a loss
that is not bit-equal or a counter that differs makes it exit non-zero.

Run with::

    PYTHONPATH=src python examples/real_backend.py
"""

import multiprocessing
import sys

from repro.experiments.runner import MFScale, run_mf_experiment

SCALE = MFScale(num_rows=128, num_cols=32, num_entries=1500, rank=8)


def run(system: str, backend: str):
    return run_mf_experiment(
        system,
        num_nodes=2,
        workers_per_node=1,
        scale=SCALE,
        epochs=2,
        compute_loss=True,
        seed=0,
        backend=backend,
    )


def main() -> int:
    if "fork" not in multiprocessing.get_all_start_methods():
        print("the real backend needs the fork start method (Linux); skipping")
        return 0

    mismatches = 0
    for system in ("classic", "lapse"):
        sim = run(system, "sim")
        real = run(system, "real")
        print(f"=== {system}: 2 nodes x 1 worker process, {SCALE.num_entries} entries ===")
        marker = "==" if sim.final_loss == real.final_loss else "!="
        mismatches += marker == "!="
        print(f"  final loss      sim={sim.final_loss:.12f} {marker} real={real.final_loss:.12f}")
        print(f"  epoch duration  sim={sim.epoch_duration * 1e3:8.2f} ms (simulated)"
              f"  real={real.epoch_duration * 1e3:8.2f} ms (wall clock)")
        for counter in ("localize_calls", "localized_keys", "relocations",
                        "pulls_local", "pulls_remote", "pushes_local", "pushes_remote"):
            sim_value = getattr(sim.metrics, counter)
            real_value = getattr(real.metrics, counter)
            marker = "==" if sim_value == real_value else "!="
            mismatches += marker == "!="
            print(f"  {counter:<16} sim={sim_value:<8} {marker} real={real_value}")
        # Which MF path ran: entries of block visits the shared-memory lane
        # took as one kernel call each / entries of the per-entry loop.
        print(f"  fused/declined   sim={sim.fused_steps}/{sim.declined_steps}"
              f"  real={real.fused_steps}/{real.declined_steps}")
        print()
    if mismatches:
        print(f"FAILED: {mismatches} value(s) differ between the backends")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
