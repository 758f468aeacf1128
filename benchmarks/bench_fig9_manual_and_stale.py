"""Figure 9: comparison to manual parameter management and to a stale PS.

Paper: matrix factorization with Lapse vs. Petuum (client-based SSP and
server-based SSPPush synchronization, including the slower warm-up epoch) vs.
a task-specific, hand-tuned low-level implementation.  The low-level
implementation and Lapse scale linearly (Lapse with 2.0-2.6x generalization
overhead); the stale PS is slower than Lapse and does not scale linearly.

Here: the same scaled-down MF workload as Figure 6, on the default cost
model: the parameters shrink but the bandwidth does not (see "Scaled-down
inputs" in docs/architecture.md).  Expected shape: low-level < Lapse <
stale (after warm-up) < stale (client sync), and the stale PS's warm-up epoch
is slower than its post-warm-up epochs.
"""

from benchmark_utils import PARALLELISM, WORKERS_PER_NODE, run_once

from repro.config import CostModel
from repro.experiments import MFScale, format_table
from repro.experiments.runner import run_mf_experiment
from repro.experiments.scenarios import epoch_time

SCALE = MFScale()
COST_MODEL = CostModel()


def test_figure9_manual_and_stale(benchmark):
    def run():
        rows = []
        for system in ("lapse", "lowlevel", "stale_ssp", "stale_ssppush"):
            epochs = 2 if system.startswith("stale") else 1
            for nodes in PARALLELISM:
                result = run_mf_experiment(
                    system,
                    num_nodes=nodes,
                    workers_per_node=WORKERS_PER_NODE,
                    scale=SCALE,
                    epochs=epochs,
                    cost_model=COST_MODEL,
                )
                label = system
                duration = result.epochs[-1].duration
                rows.append(
                    {
                        "system": label,
                        "parallelism": result.parallelism,
                        "epoch_time_s": duration,
                        "warmup_epoch_time_s": result.epochs[0].duration,
                    }
                )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            rows,
            title="Figure 9: MF epoch run time — Lapse vs low-level vs stale PS (simulated s)",
        )
    )

    def t(system, nodes):
        for row in rows:
            if row["system"] == system and row["parallelism"] == f"{nodes}x{WORKERS_PER_NODE}":
                return float(row["epoch_time_s"])
        raise AssertionError(f"missing row {system} {nodes}")

    def warmup(system, nodes):
        for row in rows:
            if row["system"] == system and row["parallelism"] == f"{nodes}x{WORKERS_PER_NODE}":
                return float(row["warmup_epoch_time_s"])
        raise AssertionError(f"missing row {system} {nodes}")

    # Both Lapse and the low-level implementation scale with the node count.
    assert t("lapse", 8) < t("lapse", 1)
    assert t("lowlevel", 8) < t("lowlevel", 1)
    # Lapse has a bounded generalization overhead over the specialized
    # low-level implementation (paper: 2.0-2.6x).
    overhead = t("lapse", 8) / t("lowlevel", 8)
    assert 1.0 < overhead < 5.0
    # Client-based synchronization (SSP) is clearly slower than Lapse at scale
    # because of the synchronous per-clock replica refreshes.
    assert t("stale_ssp", 8) > 1.2 * t("lapse", 8)
    # Server-based synchronization beats client-based synchronization after its
    # warm-up epoch, and the warm-up epoch is slower than the steady state.
    # (The paper additionally finds SSPPush 2-4x slower than Lapse; the gap is
    # not reproduced at this scale because the eagerly replicated state is tiny
    # relative to the simulated bandwidth — see "Scaled-down inputs" in
    # docs/architecture.md.)
    assert t("stale_ssppush", 8) < t("stale_ssp", 8)
    assert t("stale_ssppush", 8) > 0.8 * t("lapse", 8)
    assert warmup("stale_ssppush", 8) > t("stale_ssppush", 8)
    print(f"\nLapse generalization overhead over the low-level implementation at 8 nodes: {overhead:.2f}x")
