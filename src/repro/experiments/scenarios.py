"""Scenario presets mapping the paper's figures to scaled-down sweeps.

Every figure of the evaluation is a sweep of *systems* over *parallelism
levels* for one workload.  The helpers here run such a sweep and return rows
(dicts) ready for :func:`repro.experiments.reporting.format_table` and for the
shape assertions in the benchmark suite.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.durability import DurabilityConfig
from repro.errors import ExperimentError
from repro.experiments.runner import (
    KGEScale,
    MFScale,
    TaskRunResult,
    W2VScale,
    make_elastic_mf,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)

#: Parallelism levels of the paper's evaluation (1x4 ... 8x4), scaled to the
#: number of simulated nodes.
DEFAULT_PARALLELISM = (1, 2, 4, 8)


def _result_rows(results: Iterable[TaskRunResult]) -> List[Dict[str, object]]:
    rows = []
    for result in results:
        rows.append(
            {
                "task": result.task,
                "system": result.system,
                "backend": result.backend,
                "parallelism": result.parallelism,
                "epoch_time_s": result.epoch_duration,
                "loss": result.final_loss if result.final_loss is not None else "",
                "remote_messages": result.remote_messages,
                "local_read_fraction": (
                    result.metrics.local_read_fraction if result.metrics else ""
                ),
            }
        )
    return rows


def matrix_factorization_scenario(
    systems: Sequence[str],
    parallelism: Sequence[int] = DEFAULT_PARALLELISM,
    scale: Optional[MFScale] = None,
    epochs: int = 1,
    compute_loss: bool = False,
    seed: int = 0,
    workers_per_node: int = 4,
    backend: str = "sim",
) -> List[Dict[str, object]]:
    """Sweep for the matrix-factorization figures (Figures 6 and 9).

    ``backend="real"`` runs the sweep on actual worker processes (classic,
    classic_fast_local, lapse); epoch times are then wall-clock seconds.
    """
    if not systems:
        raise ExperimentError("at least one system is required")
    results = []
    for system in systems:
        for num_nodes in parallelism:
            results.append(
                run_mf_experiment(
                    system,
                    num_nodes=num_nodes,
                    workers_per_node=workers_per_node,
                    scale=scale,
                    epochs=epochs,
                    compute_loss=compute_loss,
                    seed=seed,
                    backend=backend,
                )
            )
    return _result_rows(results)


def kge_scenario(
    systems: Sequence[str],
    model: str = "complex",
    parallelism: Sequence[int] = DEFAULT_PARALLELISM,
    scale: Optional[KGEScale] = None,
    epochs: int = 1,
    compute_loss: bool = False,
    seed: int = 0,
    workers_per_node: int = 4,
) -> List[Dict[str, object]]:
    """Sweep for the knowledge-graph-embedding figures (Figures 1 and 7)."""
    if not systems:
        raise ExperimentError("at least one system is required")
    results = []
    for system in systems:
        for num_nodes in parallelism:
            results.append(
                run_kge_experiment(
                    system,
                    num_nodes=num_nodes,
                    workers_per_node=workers_per_node,
                    model=model,
                    scale=scale,
                    epochs=epochs,
                    compute_loss=compute_loss,
                    seed=seed,
                )
            )
    return _result_rows(results)


def word2vec_scenario(
    systems: Sequence[str],
    parallelism: Sequence[int] = DEFAULT_PARALLELISM,
    scale: Optional[W2VScale] = None,
    epochs: int = 1,
    compute_error: bool = False,
    seed: int = 0,
    workers_per_node: int = 4,
) -> List[Dict[str, object]]:
    """Sweep for the word-vector figure (Figure 8)."""
    if not systems:
        raise ExperimentError("at least one system is required")
    results = []
    for system in systems:
        for num_nodes in parallelism:
            results.append(
                run_w2v_experiment(
                    system,
                    num_nodes=num_nodes,
                    workers_per_node=workers_per_node,
                    scale=scale,
                    epochs=epochs,
                    compute_error=compute_error,
                    seed=seed,
                )
            )
    return _result_rows(results)


#: Systems compared by the elastic scaling scenario: the inelastic static
#: baseline vs. relocation (Lapse) vs. the hybrid (which adds replicas the
#: failure path can recover from).
ELASTIC_SCALING_SYSTEMS = ("classic", "lapse", "hybrid")


def elastic_scaling_scenario(
    systems: Sequence[str] = ELASTIC_SCALING_SYSTEMS,
    scale: Optional[MFScale] = None,
    seed: int = 0,
    workers_per_node: int = 2,
    capacity: int = 3,
    initial_nodes: Sequence[int] = (0, 1),
    join_node: int = 2,
    drain_node: int = 1,
    inject_failure: bool = True,
) -> List[Dict[str, object]]:
    """One full elastic lifecycle per system on the MF workload.

    Phases (one epoch each): **baseline** on the initial nodes; **join** —
    ``join_node`` joins mid-epoch (the rebalancer migrates its key share via
    the relocation protocol while training runs); **post-join** with the
    grown cluster; **drain** — ``drain_node`` starts a graceful drain
    mid-epoch; **post-drain** without it; and, when ``inject_failure`` is set
    and the policy can recover, a **failure** phase: standby replicas are
    provisioned (:meth:`~repro.cluster.ElasticCluster.ensure_backups`),
    ``join_node`` crashes, and a final epoch runs on what is left.

    Under the hybrid policy the failure loses nothing (all keys are recovered
    from replicas); under pure relocation every key the failed node owned is
    lost; the static classic PS cannot rebalance at all — its join adds only
    workers, and its drained node keeps serving keys forever.
    """
    if not systems:
        raise ExperimentError("at least one system is required")
    rows = []
    for system in systems:
        rows.append(
            _elastic_lifecycle_row(
                system,
                scale=scale,
                seed=seed,
                workers_per_node=workers_per_node,
                capacity=capacity,
                initial_nodes=initial_nodes,
                join_node=join_node,
                drain_node=drain_node,
                inject_failure=inject_failure,
            )
        )
    return rows


def _elastic_lifecycle_row(
    system: str,
    scale: Optional[MFScale],
    seed: int,
    workers_per_node: int,
    capacity: int,
    initial_nodes: Sequence[int],
    join_node: int,
    drain_node: int,
    inject_failure: bool,
) -> Dict[str, object]:
    elastic, trainer = make_elastic_mf(
        system,
        num_nodes=capacity,
        initial_nodes=initial_nodes,
        scale=scale,
        workers_per_node=workers_per_node,
        seed=seed,
    )
    ps = elastic.ps

    def epoch() -> float:
        return elastic.run_epoch(trainer, compute_loss=False).duration

    baseline = epoch()
    elastic.join_at(ps.simulated_time + 0.5 * baseline, join_node)
    join_epoch = epoch()
    post_join = epoch()
    elastic.drain_at(ps.simulated_time + 0.5 * post_join, drain_node)
    drain_epoch = epoch()
    post_drain = epoch()
    post_failure: object = ""
    recovered: object = ""
    lost: object = ""
    can_fail = inject_failure and elastic.rebalancer.supports_rebalance
    if can_fail:
        elastic.ensure_backups()
        elastic.fail_at(ps.simulated_time, join_node)
        post_failure = epoch()
        recovered = elastic.recovered_keys
        lost = elastic.lost_keys
    metrics = ps.metrics()
    return {
        "system": system,
        "baseline_epoch_s": baseline,
        "join_epoch_s": join_epoch,
        "post_join_epoch_s": post_join,
        "drain_epoch_s": drain_epoch,
        "post_drain_epoch_s": post_drain,
        "post_failure_epoch_s": post_failure,
        "rebalanced_keys": metrics.rebalanced_keys,
        "mean_rebalance_time_s": metrics.rebalance_time.mean,
        "relocations": metrics.relocations,
        "recovered_keys": recovered,
        "lost_keys": lost,
        "remote_messages": ps.network.stats.remote_messages,
        "bytes_sent": ps.network.stats.bytes_sent,
        "dropped_messages": ps.network.stats.dropped_messages,
        "drain_node_state": elastic.membership.state_of(drain_node),
        "sim_time_s": ps.simulated_time,
    }


#: Systems compared by the durability scenario: the static classic PS (the
#: WAL is inert — recovery needs re-homing), pure relocation (the paper's
#: headline system, which durability makes crash-survivable), and the hybrid
#: (replicas and the durable log feed one recovery path).
DURABILITY_RECOVERY_SYSTEMS = ("classic", "lapse", "hybrid")


def durability_recovery_scenario(
    systems: Sequence[str] = DURABILITY_RECOVERY_SYSTEMS,
    scale: Optional[MFScale] = None,
    seed: int = 0,
    workers_per_node: int = 2,
    capacity: int = 3,
    fail_node: int = 2,
    durability: Optional[Any] = None,
) -> List[Dict[str, object]]:
    """Crash-and-restart under durability, per system, on the MF workload.

    Each system runs twice with the same seed: a failure-free *reference*
    without durability, and a *durable* run (WAL + checkpoints installed)
    that crashes ``fail_node`` at the first epoch boundary and restarts it
    immediately (``fail`` + ``rejoin`` at one boundary).  For
    WAL-recovery-capable systems the row asserts the headline property of
    the subsystem: no key is lost and the recovered run's final model
    parameters are **bit-identical** to the failure-free reference — the
    checkpoint + WAL-suffix replay reproduced every parameter exactly.  For
    the static classic PS no failure is injected (recovery requires
    re-homing); its row instead demonstrates that the installed WAL is
    behavior-inert.
    """
    if not systems:
        raise ExperimentError("at least one system is required")
    return [
        _durability_recovery_row(
            system,
            scale=scale,
            seed=seed,
            workers_per_node=workers_per_node,
            capacity=capacity,
            fail_node=fail_node,
            durability=durability,
        )
        for system in systems
    ]


def _durability_recovery_row(
    system: str,
    scale: Optional[MFScale],
    seed: int,
    workers_per_node: int,
    capacity: int,
    fail_node: int,
    durability: Optional[Any],
) -> Dict[str, object]:
    config = durability if durability is not None else DurabilityConfig()

    # Failure-free reference, durability off: the comparison target for both
    # the recovery-exactness and the durability-is-inert claims.
    reference, reference_trainer = make_elastic_mf(
        system,
        num_nodes=capacity,
        scale=scale,
        workers_per_node=workers_per_node,
        seed=seed,
    )
    for _ in range(3):
        reference.run_epoch(reference_trainer, compute_loss=False)
    reference_params = reference.ps.all_parameters()

    elastic, trainer = make_elastic_mf(
        system,
        num_nodes=capacity,
        scale=scale,
        workers_per_node=workers_per_node,
        seed=seed,
        durability=config,
    )
    ps = elastic.ps

    def epoch() -> float:
        return elastic.run_epoch(trainer, compute_loss=False).duration

    baseline = epoch()
    fail_injected = elastic.rebalancer.supports_wal_recovery
    if fail_injected:
        now = ps.simulated_time
        elastic.fail_at(now, fail_node)
        elastic.rejoin_at(now, fail_node)
    recovery_epoch = epoch()
    final_epoch = epoch()
    metrics = ps.metrics()
    return {
        "system": system,
        "fail_injected": fail_injected,
        "baseline_epoch_s": baseline,
        "recovery_epoch_s": recovery_epoch,
        "final_epoch_s": final_epoch,
        "lost_keys": elastic.lost_keys,
        "recovered_keys": elastic.recovered_keys,
        "wal_recovered_keys": metrics.wal_recovered_keys,
        "replayed_deltas": metrics.replayed_deltas,
        "wal_appends": metrics.wal_appends,
        "wal_bytes": metrics.wal_bytes,
        "checkpoints": metrics.checkpoints,
        "params_match_reference": bool(
            np.array_equal(ps.all_parameters(), reference_params)
        ),
        "fail_node_state": elastic.membership.state_of(fail_node),
        "dropped_messages": ps.network.stats.dropped_messages,
        "sim_time_s": ps.simulated_time,
    }


def epoch_time(rows: List[Dict[str, object]], system: str, parallelism: str) -> float:
    """Look up the epoch run time of ``system`` at ``parallelism`` in scenario rows."""
    for row in rows:
        if row["system"] == system and row["parallelism"] == parallelism:
            return float(row["epoch_time_s"])
    raise ExperimentError(f"no row for system={system!r} parallelism={parallelism!r}")
