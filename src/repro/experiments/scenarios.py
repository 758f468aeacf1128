"""Scenario presets mapping the paper's figures to scaled-down sweeps.

Every figure of the evaluation is a sweep of *systems* over *parallelism
levels* for one workload.  The helpers here run such a sweep and return rows
(dicts) ready for :func:`repro.experiments.reporting.format_table` and for the
shape assertions in the benchmark suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.runner import (
    KGEScale,
    MFScale,
    TaskRunResult,
    W2VScale,
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


def epoch_time(rows: List[Dict[str, object]], system: str, parallelism: str) -> float:
    """Look up the epoch run time of ``system`` at ``parallelism`` in scenario rows."""
    for row in rows:
        if row["system"] == system and row["parallelism"] == parallelism:
            return float(row["epoch_time_s"])
    raise ExperimentError(f"no row for system={system!r} parallelism={parallelism!r}")
