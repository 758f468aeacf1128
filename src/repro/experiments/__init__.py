"""Experiment harness: build clusters, run the paper's experiments, report results.

* :mod:`repro.experiments.runner` — construct a PS variant by name, run one of
  the three ML tasks on it at a given parallelism, and collect run time,
  loss, PS metrics and network traffic; ``make_elastic_mf`` builds the MF run
  that elastic and durable lifecycles drive epoch by epoch,
* :mod:`repro.experiments.scenarios` — the sweeps of systems over parallelism
  behind the paper's figures,
* :mod:`repro.experiments.reporting` — plain-text tables for benchmark output.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports
from repro.experiments.runner import (
    SYSTEMS,
    KGEScale,
    MFScale,
    TaskRunResult,
    W2VScale,
    make_elastic_mf,
    make_parameter_server,
    run_elastic_mf_experiment,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)

if TYPE_CHECKING:
    from repro.experiments.reporting import LATENCY_COUNTERS, MANAGEMENT_COUNTERS, format_table
    from repro.experiments.reporting import metrics_rows, speedup
    from repro.experiments.scenarios import DEFAULT_PARALLELISM, kge_scenario
    from repro.experiments.scenarios import matrix_factorization_scenario, word2vec_scenario

#: The figure presets and table helpers load on first access.
__getattr__ = lazy_exports(__name__, {
    "repro.experiments.reporting": (
        "LATENCY_COUNTERS", "MANAGEMENT_COUNTERS", "format_table", "metrics_rows", "speedup"
    ),
    "repro.experiments.scenarios": (
        "DEFAULT_PARALLELISM", "kge_scenario", "matrix_factorization_scenario",
        "word2vec_scenario",
    ),
})

__all__ = [
    "DEFAULT_PARALLELISM",
    "KGEScale",
    "LATENCY_COUNTERS",
    "MANAGEMENT_COUNTERS",
    "MFScale",
    "SYSTEMS",
    "TaskRunResult",
    "W2VScale",
    "format_table",
    "kge_scenario",
    "make_elastic_mf",
    "make_parameter_server",
    "matrix_factorization_scenario",
    "metrics_rows",
    "run_elastic_mf_experiment",
    "run_kge_experiment",
    "run_mf_experiment",
    "run_w2v_experiment",
    "speedup",
    "word2vec_scenario",
]
