"""Experiment harness: build clusters, run the paper's experiments, report results.

* :mod:`repro.experiments.runner` — construct a PS variant by name, run one of
  the three ML tasks on it at a given parallelism, and collect run time,
  loss, PS metrics and network traffic,
* :mod:`repro.experiments.scenarios` — the scaled-down workload presets used to
  regenerate every figure and table of the paper,
* :mod:`repro.experiments.reporting` — plain-text tables for benchmark output.
"""

from repro.experiments.reporting import (
    LATENCY_COUNTERS,
    MANAGEMENT_COUNTERS,
    format_table,
    metrics_rows,
    speedup,
)
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
from repro.experiments.scenarios import (
    DEFAULT_PARALLELISM,
    ELASTIC_SCALING_SYSTEMS,
    elastic_scaling_scenario,
    kge_scenario,
    matrix_factorization_scenario,
    word2vec_scenario,
)

__all__ = [
    "DEFAULT_PARALLELISM",
    "ELASTIC_SCALING_SYSTEMS",
    "KGEScale",
    "LATENCY_COUNTERS",
    "MANAGEMENT_COUNTERS",
    "MFScale",
    "SYSTEMS",
    "TaskRunResult",
    "W2VScale",
    "elastic_scaling_scenario",
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
