"""No run imports ``numpy.ma``.

``np.unique`` without ``return_index`` imports ``numpy.ma`` on NumPy 2.4,
which costs every process about 1.2 MB of RSS and 13 ms.  One tiny MF, elastic
and durable MF (with a join, a drain and a crash), KGE and W2V run in a fresh
interpreter must leave it unimported.
"""

import json
import os
import subprocess
import sys

import pytest

_SCRIPT = """
import json, sys
import numpy
before = "numpy.ma" in sys.modules
from repro.cluster import ClusterSchedule
from repro.durability import DurabilityConfig
from repro.experiments.runner import (
    KGEScale, MFScale, W2VScale, run_elastic_mf_experiment, run_kge_experiment,
    run_mf_experiment, run_w2v_experiment,
)
mf = MFScale(num_rows=32, num_cols=16, num_entries=300, rank=4)
run_mf_experiment("lapse", num_nodes=2, scale=mf, workers_per_node=2, compute_loss=True)
run_elastic_mf_experiment(
    "lapse", num_nodes=4, initial_nodes=(0, 1, 2),
    schedule=ClusterSchedule().join(0.002, node=3).drain(0.004, node=1).fail(0.006, node=2),
    scale=mf, workers_per_node=2, epochs=2, compute_loss=True,
    durability=DurabilityConfig(checkpoint_interval=0.002),
)
run_kge_experiment(
    "lapse", num_nodes=2, workers_per_node=2, compute_loss=True,
    scale=KGEScale(num_entities=40, num_relations=4, num_triples=60, entity_dim=2),
)
run_w2v_experiment(
    "lapse", num_nodes=2, workers_per_node=2, compute_error=True,
    scale=W2VScale(vocabulary_size=50, num_sentences=8),
)
print(json.dumps({"before": before, "after": "numpy.ma" in sys.modules}))
"""


def test_runs_do_not_import_numpy_ma():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    seen = json.loads(completed.stdout.splitlines()[-1])
    if seen["before"]:
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert not seen["after"]
