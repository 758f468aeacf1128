"""Import discipline: what a run loads, and when.

One fresh interpreter (no module cached from other tests) checks four rules:

* No run imports ``numpy.ma``.  ``np.unique`` without ``return_index``
  imports it on NumPy 2.4, which costs every process about 1.2 MB of RSS and
  13 ms.
* The five packages the benchmark imports load the core runtime only; the
  optional subsystems, the tasks, their datasets and PAL techniques, and
  Lapse load where a run builds them.
* Building MF on ``classic``, the first cell, loads no other task and no
  Lapse.
* Nothing is first imported inside training: each cell is built, then
  trained, and the training call must leave ``sys.modules`` as it found it.

The cells are tiny MF on classic and on Lapse, elastic and durable MF (with
a join, a drain and a crash), KGE, W2V, MF at ``jobs=2`` and MF on the real
backend.
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
import repro.data, repro.durability, repro.experiments.runner, repro.ml, repro.obs
core = sorted(name for name in sys.modules if name.startswith("repro"))
from repro.config import ClusterConfig, ParameterServerConfig
from repro.experiments.runner import MFScale, make_elastic_mf, make_parameter_server

def ps(system, num_keys, value_length, **options):
    cluster = ClusterConfig(num_nodes=2, workers_per_node=2)
    return make_parameter_server(system, cluster, ParameterServerConfig(num_keys, value_length), **options)

def mf(system, **options):
    from repro.data import generate_matrix
    from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer
    server = ps(system, 16, 4, **options)
    matrix = generate_matrix(32, 16, 300, rank=4, seed=0)
    return server, MatrixFactorizationTrainer(server, matrix, MatrixFactorizationConfig(rank=4))

def elastic_mf():
    from repro.cluster import ClusterSchedule
    from repro.durability import DurabilityConfig
    schedule = ClusterSchedule().join(0.002, node=3).drain(0.004, node=1).fail(0.006, node=2)
    return make_elastic_mf(
        "lapse", num_nodes=4, initial_nodes=(0, 1, 2), schedule=schedule,
        scale=MFScale(num_rows=32, num_cols=16, num_entries=300, rank=4), workers_per_node=2,
        durability=DurabilityConfig(checkpoint_interval=0.002),
    )

def kge():
    from repro.data import generate_knowledge_graph
    from repro.ml import KGEConfig, KGETrainer
    from repro.ml.kge import KGEKeySpace
    graph = generate_knowledge_graph(num_entities=40, num_relations=4, num_triples=60, seed=0)
    config = KGEConfig(entity_dim=2)
    server = ps("lapse", KGEKeySpace(graph, config).num_keys, config.value_length)
    return server, KGETrainer(server, graph, config)

def w2v():
    from repro.data import generate_corpus
    from repro.ml import Word2VecConfig, Word2VecTrainer
    corpus = generate_corpus(vocabulary_size=50, num_sentences=8, seed=0)
    config = Word2VecConfig(dim=4)
    server = ps("lapse", 100, 4)
    return server, Word2VecTrainer(server, corpus, config)

cells = {
    "mf_classic": (lambda: mf("classic"), lambda b: b[1].train(compute_loss=True)),
    "mf_lapse": (lambda: mf("lapse"), lambda b: b[1].train(compute_loss=True)),
    "mf_elastic_durable": (
        elastic_mf, lambda b: [b[0].run_epoch(b[1], compute_loss=True) for _ in range(2)]
    ),
    "kge": (kge, lambda b: b[1].train(compute_loss=True)),
    "w2v": (w2v, lambda b: b[1].train(compute_error=True)),
    "mf_jobs2": (lambda: mf("classic", jobs=2), lambda b: b[1].train()),
    "mf_real": (lambda: mf("lapse", backend="real"), lambda b: b[1].train()),
}
loaded, built_with = {}, {}
for name, (build, train) in cells.items():
    built = build()
    modules = set(sys.modules)
    built_with[name] = sorted(module for module in modules if module.startswith("repro"))
    train(built)
    loaded[name] = sorted(set(sys.modules) - modules)
    getattr(built[0], "shutdown", lambda: None)()
print(json.dumps({
    "before": before, "after": "numpy.ma" in sys.modules, "core": core, "loaded": loaded,
    "built_with": built_with,
}))
"""

#: Optional subsystems: no benchmark package may load them at import.
_OPTIONAL = (
    "repro.backend",
    "repro.cluster",
    "repro.durability.checkpoint",
    "repro.durability.recovery",
    "repro.durability.wal",
    "repro.experiments.reporting",
    "repro.experiments.scenarios",
    "repro.manual",
    "repro.obs.core",
    "repro.obs.export",
    "repro.ps.hybrid",
    "repro.ps.replica",
    "repro.ps.stale",
    "repro.simnet.parallel",
)

#: Loaded where a run builds its task or system, never by the package import.
_TASKS_AND_LAPSE = (
    "repro.data.",
    "repro.ml.kge",
    "repro.ml.matrix_factorization",
    "repro.ml.word2vec",
    "repro.pal",
    "repro.ps.lapse",
)

#: What an MF run on ``classic`` never executes.
_NOT_MF_CLASSIC = ("repro.ml.kge", "repro.ml.word2vec", "repro.ps.lapse")


@pytest.fixture(scope="module")
def seen():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.splitlines()[-1])


def test_runs_do_not_import_numpy_ma(seen):
    if seen["before"]:
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert not seen["after"]


def test_benchmark_packages_load_only_the_core(seen):
    optional = [
        name
        for name in seen["core"]
        if any(name == module or name.startswith(module + ".") for module in _OPTIONAL)
    ]
    assert optional == []
    tasks = [name for name in seen["core"] if name.startswith(_TASKS_AND_LAPSE)]
    assert tasks == []
    assert len(seen["core"]) <= 29


def test_classic_mf_builds_no_other_task_and_no_lapse(seen):
    built_with = seen["built_with"]["mf_classic"]
    assert {"repro.ml.matrix_factorization", "repro.ps.classic"} <= set(built_with)
    assert [name for name in built_with if name.startswith(_NOT_MF_CLASSIC)] == []


def test_no_module_is_first_imported_inside_training(seen):
    assert seen["loaded"] == {name: [] for name in seen["loaded"]}
    assert len(seen["loaded"]) == 7
