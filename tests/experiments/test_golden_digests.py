"""Golden digests: checked-in fingerprints of whole runs, per system and engine.

The other witnesses of the simulator's behaviour compare two runs of the
*same* checkout: the fused-vs-withheld oracle (``tests/ml/test_mf_kernel.py``)
runs a trainer with and without its fused runner, ``test_fastpath_identity``
runs each small cell against one event at a time (heap-only kernel, runner
withheld), and the ``jobs=2`` sweeps (``test_parallel_identity``) run the
sequential engine against the sharded one.  A change that moves both sides
together goes unnoticed there.  This file pins each run to a digest recorded on an earlier commit: every epoch
duration at full float precision, the remote message and byte counts, and
every scalar ``PSMetrics`` counter.  A refactor that claims to preserve
behaviour must leave ``golden_digests.json`` untouched.

Cells:

* ``small/<task>/<system>`` — 7 systems x MF/KGE/W2V at 2 nodes x 2 workers;
  one digest per cell, asserted on the sequential engine, on the heap-only
  kernel model of ``tests/simnet/reference_order.py`` (the order the
  kernel's ring claims to keep) and at ``jobs=2``;
* ``mid/<task>/<system>`` — KGE and W2V at 4 nodes x 2 workers, on the
  sequential engine and the heap-only model (the sharded engine diverges at
  this scale, see ``test_engine_identity_breaches``);
* ``elastic/<system>`` (a join and a drain mid-run) and ``durable/<system>``
  (crash and restart of one node under WAL + checkpoints) for ``lapse`` and
  ``hybrid``.

Regenerate, after an *intended* behaviour change only, with::

    PYTHONPATH=src python tests/experiments/test_golden_digests.py
"""

import hashlib
import json
import os
import sys

import pytest

from repro.cluster import ClusterSchedule
from repro.durability import DurabilityConfig
from repro.experiments import (
    KGEScale,
    MFScale,
    W2VScale,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)
from repro.experiments.runner import make_elastic_mf, run_elastic_mf_experiment

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "simnet"))
import reference_order  # noqa: E402

DATA_FILE = os.path.join(os.path.dirname(__file__), "golden_digests.json")

SYSTEMS = (
    "classic",
    "classic_fast_local",
    "lapse",
    "stale_ssp",
    "stale_ssppush",
    "replica",
    "hybrid",
)
ELASTIC_SYSTEMS = ("lapse", "hybrid")

MF = MFScale(num_rows=32, num_cols=16, num_entries=300, rank=4)
KGE = KGEScale(num_entities=40, num_relations=4, num_triples=60, entity_dim=2)
W2V = W2VScale(vocabulary_size=50, num_sentences=8)
MID_KGE = KGEScale(num_entities=200, num_triples=600)
MID_W2V = W2VScale(vocabulary_size=200, num_sentences=24)

SMALL = dict(num_nodes=2, workers_per_node=2)
MID = dict(num_nodes=4, workers_per_node=2)

SMALL_RUNS = {
    "mf": lambda system, **kw: run_mf_experiment(system, scale=MF, epochs=2, **SMALL, **kw),
    "kge": lambda system, **kw: run_kge_experiment(system, scale=KGE, epochs=1, **SMALL, **kw),
    "w2v": lambda system, **kw: run_w2v_experiment(system, scale=W2V, epochs=1, **SMALL, **kw),
}
MID_RUNS = {
    "kge": lambda system: run_kge_experiment(system, scale=MID_KGE, seed=0, **MID),
    "w2v": lambda system: run_w2v_experiment(system, scale=MID_W2V, seed=0, **MID),
}


def fingerprint(durations, remote_messages, bytes_sent, metrics, **extra):
    """The digest of one run plus the few facts worth reading in a diff."""
    record = {
        "epoch_s": [repr(duration) for duration in durations],
        "remote_messages": remote_messages,
        "bytes_sent": bytes_sent,
        "metrics": {name: repr(value) for name, value in sorted(metrics.as_dict().items())},
        **extra,
    }
    blob = json.dumps(record, sort_keys=True).encode()
    return {
        "digest": hashlib.sha256(blob).hexdigest(),
        "epoch_s": record["epoch_s"],
        "remote_messages": remote_messages,
    }


def of_result(result):
    return fingerprint(
        [epoch.duration for epoch in result.epochs],
        result.remote_messages,
        result.bytes_sent,
        result.metrics,
    )


def elastic_cell(system):
    """Node 2 joins during epoch 1, node 1 drains during epoch 2."""
    schedule = ClusterSchedule().join(0.002, node=2).drain(0.008, node=1)
    result = run_elastic_mf_experiment(
        system,
        num_nodes=3,
        initial_nodes=(0, 1),
        schedule=schedule,
        scale=MF,
        workers_per_node=2,
        epochs=3,
    )
    return of_result(result)


def durable_cell(system):
    """Node 2 crashes and restarts at the first epoch boundary."""
    elastic, trainer = make_elastic_mf(
        system,
        num_nodes=3,
        scale=MF,
        workers_per_node=2,
        seed=1,
        durability=DurabilityConfig(),
    )
    ps = elastic.ps
    durations = [elastic.run_epoch(trainer, compute_loss=False).duration]
    now = ps.simulated_time
    elastic.fail_at(now, 2)
    elastic.rejoin_at(now, 2)
    durations.append(elastic.run_epoch(trainer, compute_loss=False).duration)
    durations.append(elastic.run_epoch(trainer, compute_loss=False).duration)
    return fingerprint(
        durations,
        ps.network.stats.remote_messages,
        ps.network.stats.bytes_sent,
        ps.metrics(),
        lost_keys=elastic.lost_keys,
        recovered_keys=elastic.recovered_keys,
        parameters=hashlib.sha256(ps.all_parameters().tobytes()).hexdigest(),
    )


def load_golden():
    with open(DATA_FILE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture()
def heap_only(monkeypatch):
    """Build every server on the plain ``(time, sequence)`` heap kernel."""
    monkeypatch.setattr("repro.ps.base.Simulator", reference_order.HeapOnlySimulator)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("task", sorted(SMALL_RUNS))
class TestSmallCells:
    def test_fast_engine(self, task, system, golden):
        assert of_result(SMALL_RUNS[task](system)) == golden[f"small/{task}/{system}"]

    def test_heap_only_kernel(self, task, system, golden, heap_only):
        assert of_result(SMALL_RUNS[task](system)) == golden[f"small/{task}/{system}"]

    def test_jobs2(self, task, system, golden):
        result = SMALL_RUNS[task](system, jobs=2)
        assert result.effective_jobs == 2
        assert of_result(result) == golden[f"small/{task}/{system}"]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("task", sorted(MID_RUNS))
def test_mid_scale_fast_engine(task, system, golden):
    assert of_result(MID_RUNS[task](system)) == golden[f"mid/{task}/{system}"]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("task", sorted(MID_RUNS))
def test_mid_scale_heap_only_kernel(task, system, golden, heap_only):
    assert of_result(MID_RUNS[task](system)) == golden[f"mid/{task}/{system}"]


@pytest.mark.parametrize("system", ELASTIC_SYSTEMS)
def test_elastic_join_and_drain(system, golden):
    assert elastic_cell(system) == golden[f"elastic/{system}"]


@pytest.mark.parametrize("system", ELASTIC_SYSTEMS)
def test_durable_fail_and_rejoin(system, golden):
    cell = durable_cell(system)
    assert cell == golden[f"durable/{system}"]


def generate():
    """Every cell on the sequential engine (the one ``jobs=2`` must agree with)."""
    cells = {}
    for task, run in SMALL_RUNS.items():
        for system in SYSTEMS:
            cells[f"small/{task}/{system}"] = of_result(run(system))
    for task, run in MID_RUNS.items():
        for system in SYSTEMS:
            cells[f"mid/{task}/{system}"] = of_result(run(system))
    for system in ELASTIC_SYSTEMS:
        cells[f"elastic/{system}"] = elastic_cell(system)
        cells[f"durable/{system}"] = durable_cell(system)
    return cells


if __name__ == "__main__":
    with open(DATA_FILE, "w") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA_FILE}")
