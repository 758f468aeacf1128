"""Metamorphic relation: the simulator has no hidden unit of time.

Every simulated duration is built from the cost model's constants, the
workload's compute time per step and the PS's sync interval.  Doubling all
of them (and halving the bandwidth, so a message's transfer time doubles
too) must therefore double every epoch exactly while sending the same
messages: scaling by a power of two is exact in floating point.  A cell that
breaks the relation names a time constant the scaled set below misses.

The scaled set:

* every :class:`~repro.config.CostModel` field, ``network_bandwidth``
  divided instead of multiplied;
* the task's compute time per entry, triple or pair;
* ``ParameterServerConfig.replica_sync_interval`` (``replica`` and
  ``hybrid`` re-arm their sync loop with it);
* membership event times and ``DurabilityConfig.checkpoint_interval``.
"""

from dataclasses import fields, replace
from functools import partial

import pytest

from repro.cluster import ClusterSchedule
from repro.config import CostModel, ParameterServerConfig
from repro.durability import DurabilityConfig
from repro.experiments import runner
from repro.experiments.runner import (
    SYSTEMS,
    KGEScale,
    MFScale,
    W2VScale,
    run_elastic_mf_experiment,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)

MF = MFScale(num_rows=40, num_cols=24, num_entries=300, rank=4)
KGE = KGEScale(num_entities=40, num_relations=4, num_triples=60, entity_dim=2)
W2V = W2VScale(vocabulary_size=50, num_sentences=8)
SYNC_INTERVAL = ParameterServerConfig(num_keys=1, value_length=1).replica_sync_interval


def cost(factor):
    base = CostModel()
    scaled = {field.name: getattr(base, field.name) * factor for field in fields(CostModel)}
    return CostModel(**{**scaled, "network_bandwidth": base.network_bandwidth / factor})


def mf(system, factor, run=run_mf_experiment, num_nodes=2, **options):
    scale = replace(MF, compute_time_per_entry=MF.compute_time_per_entry * factor)
    return run(system, num_nodes=num_nodes, workers_per_node=2, scale=scale, epochs=2,
               cost_model=cost(factor), **options)


def kge(system, factor):
    scale = replace(KGE, compute_time_per_triple=KGE.compute_time_per_triple * factor)
    return run_kge_experiment(system, num_nodes=2, workers_per_node=2, scale=scale, epochs=2,
                              cost_model=cost(factor))


def w2v(system, factor):
    scale = replace(W2V, compute_time_per_pair=W2V.compute_time_per_pair * factor)
    return run_w2v_experiment(system, num_nodes=2, workers_per_node=2, scale=scale, epochs=2,
                              cost_model=cost(factor))


def join(factor):
    """Node 2 joins during the first epoch; ``hybrid`` also syncs replicas."""
    schedule = ClusterSchedule().join(0.002 * factor, node=2)
    return mf("hybrid", factor, run_elastic_mf_experiment, num_nodes=3, initial_nodes=(0, 1),
              schedule=schedule)


def crash_rejoin(factor):
    """Node 2 crashes and restarts mid-run (held to the epoch boundary) and
    recovers from its checkpoint and log."""
    at = 0.002 * factor
    return mf("lapse", factor, run_elastic_mf_experiment, num_nodes=3,
              schedule=ClusterSchedule().fail(at, node=2).rejoin(at, node=2),
              durability=DurabilityConfig(checkpoint_interval=0.001 * factor))


CELLS = {
    **{f"mf/{system}": partial(mf, system) for system in SYSTEMS},
    **{f"{task.__name__}/{system}": partial(task, system)
       for task in (kge, w2v) for system in ("classic", "lapse")},
    "elastic/join": join,
    "durable/crash-rejoin": crash_rejoin,
}


@pytest.mark.parametrize("cell", CELLS)
def test_doubling_every_time_constant_doubles_every_epoch(cell, monkeypatch):
    runs = []
    for factor in (1, 2):
        # The runners build their PS config with the default sync interval.
        monkeypatch.setattr(runner, "ParameterServerConfig", partial(
            ParameterServerConfig, replica_sync_interval=SYNC_INTERVAL * factor))
        runs.append(CELLS[cell](factor))
    first, second = runs
    assert [2 * epoch.duration for epoch in first.epochs] == [
        epoch.duration for epoch in second.epochs
    ]
    assert first.remote_messages == second.remote_messages
