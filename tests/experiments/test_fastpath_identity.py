"""Bit-identity sweep: engine fast paths vs the reference engine.

The hot-path overhaul (immediate-dispatch ring, event pool, callback tokens,
van/server sinks, message coalescing, fused worker steps) claims to leave
simulated results *bit-identical*.  This sweep runs every system on every
workload twice — once with the fast paths, once under
``REPRO_DISABLE_FASTPATH=1`` — and requires exact equality of simulated epoch
durations (full float precision), message and byte counts, training losses,
and (for MF) the aggregated PS metric counters.
"""

import numpy as np
import pytest

from repro.experiments import (
    KGEScale,
    MFScale,
    W2VScale,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)

#: Every PS variant of the runner that supports all three workloads.
SYSTEMS = (
    "classic",
    "classic_fast_local",
    "lapse",
    "stale_ssp",
    "stale_ssppush",
    "replica",
    "hybrid",
)

MF = MFScale(num_rows=32, num_cols=16, num_entries=300, rank=4)
KGE = KGEScale(num_entities=40, num_relations=4, num_triples=60, entity_dim=2)
W2V = W2VScale(vocabulary_size=50, num_sentences=8)


def _fingerprint(result):
    """Everything the overhaul must preserve, at full float precision."""
    return {
        "durations": tuple(repr(epoch.duration) for epoch in result.epochs),
        "losses": tuple(repr(epoch.loss) for epoch in result.epochs),
        "remote_messages": result.remote_messages,
        "bytes_sent": result.bytes_sent,
    }


def _run_both(monkeypatch, fn):
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    fast = fn()
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    reference = fn()
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    return fast, reference


@pytest.mark.parametrize("system", SYSTEMS)
def test_mf_bit_identical(system, monkeypatch):
    def run():
        return run_mf_experiment(
            system, num_nodes=2, workers_per_node=2, scale=MF, epochs=2
        )

    fast, reference = _run_both(monkeypatch, run)
    assert _fingerprint(fast) == _fingerprint(reference)
    # The fused/fast paths must also keep every PS metric counter intact
    # (local/remote split, latch accounting, relocation counts, ...).
    assert fast.metrics.as_dict() == reference.metrics.as_dict()


@pytest.mark.parametrize("system", SYSTEMS)
def test_kge_bit_identical(system, monkeypatch):
    def run():
        return run_kge_experiment(
            system, num_nodes=2, workers_per_node=2, scale=KGE, epochs=1
        )

    fast, reference = _run_both(monkeypatch, run)
    assert _fingerprint(fast) == _fingerprint(reference)


@pytest.mark.parametrize("system", SYSTEMS)
def test_w2v_bit_identical(system, monkeypatch):
    def run():
        return run_w2v_experiment(
            system, num_nodes=2, workers_per_node=2, scale=W2V, epochs=1
        )

    fast, reference = _run_both(monkeypatch, run)
    assert _fingerprint(fast) == _fingerprint(reference)


@pytest.mark.parametrize("system", ("lapse", "hybrid"))
def test_elastic_mf_bit_identical(system, monkeypatch):
    """Elastic lifecycles must match too, fused block visits included.

    The elastic runtime relocates keys *mid-epoch* (joins trigger rebalances
    while workers run), which would break the fused visits' privacy window;
    a visit therefore runs only its entries done before the next event, and
    none while a rebalance still moves one of its keys, and the remaining fast
    paths must stay bit-identical.
    """
    from repro.cluster import ClusterSchedule
    from repro.experiments.runner import run_elastic_mf_experiment

    def run():
        schedule = ClusterSchedule().join(0.002, node=2)
        return run_elastic_mf_experiment(
            system,
            num_nodes=3,
            initial_nodes=(0, 1),
            schedule=schedule,
            scale=MF,
            workers_per_node=2,
            epochs=2,
        )

    fast, reference = _run_both(monkeypatch, run)
    assert _fingerprint(fast) == _fingerprint(reference)
    assert fast.metrics.as_dict() == reference.metrics.as_dict()


def test_elastic_fusion_declines_only_entries_a_join_reaches(monkeypatch):
    """Visits fuse on an elastic cluster, except the entries of the visit a
    join falls into that end at or after it and begin before it has fired:
    the cut visit resumes right after the join, and the rebalance names none
    of the keys visited afterwards."""
    from repro.experiments.runner import make_elastic_mf

    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    elastic, trainer = make_elastic_mf(
        "lapse", num_nodes=3, initial_nodes=(0, 1), scale=MF, workers_per_node=2
    )
    entries = trainer.matrix.num_entries
    counts = []
    for index in range(3):
        if index == 1:
            elastic.join_at(elastic.ps.simulated_time + 0.4 * epoch.duration, node=2)
        fused, declined = trainer.fused_steps, trainer.declined_steps
        epoch = elastic.run_epoch(trainer, compute_loss=False)
        counts.append((trainer.fused_steps - fused, trainer.declined_steps - declined))
    assert counts[0] == counts[2] == (entries, 0)
    assert counts[1] == (entries - 1, 1)
    assert trainer.decline_reasons == {"membership event": 1}


def test_mf_model_parameters_bit_identical(monkeypatch):
    """Final model parameters match exactly for a fused-path system."""
    from repro.data import generate_matrix
    from repro.experiments import make_parameter_server
    from repro.config import ClusterConfig, ParameterServerConfig
    from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer

    def train():
        cluster = ClusterConfig(num_nodes=2, workers_per_node=2)
        matrix = generate_matrix(
            num_rows=MF.num_rows, num_cols=MF.num_cols, num_entries=MF.num_entries, seed=3
        )
        ps = make_parameter_server(
            "lapse",
            cluster,
            ParameterServerConfig(num_keys=matrix.num_cols, value_length=4),
        )
        trainer = MatrixFactorizationTrainer(
            ps, matrix, MatrixFactorizationConfig(rank=4), seed=3
        )
        trainer.train(num_epochs=2, compute_loss=False)
        return trainer.column_factors(), trainer.row_factors

    (fast_cols, fast_rows), (ref_cols, ref_rows) = _run_both(monkeypatch, train)
    assert np.array_equal(fast_cols, ref_cols)
    assert np.array_equal(fast_rows, ref_rows)
