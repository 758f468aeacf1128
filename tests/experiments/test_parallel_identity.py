"""Bit-identity sweep: parallel shard engine vs the sequential kernel.

The parallel engine (``repro.simnet.parallel``) claims that forking the
simulated nodes across shard processes leaves results *bit-identical* to the
single-process kernel.  This sweep runs every system on every workload twice
— once with ``jobs=1``, once with ``jobs=2`` — and requires exact equality
of simulated epoch durations (full float precision), message and byte
counts, training losses, the aggregated PS metric counters, and (for MF)
the final model parameters.

``jobs=2`` forks two shard processes regardless of host core count, so the
determinism bar holds even on single-core CI runners; only a *speedup*
needs real parallel hardware, and ``bench/`` measures that
(workload ``mf_classic_jobs2``).
"""

import warnings

import numpy as np
import pytest

from repro.experiments import (
    KGEScale,
    MFScale,
    W2VScale,
    make_parameter_server,
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

#: Cluster shape shared by the sweep: four nodes so that jobs=2 gives each
#: shard two nodes (exercising both intra- and cross-shard traffic).
NODES = dict(num_nodes=4, workers_per_node=2, epochs=2, seed=3)


def _fingerprint(result):
    return (
        tuple(repr(epoch.duration) for epoch in result.epochs),
        tuple(repr(epoch.loss) for epoch in result.epochs),
        result.remote_messages,
        result.bytes_sent,
        result.metrics.as_dict() if result.metrics else None,
    )


@pytest.mark.parametrize("system", SYSTEMS)
def test_mf_identical(system):
    seq = run_mf_experiment(system, scale=MF, compute_loss=True, **NODES)
    par = run_mf_experiment(system, scale=MF, compute_loss=True, jobs=2, **NODES)
    assert par.jobs == 2
    assert _fingerprint(seq) == _fingerprint(par)


@pytest.mark.parametrize("system", SYSTEMS)
def test_kge_identical(system):
    seq = run_kge_experiment(system, scale=KGE, compute_loss=True, **NODES)
    par = run_kge_experiment(system, scale=KGE, compute_loss=True, jobs=2, **NODES)
    assert _fingerprint(seq) == _fingerprint(par)


@pytest.mark.parametrize("system", SYSTEMS)
def test_w2v_identical(system):
    seq = run_w2v_experiment(system, scale=W2V, compute_error=True, **NODES)
    par = run_w2v_experiment(system, scale=W2V, compute_error=True, jobs=2, **NODES)
    assert _fingerprint(seq) == _fingerprint(par)


def _train_mf(system, jobs):
    trainer = _mf_trainer(system, jobs)
    trainer.train(num_epochs=2, compute_loss=False)
    return trainer.column_factors(), trainer.row_factors


def _mf_trainer(system, jobs):
    from repro.config import ClusterConfig, ParameterServerConfig
    from repro.data import generate_matrix
    from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer

    cluster = ClusterConfig(num_nodes=4, workers_per_node=2)
    matrix = generate_matrix(num_rows=32, num_cols=16, num_entries=300, seed=3)
    ps = make_parameter_server(
        system,
        cluster,
        ParameterServerConfig(num_keys=matrix.num_cols, value_length=4),
        jobs=jobs,
    )
    return MatrixFactorizationTrainer(
        ps, matrix, MatrixFactorizationConfig(rank=4), seed=3
    )


@pytest.mark.parametrize("system", ("lapse", "hybrid"))
def test_mf_model_parameters_bit_identical(system):
    """Final model parameters match exactly, not just aggregate counters."""
    seq_cols, seq_rows = _train_mf(system, jobs=1)
    par_cols, par_rows = _train_mf(system, jobs=2)
    assert np.array_equal(seq_cols, par_cols)
    assert np.array_equal(seq_rows, par_rows)


def test_shards_report_one_window_round_count_per_epoch():
    """Window exchanges are framed — one message per peer per round — so
    every shard of an epoch reports the same positive round count."""
    trainer = _mf_trainer("classic", jobs=2)
    trainer.train(num_epochs=2, compute_loss=False)
    history = trainer.ps.shard_load_history
    assert len(history) == 2
    for epoch in history:
        first, second = epoch["window_rounds"]
        assert first == second > 0


def test_shard_load_history_entries_keep_their_contract():
    """Each epoch's entry has exactly these keys, and ``skew`` is the max over
    the mean of the shards' executed events (``bench/`` reads the last one)."""
    trainer = _mf_trainer("lapse", jobs=2)
    trainer.train(num_epochs=2, compute_loss=False)
    history = trainer.ps.shard_load_history
    assert len(history) == 2
    for epoch in history:
        assert set(epoch) == {"jobs", "shard_events", "window_rounds", "skew"}
        assert epoch["jobs"] == len(epoch["shard_events"]) == 2
        events = epoch["shard_events"]
        assert min(events) > 0
        assert epoch["skew"] == max(events) / (sum(events) / len(events))


def test_four_shards_identical():
    """More shards than strictly divide the cluster still merge identically."""
    seq = run_kge_experiment("lapse", scale=KGE, compute_loss=True, **NODES)
    par = run_kge_experiment("lapse", scale=KGE, compute_loss=True, jobs=4, **NODES)
    assert _fingerprint(seq) == _fingerprint(par)


def test_non_contiguous_plan_refork_identical(monkeypatch):
    """Every epoch re-forked from an interleaved plan still merges
    bit-identically: which shard runs a node never decides the event order,
    so contiguous plans lose nothing but wall-clock balance."""
    from repro.config import CostModel
    from repro.simnet import parallel

    interleaved = parallel.ShardPlan(
        num_shards=2,
        node_ranks={0: 0, 1: 1, 2: 0, 3: 1},
        shard_nodes=[[0, 2], [1, 3]],
        lookahead=CostModel().network_latency,
    )
    seq_cols, seq_rows = _train_mf("lapse", jobs=1)
    monkeypatch.setattr(parallel, "make_shard_plan", lambda *args: interleaved)
    par_cols, par_rows = _train_mf("lapse", jobs=2)
    assert np.array_equal(seq_cols, par_cols)
    assert np.array_equal(seq_rows, par_rows)


def _elastic_join_run(jobs):
    """Lapse MF on three of four nodes while node 3 joins mid-epoch."""
    from repro.cluster import ClusterSchedule
    from repro.experiments.runner import make_elastic_mf

    elastic, trainer = make_elastic_mf(
        "lapse",
        num_nodes=4,
        initial_nodes=(0, 1, 2),
        schedule=ClusterSchedule().join(0.002, node=3),
        scale=MF,
        workers_per_node=2,
    )
    elastic.ps.jobs = jobs
    epochs = [elastic.run_epoch(trainer, compute_loss=True) for _ in range(2)]
    stats = elastic.ps.network.stats
    fingerprint = (
        [(repr(epoch.duration), repr(epoch.loss)) for epoch in epochs],
        stats.remote_messages,
        stats.bytes_sent,
        elastic.ps.metrics().as_dict(),
        elastic.ps.all_parameters().tobytes(),
    )
    return elastic.ps, fingerprint


def test_elastic_and_durable_runs_fall_back_bit_identically():
    """Elastic clusters and durable stores run on the sequential engine at
    ``jobs=2``: the run records why, uses one shard, and equals ``jobs=1``."""
    from repro.durability import DurabilityConfig
    from repro.simnet.parallel import reset_fallback_warnings

    reset_fallback_warnings()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, elastic_seq = _elastic_join_run(jobs=1)
        ps, elastic_par = _elastic_join_run(jobs=2)
        durability = DurabilityConfig(checkpoint_interval=0.005)
        durable_seq = run_mf_experiment(
            "lapse", scale=MF, durability=durability, **NODES
        )
        durable_par = run_mf_experiment(
            "lapse", scale=MF, durability=durability, jobs=2, **NODES
        )
    reset_fallback_warnings()
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert any("elastic" in message for message in messages)
    assert any("durable" in message for message in messages)
    assert "elastic" in ps._last_fallback_reason
    assert ps._last_effective_jobs == 1
    assert not ps._elastic_driver.pending_events  # the join fired mid-epoch
    assert elastic_par == elastic_seq
    assert "durable" in durable_par.parallel_fallback_reason
    assert durable_par.effective_jobs == 1
    assert durable_par.metrics.wal_appends > 0
    assert _fingerprint(durable_par) == _fingerprint(durable_seq)
