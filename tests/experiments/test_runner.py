"""Tests for the experiment runner, scenarios, and reporting helpers."""

import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.errors import ExperimentError
from repro.experiments import (
    KGEScale,
    MFScale,
    W2VScale,
    format_table,
    make_parameter_server,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
    speedup,
)
from repro.experiments.runner import HYBRID_HOT_KEY_THRESHOLD
from repro.experiments.scenarios import epoch_time, matrix_factorization_scenario
from repro.ps import (
    ClassicIPCPS,
    ClassicSharedMemoryPS,
    HybridPS,
    LapsePS,
    ReplicaPS,
    StalePS,
)

TINY_MF = MFScale(num_rows=24, num_cols=16, num_entries=120, rank=4, compute_time_per_entry=1e-6)
TINY_KGE = KGEScale(num_entities=30, num_relations=4, num_triples=40, entity_dim=2,
                    compute_time_per_triple=1e-6)
TINY_W2V = W2VScale(vocabulary_size=40, num_sentences=10, mean_sentence_length=4,
                    dim=4, compute_time_per_pair=1e-6, presample_size=10, presample_refresh=8)


class TestMakeParameterServer:
    def test_known_systems(self):
        cluster = ClusterConfig(num_nodes=2, workers_per_node=1)
        config = ParameterServerConfig(num_keys=8, value_length=2)
        assert isinstance(make_parameter_server("classic", cluster, config), ClassicIPCPS)
        assert isinstance(
            make_parameter_server("classic_fast_local", cluster, config), ClassicSharedMemoryPS
        )
        assert isinstance(make_parameter_server("lapse", cluster, config), LapsePS)
        ssp = make_parameter_server("stale_ssp", cluster, config)
        ssppush = make_parameter_server("stale_ssppush", cluster, config)
        assert isinstance(ssp, StalePS) and not ssp.ps_config.stale_server_push
        assert isinstance(ssppush, StalePS) and ssppush.ps_config.stale_server_push
        replica = make_parameter_server("replica", cluster, config)
        replica_clock = make_parameter_server("replica_clock", cluster, config)
        assert isinstance(replica, ReplicaPS)
        assert replica.ps_config.replica_sync_trigger == "time"
        assert isinstance(replica_clock, ReplicaPS)
        assert replica_clock.ps_config.replica_sync_trigger == "clock"
        hybrid = make_parameter_server("hybrid", cluster, config)
        assert isinstance(hybrid, HybridPS)
        assert hybrid.ps_config.hot_key_threshold > 1

    def test_hybrid_pins_its_sync_trigger_and_threshold(self):
        cluster = ClusterConfig(num_nodes=2, workers_per_node=1)
        config = ParameterServerConfig(
            num_keys=8, value_length=2, replica_sync_trigger="clock", hot_key_threshold=5
        )
        hybrid = make_parameter_server("hybrid", cluster, config)
        assert hybrid.ps_config.replica_sync_trigger == "time"
        assert hybrid.ps_config.hot_key_threshold == HYBRID_HOT_KEY_THRESHOLD
        assert hybrid.states[0].policy.threshold == HYBRID_HOT_KEY_THRESHOLD

    def test_replica_keeps_the_callers_threshold(self):
        cluster = ClusterConfig(num_nodes=2, workers_per_node=1)
        config = ParameterServerConfig(num_keys=8, value_length=2, hot_key_threshold=5)
        for system in ("replica", "replica_clock"):
            ps = make_parameter_server(system, cluster, config)
            assert all(state.policy.threshold == 5 for state in ps.states)

    def test_unknown_system_rejected(self):
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        config = ParameterServerConfig(num_keys=8, value_length=2)
        with pytest.raises(ExperimentError):
            make_parameter_server("mystery", cluster, config)


class TestRunners:
    @pytest.mark.parametrize(
        "system",
        ["classic", "classic_fast_local", "lapse", "stale_ssp", "lowlevel", "replica", "replica_clock", "hybrid"],
    )
    def test_mf_runs_on_every_system(self, system):
        result = run_mf_experiment(system, num_nodes=2, workers_per_node=1, scale=TINY_MF)
        assert result.task == "matrix_factorization"
        assert result.system == system
        assert result.epoch_duration > 0
        assert result.parallelism == "2x1"

    @pytest.mark.parametrize(
        "system", ["classic_fast_local", "lapse", "lapse_clustering_only", "replica", "hybrid"]
    )
    def test_kge_runs(self, system):
        result = run_kge_experiment(system, num_nodes=2, workers_per_node=1, scale=TINY_KGE)
        assert result.task == "kge_complex"
        assert result.epoch_duration > 0

    def test_kge_rescal_model(self):
        result = run_kge_experiment("lapse", num_nodes=1, workers_per_node=1, model="rescal", scale=TINY_KGE)
        assert result.task == "kge_rescal"

    @pytest.mark.parametrize("system", ["lapse", "replica", "hybrid"])
    def test_w2v_runs(self, system):
        result = run_w2v_experiment(system, num_nodes=2, workers_per_node=1, scale=TINY_W2V)
        assert result.task == "word2vec"
        assert result.epoch_duration > 0

    def test_replica_reports_replication_metrics(self):
        result = run_mf_experiment("replica", num_nodes=2, workers_per_node=1, scale=TINY_MF)
        assert result.metrics.replica_creates > 0
        assert result.metrics.replica_sync_rounds > 0
        assert result.metrics.replica_sync_bytes > 0

    def test_loss_computation_optional(self):
        with_loss = run_mf_experiment(
            "lapse", num_nodes=1, workers_per_node=1, scale=TINY_MF, compute_loss=True
        )
        without_loss = run_mf_experiment(
            "lapse", num_nodes=1, workers_per_node=1, scale=TINY_MF, compute_loss=False
        )
        assert with_loss.final_loss is not None
        assert without_loss.final_loss is None

    def test_kge_durability_is_installed_and_inert(self):
        from repro.durability import DurabilityConfig

        run = dict(num_nodes=2, workers_per_node=2, scale=TINY_KGE, epochs=2)
        plain = run_kge_experiment("lapse", **run)
        durable = run_kge_experiment("lapse", durability=DurabilityConfig(), **run)
        assert plain.metrics.wal_appends == 0
        assert durable.metrics.wal_appends > 0
        # Verified steps decline on a logged store only where a write reaches
        # a node's next checkpoint, and none falls due in a run this short.
        assert (durable.fused_steps, durable.declined_steps) == (
            plain.fused_steps,
            plain.declined_steps,
        )
        assert [e.duration for e in durable.epochs] == [e.duration for e in plain.epochs]
        assert durable.remote_messages == plain.remote_messages
        assert durable.bytes_sent == plain.bytes_sent

    def test_lowlevel_has_no_ps_metrics(self):
        """It has no PS metrics, but reports the block messages it ships."""
        result = run_mf_experiment(
            "lowlevel", num_nodes=2, workers_per_node=1, scale=TINY_MF, epochs=2
        )
        assert result.metrics is None
        # One block message per worker in the one cross-node subepoch.
        assert result.remote_messages == 2 * 2
        assert result.bytes_sent > 0
        single = run_mf_experiment(
            "lowlevel", num_nodes=1, workers_per_node=2, scale=TINY_MF, epochs=2
        )
        assert (single.remote_messages, single.bytes_sent) == (0, 0)

    def test_deterministic_given_seed(self):
        a = run_mf_experiment("lapse", num_nodes=2, workers_per_node=1, scale=TINY_MF, seed=5)
        b = run_mf_experiment("lapse", num_nodes=2, workers_per_node=1, scale=TINY_MF, seed=5)
        assert a.epoch_duration == pytest.approx(b.epoch_duration)
        assert a.remote_messages == b.remote_messages


class TestScenarios:
    def test_scenario_rows_and_lookup(self):
        rows = matrix_factorization_scenario(
            systems=["lapse", "classic_fast_local"],
            parallelism=(1, 2),
            scale=TINY_MF,
            epochs=1,
        )
        assert len(rows) == 4
        assert {row["system"] for row in rows} == {"lapse", "classic_fast_local"}
        value = epoch_time(rows, "lapse", "2x4")
        assert value > 0
        with pytest.raises(ExperimentError):
            epoch_time(rows, "lapse", "16x4")

    def test_empty_systems_rejected(self):
        with pytest.raises(ExperimentError):
            matrix_factorization_scenario(systems=[], scale=TINY_MF)


class TestReporting:
    def test_format_table(self):
        rows = [
            {"system": "lapse", "time": 0.5},
            {"system": "classic", "time": 12.25},
        ]
        text = format_table(rows, title="Example")
        assert "Example" in text
        assert "lapse" in text and "classic" in text
        assert "12.25" in text

    def test_format_table_empty_rejected(self):
        with pytest.raises(ExperimentError):
            format_table([])

    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        with pytest.raises(ExperimentError):
            speedup(1.0, 0.0)


class TestMergeMetrics:
    """Regression tests: merging asymmetric per-node metrics (elastic clusters)."""

    def test_merges_full_metrics(self):
        from repro.ps import PSMetrics

        a = PSMetrics(pulls_local=3, relocations=1)
        b = PSMetrics(pulls_local=2, recovered_keys=4)
        merged = PSMetrics.aggregate([a, b])
        assert merged.pulls_local == 5
        assert merged.relocations == 1
        assert merged.recovered_keys == 4

    def test_new_counters_participate_in_psmetrics_merge(self):
        from repro.ps import PSMetrics

        a = PSMetrics(rebalance_rounds=1, recovered_keys=2, lost_keys=1)
        a.rebalance_time.record(0.25)
        b = PSMetrics(rebalance_rounds=2)
        merged = a.merge(b)
        assert merged.rebalance_rounds == 3
        assert merged.recovered_keys == 2
        assert merged.lost_keys == 1
        assert merged.rebalance_time.count == 1
        assert merged.as_dict()["mean_rebalance_time"] == pytest.approx(0.25)
