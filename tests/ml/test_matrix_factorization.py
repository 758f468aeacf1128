"""Tests for DSGD matrix factorization on all PS variants and the low-level baseline."""

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_matrix
from repro.errors import ExperimentError
from repro.manual import LowLevelDSGD, LowLevelDSGDConfig
from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer
from repro.ps import ClassicPS, ClassicSharedMemoryPS, LapsePS, StalePS


RANK = 4


def build_trainer(ps_cls, num_nodes=2, workers_per_node=2, num_rows=24, num_cols=16,
                  num_entries=150, seed=0, **ps_kwargs):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=seed)
    matrix = generate_matrix(num_rows, num_cols, num_entries, rank=RANK, seed=seed)
    ps_config = ParameterServerConfig(num_keys=num_cols, value_length=RANK, **ps_kwargs)
    ps = ps_cls(cluster, ps_config)
    config = MatrixFactorizationConfig(rank=RANK, learning_rate=0.05, compute_time_per_entry=1e-6)
    return MatrixFactorizationTrainer(ps, matrix, config, seed=seed), ps, matrix


class TestMatrixFactorizationOnLapse:
    def test_loss_decreases_over_epochs(self):
        trainer, ps, matrix = build_trainer(LapsePS)
        initial_loss = trainer.training_rmse()
        results = trainer.train(num_epochs=3)
        assert results[-1].loss < initial_loss
        assert results[0].loss > results[-1].loss or results[-1].loss < 0.5

    def test_epoch_durations_positive_and_monotone_time(self):
        trainer, ps, _ = build_trainer(LapsePS)
        results = trainer.train(num_epochs=2, compute_loss=False)
        assert all(r.duration > 0 for r in results)
        assert results[1].end_time > results[0].end_time

    def test_parameter_blocking_makes_accesses_local(self):
        trainer, ps, _ = build_trainer(LapsePS)
        trainer.train(num_epochs=1, compute_loss=False)
        metrics = ps.metrics()
        assert metrics.local_read_fraction > 0.95
        assert metrics.relocations > 0

    def test_column_factors_shape(self):
        trainer, ps, matrix = build_trainer(LapsePS)
        factors = trainer.column_factors()
        assert factors.shape == (matrix.num_cols, RANK)


class TestMatrixFactorizationOnOtherPS:
    def test_classic_ps_converges_but_uses_remote_access(self):
        trainer, ps, _ = build_trainer(ClassicSharedMemoryPS)
        initial_loss = trainer.training_rmse()
        results = trainer.train(num_epochs=2)
        assert results[-1].loss < initial_loss
        assert ps.metrics().key_reads_remote > 0

    def test_classic_slower_than_lapse(self):
        lapse_trainer, lapse_ps, _ = build_trainer(LapsePS)
        classic_trainer, classic_ps, _ = build_trainer(ClassicSharedMemoryPS)
        lapse_time = lapse_trainer.train(num_epochs=1, compute_loss=False)[0].duration
        classic_time = classic_trainer.train(num_epochs=1, compute_loss=False)[0].duration
        assert classic_time > lapse_time

    def test_stale_ps_converges(self):
        trainer, ps, _ = build_trainer(StalePS, staleness_bound=1)
        initial_loss = trainer.training_rmse()
        results = trainer.train(num_epochs=2)
        assert results[-1].loss < initial_loss
        assert ps.metrics().clock_advances > 0

    def test_same_seed_same_initialization_across_variants(self):
        trainer_a, _, _ = build_trainer(LapsePS, seed=3)
        trainer_b, _, _ = build_trainer(ClassicPS, seed=3)
        np.testing.assert_allclose(trainer_a.row_factors, trainer_b.row_factors)
        np.testing.assert_allclose(trainer_a.column_factors(), trainer_b.column_factors())


class TestDataPartitioning:
    def test_entries_partitioned_by_row_block_and_column_block(self):
        trainer, _, matrix = build_trainer(LapsePS)  # 4 workers, 24 rows, 16 columns
        entries = trainer._plan(4).entries
        assert sorted(np.concatenate(list(entries.values())).tolist()) == list(
            range(len(matrix.rows))
        )
        rows_of_worker = {}
        for (worker, block), indices in entries.items():
            assert np.all(matrix.rows[indices] // 6 == worker)
            assert np.all(matrix.cols[indices] // 4 == block)
            rows_of_worker.setdefault(worker, set()).update(matrix.rows[indices].tolist())
        # Each row's factors are touched by exactly one worker.
        assert sum(len(rows) for rows in rows_of_worker.values()) == len(
            set().union(*rows_of_worker.values())
        )

    def test_plans_are_cached_per_worker_count(self):
        trainer, _, matrix = build_trainer(LapsePS)
        assert trainer._plan(4).schedule is trainer.schedule
        plan = trainer._plan(3)  # an elastic epoch with three active workers
        assert trainer._plan(3) is plan
        assert plan.schedule.num_workers == plan.schedule.num_blocks == 3
        assert set(plan.entries) == {(w, b) for w in range(3) for b in range(3)}
        assert sorted(np.concatenate(list(plan.entries.values())).tolist()) == list(
            range(len(matrix.rows))
        )


class TestTrainerValidation:
    def test_key_space_mismatch_rejected(self):
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        matrix = generate_matrix(10, 10, 40, rank=RANK)
        ps = LapsePS(cluster, ParameterServerConfig(num_keys=99, value_length=RANK))
        with pytest.raises(ExperimentError):
            MatrixFactorizationTrainer(ps, matrix, MatrixFactorizationConfig(rank=RANK))

    def test_value_length_mismatch_rejected(self):
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        matrix = generate_matrix(10, 10, 40, rank=RANK)
        ps = LapsePS(cluster, ParameterServerConfig(num_keys=10, value_length=RANK + 1))
        with pytest.raises(ExperimentError):
            MatrixFactorizationTrainer(ps, matrix, MatrixFactorizationConfig(rank=RANK))

    def test_config_validation(self):
        with pytest.raises(ExperimentError):
            MatrixFactorizationConfig(rank=0)
        with pytest.raises(ExperimentError):
            MatrixFactorizationConfig(learning_rate=0)
        with pytest.raises(ExperimentError):
            MatrixFactorizationConfig(regularization=-1)
        with pytest.raises(ExperimentError):
            MatrixFactorizationConfig(init_scale=-0.1)
        assert MatrixFactorizationConfig(init_scale=0.0).init_scale == 0.0
        with pytest.raises(ExperimentError):
            MatrixFactorizationTrainer(
                LapsePS(
                    ClusterConfig(num_nodes=1, workers_per_node=1),
                    ParameterServerConfig(num_keys=10, value_length=RANK),
                ),
                generate_matrix(10, 10, 40, rank=RANK),
                MatrixFactorizationConfig(rank=RANK),
            ).train(num_epochs=0)


class TestLowLevelBaseline:
    def _build(self, num_nodes=2):
        cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=2, seed=0)
        matrix = generate_matrix(24, 16, 150, rank=RANK, seed=0)
        return LowLevelDSGD(cluster, matrix, LowLevelDSGDConfig(rank=RANK, compute_time_per_entry=1e-6))

    def test_loss_decreases(self):
        baseline = self._build()
        initial = baseline.training_rmse()
        results = baseline.train(num_epochs=3)
        assert results[-1].loss < initial

    def test_low_level_faster_than_lapse(self):
        baseline = self._build()
        lapse_trainer, _, _ = build_trainer(LapsePS)
        baseline_time = baseline.train(num_epochs=1, compute_loss=False)[0].duration
        lapse_time = lapse_trainer.train(num_epochs=1, compute_loss=False)[0].duration
        assert baseline_time < lapse_time

    def test_validation(self):
        with pytest.raises(ExperimentError):
            LowLevelDSGDConfig(rank=0)
        with pytest.raises(ExperimentError):
            LowLevelDSGDConfig(learning_rate=0)
        baseline = self._build()
        with pytest.raises(ExperimentError):
            baseline.train(num_epochs=0)
