"""Tests for the skip-gram word-vector trainer."""

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_corpus
from repro.errors import ExperimentError
from repro.ml import Word2VecConfig, Word2VecTrainer
from repro.ps import ClassicSharedMemoryPS, LapsePS


def build_trainer(ps_cls, num_nodes=2, workers_per_node=1, vocabulary_size=40,
                  num_sentences=20, seed=0, **config_kwargs):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=seed)
    corpus = generate_corpus(
        vocabulary_size=vocabulary_size,
        num_sentences=num_sentences,
        mean_sentence_length=6,
        seed=seed,
    )
    config = Word2VecConfig(
        dim=4,
        window=2,
        num_negatives=2,
        presample_size=16,
        presample_refresh=8,
        compute_time_per_pair=2e-6,
        **config_kwargs,
    )
    ps = ps_cls(
        cluster,
        ParameterServerConfig(num_keys=2 * vocabulary_size, value_length=config.dim),
    )
    return Word2VecTrainer(ps, corpus, config, seed=seed), ps, corpus


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ExperimentError):
            Word2VecConfig(dim=0)
        with pytest.raises(ExperimentError):
            Word2VecConfig(window=0)
        with pytest.raises(ExperimentError):
            Word2VecConfig(num_negatives=0)
        with pytest.raises(ExperimentError):
            Word2VecConfig(learning_rate=0)
        with pytest.raises(ExperimentError):
            Word2VecConfig(num_negatives=10, presample_size=5)
        with pytest.raises(ExperimentError):
            Word2VecConfig(presample_refresh=0)
        with pytest.raises(ExperimentError):
            Word2VecConfig(compute_time_per_pair=-1e-6)
        with pytest.raises(ExperimentError):
            Word2VecConfig(init_scale=-0.1)
        assert Word2VecConfig(compute_time_per_pair=0.0).compute_time_per_pair == 0.0

    def test_key_space_mismatch_rejected(self):
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        corpus = generate_corpus(vocabulary_size=10, num_sentences=5)
        ps = LapsePS(cluster, ParameterServerConfig(num_keys=5, value_length=4))
        with pytest.raises(ExperimentError):
            Word2VecTrainer(ps, corpus, Word2VecConfig(dim=4))


class TestKeyMapping:
    def test_input_output_keys_disjoint(self):
        trainer, _, corpus = build_trainer(LapsePS)
        input_keys = {trainer.input_key(w) for w in range(corpus.vocabulary_size)}
        output_keys = {trainer.output_key(w) for w in range(corpus.vocabulary_size)}
        assert input_keys.isdisjoint(output_keys)
        assert max(output_keys) == 2 * corpus.vocabulary_size - 1


class TestDataPartitioning:
    def test_sentences_dealt_round_robin_over_workers(self):
        trainer, _, corpus = build_trainer(LapsePS, num_nodes=2, workers_per_node=2)
        for worker in range(4):
            dealt = trainer._worker_sentences[worker]
            expected = corpus.sentences[worker::4]
            assert len(dealt) == len(expected)
            for got, want in zip(dealt, expected):
                np.testing.assert_array_equal(got, want)
        assert sum(len(trainer._worker_sentences[w]) for w in range(4)) == len(corpus.sentences)

    def test_more_workers_than_sentences_leaves_workers_idle(self):
        trainer, ps, _ = build_trainer(
            LapsePS, num_nodes=2, workers_per_node=2, num_sentences=3
        )
        assert trainer._worker_sentences[3] == []
        result = trainer.run_epoch()
        assert result.duration > 0
        assert np.isfinite(result.loss)


class TestTraining:
    def test_error_decreases_over_epochs(self):
        trainer, ps, _ = build_trainer(LapsePS, num_sentences=30)
        initial_error = trainer.evaluation_error()
        results = trainer.train(num_epochs=3)
        assert results[-1].loss < initial_error

    def test_latency_hiding_keeps_reads_mostly_local(self):
        trainer, ps, _ = build_trainer(LapsePS)
        trainer.train(num_epochs=1, compute_error=False)
        metrics = ps.metrics()
        assert metrics.local_read_fraction > 0.7
        assert metrics.localize_calls > 0

    def test_classic_ps_runs_and_is_slower(self):
        lapse_trainer, _, _ = build_trainer(LapsePS, seed=1)
        classic_trainer, _, _ = build_trainer(ClassicSharedMemoryPS, seed=1, latency_hiding=False)
        lapse_time = lapse_trainer.train(num_epochs=1, compute_error=False)[0].duration
        classic_time = classic_trainer.train(num_epochs=1, compute_error=False)[0].duration
        assert classic_time > lapse_time

    def test_embeddings_shape(self):
        trainer, _, corpus = build_trainer(LapsePS)
        inputs, outputs = trainer.embeddings()
        assert inputs.shape == (corpus.vocabulary_size, 4)
        assert outputs.shape == (corpus.vocabulary_size, 4)

    def test_epoch_results_metadata(self):
        trainer, _, _ = build_trainer(LapsePS)
        results = trainer.train(num_epochs=2, compute_error=False)
        assert [r.epoch for r in results] == [0, 1]
        assert all(r.duration > 0 for r in results)

    def test_invalid_epoch_count(self):
        trainer, _, _ = build_trainer(LapsePS)
        with pytest.raises(ExperimentError):
            trainer.train(num_epochs=0)
