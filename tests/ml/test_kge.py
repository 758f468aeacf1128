"""Tests for the knowledge-graph-embedding trainers (RESCAL and ComplEx)."""

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_knowledge_graph
from repro.errors import ExperimentError
from repro.ml import KGEConfig, KGETrainer
from repro.ml.kge import KGEKeySpace
from repro.ps import ClassicSharedMemoryPS, LapsePS


def build_kge(model="complex", num_nodes=2, workers_per_node=1, num_entities=30,
              num_relations=4, num_triples=80, entity_dim=3, seed=0, **config_kwargs):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=seed)
    graph = generate_knowledge_graph(
        num_entities=num_entities,
        num_relations=num_relations,
        num_triples=num_triples,
        seed=seed,
    )
    config = KGEConfig(
        model=model,
        entity_dim=entity_dim,
        num_negatives=2,
        compute_time_per_triple=5e-6,
        **config_kwargs,
    )
    keyspace = KGEKeySpace(graph, config)
    ps_config = ParameterServerConfig(
        num_keys=keyspace.num_keys, value_length=config.value_length
    )
    return graph, config


def build_trainer(ps_cls, model="complex", **kwargs):
    graph, config = build_kge(model=model, **kwargs)
    num_nodes = kwargs.get("num_nodes", 2)
    workers_per_node = kwargs.get("workers_per_node", 1)
    seed = kwargs.get("seed", 0)
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=seed)
    keyspace = KGEKeySpace(graph, config)
    ps = ps_cls(
        cluster,
        ParameterServerConfig(num_keys=keyspace.num_keys, value_length=config.value_length),
    )
    return KGETrainer(ps, graph, config, seed=seed), ps, graph, config


class TestKeySpace:
    def test_complex_layout(self):
        graph, config = build_kge(model="complex", entity_dim=3)
        keyspace = KGEKeySpace(graph, config)
        assert config.base_dim == 6
        assert config.keys_per_relation == 1
        assert keyspace.num_keys == graph.num_entities + graph.num_relations
        assert keyspace.relation_keys(0) == [graph.num_entities]

    def test_rescal_layout(self):
        graph, config = build_kge(model="rescal", entity_dim=3)
        keyspace = KGEKeySpace(graph, config)
        assert config.base_dim == 3
        assert config.keys_per_relation == 3
        assert keyspace.num_keys == graph.num_entities + 3 * graph.num_relations
        assert len(keyspace.relation_keys(1)) == 3

    def test_out_of_range_rejected(self):
        graph, config = build_kge()
        keyspace = KGEKeySpace(graph, config)
        with pytest.raises(ExperimentError):
            keyspace.relation_keys(10_000)

    def test_config_validation(self):
        with pytest.raises(ExperimentError):
            KGEConfig(model="transe")
        with pytest.raises(ExperimentError):
            KGEConfig(entity_dim=0)
        with pytest.raises(ExperimentError):
            KGEConfig(num_negatives=0)
        with pytest.raises(ExperimentError):
            KGEConfig(learning_rate=0)
        with pytest.raises(ExperimentError):
            KGEConfig(init_scale=-0.1)


def score_block(trainer, block):
    """Score the pair (row 0, row 1) with the relation in the remaining rows.

    Returns ``(score, gradients)``; ``gradients`` is aligned with ``block``:
    row 0 is d score / d subject, row 1 d score / d object, then the relation.
    """
    scores, gradients = trainer.score_pairs(
        block, np.array([0]), np.array([1]), np.arange(2, len(block))
    )
    return scores[0], gradients[0]


def assert_gradients_match_numerical(model, seed):
    trainer, _, _, config = build_trainer(LapsePS, model=model)
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(2 + config.keys_per_relation, config.base_dim))
    score, gradients = score_block(trainer, block)
    epsilon = 1e-6
    for index in np.ndindex(block.shape):
        bumped = block.copy()
        bumped[index] += epsilon
        numerical = (score_block(trainer, bumped)[0] - score) / epsilon
        assert numerical == pytest.approx(gradients[index], rel=1e-3, abs=1e-5)


class TestGradients:
    def test_rescal_score_matches_bilinear_form(self):
        trainer, _, _, config = build_trainer(LapsePS, model="rescal")
        rng = np.random.default_rng(0)
        d = config.entity_dim
        subject, obj = rng.normal(size=d), rng.normal(size=d)
        relation = rng.normal(size=(d, d))
        score, gradients = score_block(trainer, np.vstack([subject, obj, relation]))
        assert score == pytest.approx(subject @ relation @ obj)
        np.testing.assert_allclose(gradients[0], relation @ obj)
        np.testing.assert_allclose(gradients[1], relation.T @ subject)
        np.testing.assert_allclose(gradients[2:], np.outer(subject, obj))

    def test_complex_gradients_match_numerical(self):
        assert_gradients_match_numerical("complex", seed=1)

    def test_rescal_gradients_match_numerical(self):
        assert_gradients_match_numerical("rescal", seed=2)


def score_margin(trainer, graph, num_samples=100, seed=3):
    """Mean score of true triples minus mean score of random object corruptions."""
    rng = np.random.default_rng(seed)
    values = trainer._gather_values()
    indices = rng.choice(graph.num_triples, size=min(num_samples, graph.num_triples), replace=False)
    keys_per_relation = trainer.config.keys_per_relation
    relation_rows = (
        graph.num_entities
        + graph.relations[indices][:, None] * keys_per_relation
        + np.arange(keys_per_relation)
    )
    subjects = graph.subjects[indices]
    corrupted = rng.integers(0, graph.num_entities, size=len(indices))
    positives, _ = trainer.score_pairs(values, subjects, graph.objects[indices], relation_rows)
    negatives, _ = trainer.score_pairs(values, subjects, corrupted, relation_rows)
    return float(np.mean(positives) - np.mean(negatives))


def sorted_rows(array):
    return sorted(map(tuple, np.asarray(array).reshape(-1, 3).tolist()))


class TestDataPartitioning:
    def test_triples_dealt_round_robin_without_clustering(self):
        trainer, _, graph, _ = build_trainer(
            LapsePS, num_nodes=2, workers_per_node=2, data_clustering=False
        )
        triples = graph.triples()
        parts = [trainer._worker_triples[worker] for worker in range(4)]
        for worker, part in enumerate(parts):
            np.testing.assert_array_equal(part, triples[worker::4])
        assert sorted_rows(np.vstack(parts)) == sorted_rows(triples)

    def test_data_clustering_keeps_each_relation_on_one_node(self):
        trainer, _, graph, _ = build_trainer(
            LapsePS, num_nodes=2, workers_per_node=2, num_relations=5
        )
        for node in range(2):
            assert trainer._node_relations[node] == [r for r in range(5) if r % 2 == node]
        parts = []
        for worker in range(4):
            part = trainer._worker_triples[worker]
            assert np.all(part[:, 1] % 2 == worker // 2)  # relations of its node only
            parts.append(part)
        assert sorted_rows(np.vstack(parts)) == sorted_rows(graph.triples())


class TestTraining:
    def test_loss_decreases_complex(self):
        trainer, ps, _, _ = build_trainer(LapsePS, model="complex", num_triples=60)
        initial = trainer.evaluation_loss()
        results = trainer.train(num_epochs=2)
        assert results[-1].loss < initial

    @pytest.mark.parametrize("model", ["complex", "rescal"])
    def test_training_separates_true_from_corrupted_triples(self, model):
        trainer, ps, graph, _ = build_trainer(LapsePS, model=model, num_triples=60)
        margin_before = score_margin(trainer, graph)
        trainer.train(num_epochs=2, compute_loss=False)
        margin_after = score_margin(trainer, graph)
        assert margin_after > margin_before + 0.01

    def test_latency_hiding_makes_entity_accesses_mostly_local(self):
        trainer, ps, _, _ = build_trainer(LapsePS, model="complex")
        trainer.train(num_epochs=1, compute_loss=False)
        metrics = ps.metrics()
        assert metrics.local_read_fraction > 0.8
        assert metrics.relocations > 0

    def test_data_clustering_only_variant_runs(self):
        trainer, ps, _, _ = build_trainer(
            LapsePS, model="rescal", latency_hiding=False
        )
        results = trainer.train(num_epochs=1, compute_loss=False)
        assert results[0].duration > 0
        # Entity accesses are remote in this variant, relation accesses local.
        assert ps.metrics().key_reads_remote > 0

    def test_classic_ps_runs_and_is_slower(self):
        lapse_trainer, _, _, _ = build_trainer(LapsePS, model="complex", seed=2)
        classic_trainer, _, _, _ = build_trainer(ClassicSharedMemoryPS, model="complex", seed=2)
        lapse_time = lapse_trainer.train(num_epochs=1, compute_loss=False)[0].duration
        classic_time = classic_trainer.train(num_epochs=1, compute_loss=False)[0].duration
        assert classic_time > lapse_time

    def test_trainer_validation(self):
        graph, config = build_kge()
        cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
        bad_ps = LapsePS(cluster, ParameterServerConfig(num_keys=5, value_length=config.value_length))
        with pytest.raises(ExperimentError):
            KGETrainer(bad_ps, graph, config)
