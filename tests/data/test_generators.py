"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import generate_corpus, generate_knowledge_graph, generate_matrix
from repro.errors import DataGenerationError


class TestSyntheticMatrix:
    def test_basic_shape(self):
        matrix = generate_matrix(num_rows=50, num_cols=40, num_entries=300, rank=4, seed=0)
        assert matrix.num_rows == 50
        assert matrix.num_cols == 40
        assert 0 < matrix.num_entries <= 300
        assert matrix.rows.max() < 50
        assert matrix.cols.max() < 40
        assert matrix.true_row_factors.shape == (50, 4)

    def test_deterministic_per_seed(self):
        a = generate_matrix(20, 20, 100, seed=1)
        b = generate_matrix(20, 20, 100, seed=1)
        c = generate_matrix(20, 20, 100, seed=2)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_allclose(a.values, b.values)
        assert not np.array_equal(a.rows, c.rows) or not np.allclose(a.values, c.values)

    def test_values_close_to_low_rank_model(self):
        matrix = generate_matrix(30, 30, 200, rank=4, noise=0.01, seed=0)
        predicted = np.einsum(
            "ij,ij->i",
            matrix.true_row_factors[matrix.rows],
            matrix.true_col_factors[matrix.cols],
        )
        assert np.abs(matrix.values - predicted).mean() < 0.05

    def test_no_duplicate_positions(self):
        matrix = generate_matrix(10, 10, 80, seed=3)
        positions = set(zip(matrix.rows.tolist(), matrix.cols.tolist()))
        assert len(positions) == matrix.num_entries

    def test_validation(self):
        with pytest.raises(DataGenerationError):
            generate_matrix(0, 10, 10)
        with pytest.raises(DataGenerationError):
            generate_matrix(10, 10, 0)
        with pytest.raises(DataGenerationError):
            generate_matrix(10, 10, 1000)
        with pytest.raises(DataGenerationError):
            generate_matrix(10, 10, 10, rank=0)


class TestSyntheticKnowledgeGraph:
    def test_basic_shape(self):
        graph = generate_knowledge_graph(num_entities=100, num_relations=8, num_triples=500, seed=0)
        assert graph.num_triples == 500
        assert graph.subjects.max() < 100
        assert graph.relations.max() < 8
        assert graph.triples().shape == (500, 3)

    def test_skewed_entity_usage(self):
        graph = generate_knowledge_graph(
            num_entities=200, num_relations=4, num_triples=5000, entity_skew=1.0, seed=0
        )
        frequencies = np.sort(graph.entity_frequencies())[::-1]
        # The most frequent entity should appear far more often than the median.
        assert frequencies[0] > 10 * max(1, np.median(frequencies))

    def test_uniform_when_skew_zero(self):
        graph = generate_knowledge_graph(
            num_entities=50, num_relations=4, num_triples=5000, entity_skew=0.0, seed=0
        )
        frequencies = graph.entity_frequencies()
        assert frequencies.max() < 5 * frequencies.mean()

    def test_no_self_loops(self):
        graph = generate_knowledge_graph(num_entities=10, num_relations=2, num_triples=1000, seed=1)
        assert (graph.subjects != graph.objects).all()

    def test_deterministic(self):
        a = generate_knowledge_graph(seed=7)
        b = generate_knowledge_graph(seed=7)
        np.testing.assert_array_equal(a.triples(), b.triples())

    def test_validation(self):
        with pytest.raises(DataGenerationError):
            generate_knowledge_graph(num_entities=1)
        with pytest.raises(DataGenerationError):
            generate_knowledge_graph(num_relations=0)
        with pytest.raises(DataGenerationError):
            generate_knowledge_graph(num_triples=0)
        with pytest.raises(DataGenerationError):
            generate_knowledge_graph(entity_skew=-1)


class TestSyntheticCorpus:
    def test_basic_shape(self):
        corpus = generate_corpus(vocabulary_size=100, num_sentences=20, seed=0)
        assert corpus.num_sentences == 20
        assert corpus.num_tokens > 0
        assert all(sentence.max() < 100 for sentence in corpus.sentences)
        assert all(len(sentence) >= 2 for sentence in corpus.sentences)

    def test_zipf_skew(self):
        corpus = generate_corpus(vocabulary_size=500, num_sentences=400, skew=1.0, seed=0)
        frequencies = np.sort(corpus.word_frequencies())[::-1]
        assert frequencies[0] > 20 * max(1.0, np.median(frequencies))

    def test_unigram_distribution_sums_to_one(self):
        corpus = generate_corpus(vocabulary_size=50, num_sentences=30, seed=0)
        distribution = corpus.unigram_distribution()
        assert distribution.shape == (50,)
        assert distribution.sum() == pytest.approx(1.0)

    def test_deterministic(self):
        a = generate_corpus(seed=3)
        b = generate_corpus(seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.sentences, b.sentences))

    def test_validation(self):
        with pytest.raises(DataGenerationError):
            generate_corpus(vocabulary_size=1)
        with pytest.raises(DataGenerationError):
            generate_corpus(num_sentences=0)
        with pytest.raises(DataGenerationError):
            generate_corpus(mean_sentence_length=1)
        with pytest.raises(DataGenerationError):
            generate_corpus(skew=-0.5)
