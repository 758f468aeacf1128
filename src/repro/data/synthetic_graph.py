"""Synthetic knowledge graphs for the embedding experiments.

The paper trains RESCAL and ComplEx on DBpedia-500k: 490 598 entities,
573 relations, ~3 M triples.  This generator produces graphs with the same
*shape* at configurable scale: many entities, few relations, Zipf-skewed
entity participation (a few entities appear in many triples), and a skewed
relation distribution.  The skew is what produces localization conflicts on
frequently accessed entity embeddings (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataGenerationError


@dataclass(frozen=True)
class SyntheticKnowledgeGraph:
    """A set of (subject, relation, object) triples.

    Attributes:
        num_entities: Number of entities.
        num_relations: Number of relations.
        subjects / relations / objects: Parallel arrays, one entry per triple.
    """

    num_entities: int
    num_relations: int
    subjects: np.ndarray
    relations: np.ndarray
    objects: np.ndarray

    @property
    def num_triples(self) -> int:
        """Number of triples."""
        return len(self.relations)

    def triples(self) -> np.ndarray:
        """Return the triples as an array of shape (num_triples, 3)."""
        return np.column_stack([self.subjects, self.relations, self.objects])

    def entity_frequencies(self) -> np.ndarray:
        """Return how many triples each entity participates in (as subject or object)."""
        counts = np.zeros(self.num_entities, dtype=np.int64)
        np.add.at(counts, self.subjects, 1)
        np.add.at(counts, self.objects, 1)
        return counts


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def generate_knowledge_graph(
    num_entities: int = 1000,
    num_relations: int = 16,
    num_triples: int = 10_000,
    entity_skew: float = 0.8,
    relation_skew: float = 1.0,
    seed: int = 0,
) -> SyntheticKnowledgeGraph:
    """Generate a synthetic knowledge graph with Zipf-skewed usage.

    Args:
        num_entities: Number of entities (DBpedia-500k: ~490k).
        num_relations: Number of relations (DBpedia-500k: 573).
        num_triples: Number of triples (DBpedia-500k: ~3M).
        entity_skew: Zipf exponent of entity participation (0 = uniform).
        relation_skew: Zipf exponent of relation usage.
        seed: Random seed.
    """
    if num_entities < 2:
        raise DataGenerationError("need at least two entities")
    if num_relations < 1:
        raise DataGenerationError("need at least one relation")
    if num_triples < 1:
        raise DataGenerationError("need at least one triple")
    if entity_skew < 0 or relation_skew < 0:
        raise DataGenerationError("skew exponents must be non-negative")
    rng = np.random.default_rng(seed)
    entity_probs = _zipf_probabilities(num_entities, entity_skew)
    relation_probs = _zipf_probabilities(num_relations, relation_skew)
    # Shuffle which entity/relation ids are the frequent ones so that frequency
    # is not correlated with key order.
    entity_ids = rng.permutation(num_entities)
    relation_ids = rng.permutation(num_relations)
    subjects = entity_ids[rng.choice(num_entities, size=num_triples, p=entity_probs)]
    objects = entity_ids[rng.choice(num_entities, size=num_triples, p=entity_probs)]
    # Avoid self-loops where possible (shift the object by one entity).
    self_loops = subjects == objects
    objects = np.where(self_loops, (objects + 1) % num_entities, objects)
    relations = relation_ids[rng.choice(num_relations, size=num_triples, p=relation_probs)]
    return SyntheticKnowledgeGraph(
        num_entities=num_entities,
        num_relations=num_relations,
        subjects=subjects.astype(np.int64),
        relations=relations.astype(np.int64),
        objects=objects.astype(np.int64),
    )
