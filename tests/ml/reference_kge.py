"""Scalar reference implementation of the KGE step: the oracle of the kernel.

This is the pair-at-a-time, key-at-a-time trainer the batched kernel in
:mod:`repro.ml.kge` replaced, kept here unchanged in everything that decides a
bit: one ``score_and_grads`` call per (subject, object) pair, one one-element
``sigmoid`` per score, per-key gradient dictionaries accumulated pair by pair
(subject, then object), a sequential relation-gradient sum, one AdaGrad step
per key, Python ``set``/``sorted`` key lists and per-key embedding draws.  The
masked ``sigmoid`` and the concatenating ``adagrad_update`` it was written
against are kept beside it.  ``tests/ml/test_kge_kernel.py`` holds the
production code to all of this bit for bit.
"""

from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.config import derive_seed
from repro.ml import KGEConfig, KGETrainer
from repro.ml.common import lane_counts, maybe_localize, needs_clock, supports_localize
from repro.ml.metrics import log_loss
from repro.ml.optim import AdaGradPacking
from repro.pal.latency_hiding import Prelocalizer


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, one masked branch per sign."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def adagrad_update(
    packing: AdaGradPacking,
    packed_value: np.ndarray,
    gradient: np.ndarray,
    learning_rate: float,
    epsilon: float = 1e-8,
) -> np.ndarray:
    """Cumulative PS update ``[step | squared gradient]`` of one AdaGrad step."""
    _, accumulator = packing.unpack(np.asarray(packed_value, dtype=np.float64))
    gradient = np.asarray(gradient, dtype=np.float64)
    squared = gradient * gradient
    new_accumulator = accumulator + squared
    step = -learning_rate * gradient / np.sqrt(new_accumulator + epsilon)
    return np.concatenate([step, squared], axis=-1)


def score_and_grads(
    config: KGEConfig,
    subject_vec: np.ndarray,
    relation_rows: np.ndarray,
    object_vec: np.ndarray,
) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Return (score, grad_subject, grad_relation_rows, grad_object) of one pair."""
    if config.model == "rescal":
        relation_matrix = relation_rows  # (d, d)
        score = float(subject_vec @ relation_matrix @ object_vec)
        grad_subject = relation_matrix @ object_vec
        grad_object = relation_matrix.T @ subject_vec
        grad_relation = np.outer(subject_vec, object_vec)
        return score, grad_subject, grad_relation, grad_object
    # ComplEx: vectors are [real | imaginary] halves of length d.
    d = config.entity_dim
    relation_vec = relation_rows[0]
    re_s, im_s = subject_vec[:d], subject_vec[d:]
    re_r, im_r = relation_vec[:d], relation_vec[d:]
    re_o, im_o = object_vec[:d], object_vec[d:]
    score = float(
        np.sum(re_r * (re_s * re_o + im_s * im_o) + im_r * (re_s * im_o - im_s * re_o))
    )
    grad_subject = np.concatenate([re_r * re_o + im_r * im_o, re_r * im_o - im_r * re_o])
    grad_object = np.concatenate([re_r * re_s - im_r * im_s, re_r * im_s + im_r * re_s])
    grad_relation = np.concatenate(
        [re_s * re_o + im_s * im_o, re_s * im_o - im_s * re_o]
    ).reshape(1, -1)
    return score, grad_subject, grad_relation, grad_object


def triple_entity_keys(triple: np.ndarray, negatives: np.ndarray) -> List[int]:
    """Sorted distinct entity keys of a triple and its negative samples."""
    entities = {int(triple[0]), int(triple[2])}
    entities.update(int(e) for e in negatives)
    return sorted(entities)


def step_updates(
    config: KGEConfig,
    triple: np.ndarray,
    negatives: np.ndarray,
    all_keys: List[int],
    relation_keys: List[int],
    pulled: np.ndarray,
) -> np.ndarray:
    """One triple's AdaGrad updates, one row per key of ``all_keys``."""
    packing = AdaGradPacking(config.base_dim)
    subject, obj = int(triple[0]), int(triple[2])
    packed: Dict[int, np.ndarray] = {key: pulled[i] for i, key in enumerate(all_keys)}
    values: Dict[int, np.ndarray] = {}
    for key in all_keys:
        value, _ = packing.unpack(packed[key])
        values[key] = value
    relation_rows = np.vstack([values[key] for key in relation_keys])
    gradients: Dict[int, np.ndarray] = {key: np.zeros(config.base_dim) for key in all_keys}
    relation_grad = np.zeros_like(relation_rows)

    def accumulate(s_key: int, o_key: int, label: float) -> None:
        nonlocal relation_grad
        score, grad_s, grad_r, grad_o = score_and_grads(
            config, values[s_key], relation_rows, values[o_key]
        )
        coefficient = float(sigmoid(np.array([score]))[0] - label)
        gradients[s_key] += coefficient * grad_s
        gradients[o_key] += coefficient * grad_o
        relation_grad = relation_grad + coefficient * grad_r

    accumulate(subject, obj, label=1.0)
    half = config.num_negatives
    for negative in negatives[:half]:
        accumulate(int(negative), obj, label=0.0)
    for negative in negatives[half:]:
        accumulate(subject, int(negative), label=0.0)
    for row_index, key in enumerate(relation_keys):
        gradients[key] += relation_grad[row_index]
    return np.vstack(
        [
            adagrad_update(packing, packed[key], gradients[key], config.learning_rate)
            for key in all_keys
        ]
    )


class ReferenceKGETrainer(KGETrainer):
    """:class:`KGETrainer` with the scalar set-up, schedule and step."""

    def _initialize_embeddings(self) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 202))
        base_dim = self.config.base_dim
        for key in range(self.keyspace.num_keys):
            value = rng.normal(0.0, self.config.init_scale, size=base_dim)
            packed = self.packing.pack(value, np.zeros(base_dim))
            self.ps.states[self.ps.current_owner(key)].storage.set(key, packed)

    def _worker_epoch(self, client, worker_id: int) -> Generator:
        config = self.config
        triples = self._worker_triples.get(worker_id)
        rng = np.random.default_rng(derive_seed(self.seed, worker_id, self._epochs_run + 1))
        if config.data_clustering and supports_localize(self.ps) and client.local_worker_id == 0:
            relation_keys: List[int] = []
            for relation in self._node_relations[client.node_id]:
                relation_keys.extend(self.keyspace.relation_keys(relation))
            yield from maybe_localize(client, relation_keys)
        yield from client.barrier()
        if triples is not None and len(triples) > 0:
            negatives = rng.integers(
                0, self.graph.num_entities, size=(len(triples), 2 * config.num_negatives)
            )
            entity_keys = [
                triple_entity_keys(triples[index], negatives[index])
                for index in range(len(triples))
            ]
            use_latency_hiding = config.latency_hiding and supports_localize(self.ps)
            prelocalizer = Prelocalizer(client) if use_latency_hiding else None
            if prelocalizer is not None:
                prelocalizer.prime(entity_keys[0])
            for index in range(len(triples)):
                if prelocalizer is not None and index + 1 < len(triples):
                    prelocalizer.announce(entity_keys[index + 1])
                if prelocalizer is not None:
                    yield from prelocalizer.ready()
                relation_keys = self.keyspace.relation_keys(int(triples[index][1]))
                all_keys = entity_keys[index] + relation_keys
                pulled = yield from client.pull(all_keys)
                updates = step_updates(
                    config, triples[index], negatives[index], all_keys, relation_keys, pulled
                )
                client.push_async(all_keys, updates, needs_ack=False)
                if config.compute_time_per_triple > 0:
                    yield config.compute_time_per_triple
        yield from client.barrier()
        if needs_clock(self.ps):
            yield from client.clock()
        return lane_counts(None)  # no fused runner

    def evaluation_loss(self, num_samples: int = 200, seed: int = 7) -> float:
        rng = np.random.default_rng(seed)
        values = self._gather_values()
        count = min(num_samples, self.graph.num_triples)
        indices = rng.choice(self.graph.num_triples, size=count, replace=False)
        scores, labels = [], []
        for index in indices:
            subject = int(self.graph.subjects[index])
            obj = int(self.graph.objects[index])
            relation_keys = self.keyspace.relation_keys(int(self.graph.relations[index]))
            relation_rows = np.vstack([values[key] for key in relation_keys])
            negative = int(rng.integers(0, self.graph.num_entities))
            for entity, label in ((obj, 1.0), (negative, 0.0)):
                score, _, _, _ = score_and_grads(
                    self.config, values[subject], relation_rows, values[entity]
                )
                scores.append(score)
                labels.append(label)
        return log_loss(np.array(scores), np.array(labels))
