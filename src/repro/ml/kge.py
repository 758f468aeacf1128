"""Knowledge-graph embeddings (RESCAL and ComplEx) on a parameter server.

The KGE task of §4 / Figures 1 and 7: learn embeddings for the entities and
relations of a knowledge graph with SGD + AdaGrad and negative sampling.  Two
models are supported:

* **RESCAL** — entity vectors of dimension ``d`` and a ``d x d`` relation
  matrix per relation (so relation parameters are ``d`` times larger than
  entity parameters, which is why the "only data clustering" variant helps
  RESCAL more than ComplEx, §4.3),
* **ComplEx** — complex-valued entity and relation vectors of dimension ``d``
  (stored as ``2 d`` reals).

Parameter-server layout: one key per entity; each relation occupies
``keys_per_relation`` consecutive keys of the same value length as an entity
key (one key per matrix row for RESCAL, one key for ComplEx).  AdaGrad
accumulators are stored in the PS alongside the values (Appendix A), so a key
with model dimension ``m`` has PS value length ``2 m``.

PAL techniques (Appendix A): *data clustering* partitions the triples by
relation so every relation parameter is accessed by exactly one node and can
be localized there once; *latency hiding* prelocalizes the entity parameters
of the next triple (including its negative samples) while the current triple
is being processed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.config import derive_seed
from repro.data.synthetic_graph import SyntheticKnowledgeGraph
from repro.errors import ExperimentError
from repro.ml.common import (
    FusedLaneCounts,
    install_parameters,
    lane_counts,
    local_step,
    maybe_localize,
    needs_clock,
    supports_localize,
)
from repro.ml.metrics import log_loss, sigmoid
from repro.ml.optim import AdaGradPacking, adagrad_update
from repro.ml.results import EpochResult
from repro.pal.latency_hiding import Prelocalizer
from repro.ps.base import ParameterServer


@dataclass(frozen=True)
class KGEConfig:
    """Hyper-parameters and PAL switches for the KGE task.

    Attributes:
        model: ``"rescal"`` or ``"complex"``.
        entity_dim: Embedding dimension ``d``.
        num_negatives: Negative samples per triple *per slot* (subject and
            object are each perturbed this many times, as in the paper).
        learning_rate: Initial AdaGrad learning rate (paper: 0.1).
        compute_time_per_triple: Simulated computation time per triple.
        data_clustering: Partition triples by relation and localize relation
            parameters (PAL technique 1).
        latency_hiding: Prelocalize entity parameters of the upcoming triple
            (PAL technique 2).
        init_scale: Standard deviation of the embedding initialization.
    """

    model: str = "complex"
    entity_dim: int = 4
    num_negatives: int = 2
    learning_rate: float = 0.1
    compute_time_per_triple: float = 20e-6
    data_clustering: bool = True
    latency_hiding: bool = True
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.model not in ("rescal", "complex"):
            raise ExperimentError(f"unknown KGE model {self.model!r}")
        if self.entity_dim < 1:
            raise ExperimentError("entity_dim must be >= 1")
        if self.num_negatives < 1:
            raise ExperimentError("num_negatives must be >= 1")
        if self.learning_rate <= 0:
            raise ExperimentError("learning_rate must be positive")
        if self.compute_time_per_triple < 0:
            raise ExperimentError("compute_time_per_triple must be non-negative")
        if self.init_scale < 0:
            raise ExperimentError("init_scale must be non-negative")

    @property
    def base_dim(self) -> int:
        """Per-key model dimension (``d`` for RESCAL, ``2 d`` for ComplEx)."""
        return self.entity_dim if self.model == "rescal" else 2 * self.entity_dim

    @property
    def keys_per_relation(self) -> int:
        """PS keys occupied by one relation parameter."""
        return self.entity_dim if self.model == "rescal" else 1

    @property
    def value_length(self) -> int:
        """Required PS value length (model value + AdaGrad accumulator)."""
        return 2 * self.base_dim


class KGEKeySpace:
    """Maps entities and relations of a graph to PS keys."""

    def __init__(self, graph: SyntheticKnowledgeGraph, config: KGEConfig) -> None:
        self.graph = graph
        self.config = config
        self.num_entities = graph.num_entities
        self.num_relations = graph.num_relations

    @property
    def num_keys(self) -> int:
        """Total number of PS keys required."""
        return self.num_entities + self.num_relations * self.config.keys_per_relation

    def relation_keys(self, relation: int) -> List[int]:
        """PS keys of a relation parameter (one or ``d`` consecutive keys)."""
        if not 0 <= relation < self.num_relations:
            raise ExperimentError(f"relation {relation} out of range")
        start = self.num_entities + relation * self.config.keys_per_relation
        return list(range(start, start + self.config.keys_per_relation))


class KGETrainer(FusedLaneCounts):
    """Trains RESCAL/ComplEx embeddings on any of the PS variants."""

    def __init__(
        self,
        ps: ParameterServer,
        graph: SyntheticKnowledgeGraph,
        config: Optional[KGEConfig] = None,
        seed: int = 0,
    ) -> None:
        self.ps = ps
        self.graph = graph
        self.config = config or KGEConfig()
        self.keyspace = KGEKeySpace(graph, self.config)
        self.packing = AdaGradPacking(self.config.base_dim)
        self.seed = seed
        if ps.ps_config.num_keys != self.keyspace.num_keys:
            raise ExperimentError(
                f"the PS must have {self.keyspace.num_keys} keys, got {ps.ps_config.num_keys}"
            )
        if ps.ps_config.value_length != self.config.value_length:
            raise ExperimentError(
                f"the PS value length must be {self.config.value_length}, "
                f"got {ps.ps_config.value_length}"
            )
        self._epochs_run = 0
        # Lane counts by triple: whose pull → step → push ran inline as a
        # verified fused step (:meth:`repro.ps.base.FusedLocalSteps.step`), or
        # the runner handed back to the event path.
        super().__init__()
        num_negatives = self.config.num_negatives
        #: Pairs scored per triple, in accumulation order: the triple itself,
        #: its subject corruptions, its object corruptions.  The columns index
        #: a triple's entity list [subject, object, *negatives].
        self._subject_columns = np.array(
            [0, *range(2, 2 + num_negatives), *[0] * num_negatives]
        )
        self._object_columns = np.array(
            [1, *[1] * num_negatives, *range(2 + num_negatives, 2 + 2 * num_negatives)]
        )
        self._labels = np.zeros(1 + 2 * num_negatives)
        self._labels[0] = 1.0
        self._partition_triples()
        self._initialize_embeddings()

    # ------------------------------------------------------------ preparation
    def _partition_triples(self) -> None:
        """Assign triples to workers (by relation if data clustering is on)."""
        num_nodes = self.ps.cluster.num_nodes
        workers_per_node = self.ps.cluster.workers_per_node
        total_workers = self.ps.cluster.total_workers
        triples = self.graph.triples()
        self._worker_triples: Dict[int, np.ndarray] = {}
        self._node_relations: Dict[int, List[int]] = {node: [] for node in range(num_nodes)}
        for relation in range(self.graph.num_relations):
            self._node_relations[relation % num_nodes].append(relation)
        if self.config.data_clustering:
            node_of_triple = triples[:, 1] % num_nodes
            for node in range(num_nodes):
                node_triples = triples[node_of_triple == node]
                for local_worker in range(workers_per_node):
                    worker_id = node * workers_per_node + local_worker
                    self._worker_triples[worker_id] = node_triples[local_worker::workers_per_node]
        else:
            for worker_id in range(total_workers):
                self._worker_triples[worker_id] = triples[worker_id::total_workers]

    def _initialize_embeddings(self) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 202))
        num_keys = self.keyspace.num_keys
        base_dim = self.config.base_dim
        # One draw for the whole table: the Generator fills it in key order,
        # so the stream (and every bit) equals per-key draws.
        values = rng.normal(0.0, self.config.init_scale, size=(num_keys, base_dim))
        install_parameters(self.ps, self.packing.pack(values, np.zeros((num_keys, base_dim))))

    # ---------------------------------------------------------------- scoring
    def score_pairs(
        self,
        values: np.ndarray,
        subject_rows: np.ndarray,
        object_rows: np.ndarray,
        relation_rows: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Score a batch of (subject, relation, object) pairs in one shot.

        ``values`` is a block of model rows ``(n, base_dim)``; the index
        arguments select rows of it: one subject and one object row per pair,
        and the ``keys_per_relation`` rows of the relation — shared by all
        pairs (1-d) or one index row per pair (2-d).

        Returns ``(scores, gradients)``: ``gradients[p]`` stacks the score's
        gradient with respect to pair ``p``'s subject row, its object row and
        its relation rows, shape ``(pairs, 2 + keys_per_relation, base_dim)``.

        Every score and gradient is bit-identical to a pair-at-a-time
        evaluation: ComplEx uses element-wise operations and one row-wise
        ``np.sum`` only (over the last axis of a C-contiguous block it runs
        the same pairwise routine per row); RESCAL keeps one matmul per pair.
        """
        subjects = values[subject_rows]
        objects = values[object_rows]
        d = self.config.entity_dim
        pairs = len(subjects)
        if self.config.model == "rescal":
            matrices = values[relation_rows]  # (d, d) or (pairs, d, d)
            scores = np.empty(pairs)
            gradients = np.empty((pairs, 2 + d, d))
            # One small matmul per pair, written as in the scalar formula: the
            # BLAS sums a stacked product in another order.
            for pair in range(pairs):
                matrix = matrices if matrices.ndim == 2 else matrices[pair]
                scores[pair] = subjects[pair] @ matrix @ objects[pair]
                gradients[pair, 0] = matrix @ objects[pair]
                gradients[pair, 1] = matrix.T @ subjects[pair]
            np.multiply(subjects[:, :, None], objects[:, None, :], out=gradients[:, 2:])
            return scores, gradients
        # ComplEx: rows are [real | imaginary] halves of length d.  Read as
        # complex vectors, score = Re(sum(r * s * conj(o))), whose gradients
        # are conj(r) * o (subject), r * s (object) and conj(s) * o (relation).
        subjects = subjects.reshape(pairs, 2, d)
        objects = objects.reshape(pairs, 2, d)
        relation = values[relation_rows[..., 0]].reshape(-1, 2, d)  # 1 or ``pairs`` rows
        gradients = np.empty((pairs, 3, 2, d))
        _complex_multiply(relation, objects, gradients[:, 0], conjugate=True)
        _complex_multiply(relation, subjects, gradients[:, 1], conjugate=False)
        _complex_multiply(subjects, objects, gradients[:, 2], conjugate=True)
        weighted = relation * gradients[:, 2]
        scores = np.sum(weighted[:, 0] + weighted[:, 1], axis=1)
        return scores, gradients.reshape(pairs, 3, 2 * d)

    # -------------------------------------------------------------- training
    def train(self, num_epochs: int = 1, compute_loss: bool = True) -> List[EpochResult]:
        """Run ``num_epochs`` training epochs."""
        if num_epochs < 1:
            raise ExperimentError("num_epochs must be >= 1")
        return [self.run_epoch(compute_loss=compute_loss) for _ in range(num_epochs)]

    def run_epoch(self, compute_loss: bool = True) -> EpochResult:
        """Run one epoch over all triples."""
        epoch = self._epochs_run
        start_time = self.ps.simulated_time
        for counts in self.ps.run_workers(self._worker_epoch):
            self.count_lanes(counts)
        duration = self.ps.simulated_time - start_time
        self._epochs_run += 1
        loss = self.evaluation_loss() if compute_loss else None
        return EpochResult(epoch=epoch, duration=duration, end_time=self.ps.simulated_time, loss=loss)

    def _epoch_schedule(
        self, triples: np.ndarray, negatives: np.ndarray
    ) -> Tuple[List[List[int]], List[List[int]], np.ndarray]:
        """One worker's epoch, vectorised: ``(entity_keys, keys, rows)`` per triple.

        ``keys[i]`` is what step ``i`` pulls and pushes — the triple's sorted
        distinct entity keys (``entity_keys[i]``, what the prelocalizer
        announces) followed by its relation keys.  ``rows[i]`` addresses rows
        of the pulled block: one row ``[subject, object, *relation rows]`` per
        scored pair, in the order the pairs' gradients are accumulated.
        """
        keys_per_relation = self.config.keys_per_relation
        # Entity list per triple: [subject, object, *negatives]; its sorted
        # distinct values are the triple's entity keys.
        entities = np.concatenate([triples[:, [0, 2]], negatives], axis=1)
        order = np.argsort(entities, axis=1, kind="stable")
        ranked = np.take_along_axis(entities, order, axis=1)
        distinct = np.ones(ranked.shape, dtype=bool)
        distinct[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        rank = np.cumsum(distinct, axis=1) - 1
        #: Row (in the triple's key list) of the entity in each column.
        row_of = np.empty_like(rank)
        np.put_along_axis(row_of, order, rank, axis=1)
        counts = rank[:, -1] + 1
        flat_keys = ranked[distinct].tolist()
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        entity_keys = [flat_keys[start:stop] for start, stop in zip(bounds, bounds[1:])]
        first_relation_key = self.keyspace.num_entities + triples[:, 1] * keys_per_relation
        relation_keys = (first_relation_key[:, None] + np.arange(keys_per_relation)).tolist()
        rows = np.empty((len(triples), len(self._labels), 2 + keys_per_relation), dtype=np.int64)
        rows[:, :, 0] = row_of[:, self._subject_columns]
        rows[:, :, 1] = row_of[:, self._object_columns]
        rows[:, :, 2:] = (counts[:, None] + np.arange(keys_per_relation))[:, None, :]
        keys = [entities + relation for entities, relation in zip(entity_keys, relation_keys)]
        return entity_keys, keys, rows

    def _worker_epoch(self, client, worker_id: int) -> Generator:
        config = self.config
        triples = self._worker_triples.get(worker_id)
        rng = np.random.default_rng(derive_seed(self.seed, worker_id, self._epochs_run + 1))
        # Data clustering: localize this node's relation parameters once.
        if config.data_clustering and supports_localize(self.ps) and client.local_worker_id == 0:
            relation_keys: List[int] = []
            for relation in self._node_relations[client.node_id]:
                relation_keys.extend(self.keyspace.relation_keys(relation))
            yield from maybe_localize(client, relation_keys)
        yield from client.barrier()
        # Verified fused steps, one triple at a time (the prelocalizer acts
        # between triples).
        runner = client.fused_local_steps()
        if triples is not None and len(triples) > 0:
            # Pre-draw negative entities for every triple of this epoch.
            negatives = rng.integers(
                0, self.graph.num_entities, size=(len(triples), 2 * config.num_negatives)
            )
            entity_keys, step_keys, step_rows = self._epoch_schedule(triples, negatives)
            use_latency_hiding = config.latency_hiding and supports_localize(self.ps)
            prelocalizer = Prelocalizer(client) if use_latency_hiding else None
            compute_time = config.compute_time_per_triple
            if prelocalizer is not None:
                prelocalizer.prime(entity_keys[0])
            for index in range(len(triples)):
                if prelocalizer is not None and index + 1 < len(triples):
                    prelocalizer.announce(entity_keys[index + 1])
                if prelocalizer is not None:
                    yield from prelocalizer.ready()
                kernel = partial(self._step_updates, rows=step_rows[index])
                yield from local_step(client, runner, step_keys[index], compute_time, kernel)
        yield from client.barrier()
        if needs_clock(self.ps):
            yield from client.clock()
        return lane_counts(runner)

    def _step_updates(self, pulled: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """AdaGrad updates for one triple's keys from their pulled block.

        ``rows`` is the triple's entry of :meth:`_epoch_schedule`.  All pairs
        are scored at once; their per-pair gradient rows are then accumulated
        *in order* (pair by pair: subject, object, relation rows) into one
        gradient row per key.  A key can collect several contributions — the
        subject and object take part in several pairs, and a negative may
        equal either or another negative — and floating-point addition is not
        associative, so the accumulation must be the unbuffered, ordered
        ``np.add.at``; a fancy-indexed ``+=`` would keep one contribution per
        key.
        """
        base_dim = self.config.base_dim
        scores, pair_gradients = self.score_pairs(
            pulled[:, :base_dim], rows[:, 0], rows[:, 1], rows[0, 2:]
        )
        pair_gradients *= (sigmoid(scores) - self._labels)[:, None, None]
        gradients = np.zeros((len(pulled), base_dim))
        np.add.at(gradients, rows, pair_gradients)
        return adagrad_update(self.packing, pulled, gradients, self.config.learning_rate)

    # ------------------------------------------------------------- evaluation
    def _gather_values(self) -> np.ndarray:
        packed = self.ps.all_parameters()
        values, _ = self.packing.unpack(packed)
        return values

    def evaluation_loss(self, num_samples: int = 200, seed: int = 7) -> float:
        """Mean log loss of positive triples vs. random negatives."""
        rng = np.random.default_rng(seed)
        values = self._gather_values()
        graph = self.graph
        count = min(num_samples, graph.num_triples)
        indices = rng.choice(graph.num_triples, size=count, replace=False)
        # Scores alternate (true triple, object corruption) per sampled triple.
        subjects = np.repeat(graph.subjects[indices], 2)
        objects = np.repeat(graph.objects[indices], 2)
        objects[1::2] = rng.integers(0, graph.num_entities, size=count)
        keys_per_relation = self.config.keys_per_relation
        relation_rows = (
            self.keyspace.num_entities
            + np.repeat(graph.relations[indices], 2)[:, None] * keys_per_relation
            + np.arange(keys_per_relation)
        )
        scores, _ = self.score_pairs(values, subjects, objects, relation_rows)
        labels = np.zeros(2 * count)
        labels[0::2] = 1.0
        return log_loss(scores, labels)


def _complex_multiply(a: np.ndarray, b: np.ndarray, out: np.ndarray, conjugate: bool) -> None:
    """``out = conj(a) * b`` (or ``a * b``) on rows of [real, imaginary] parts.

    Operands have shape ``(n, 2, d)`` (``a`` may have one row, broadcast).
    Every output entry is one difference or sum of two products, evaluated
    exactly as the scalar formula writes it.
    """
    same = a * b  # [re_a * re_b, im_a * im_b]
    cross = a * b[:, ::-1]  # [re_a * im_b, im_a * re_b]
    if conjugate:
        np.add(same[:, 0], same[:, 1], out=out[:, 0])
        np.subtract(cross[:, 0], cross[:, 1], out=out[:, 1])
    else:
        np.subtract(same[:, 0], same[:, 1], out=out[:, 0])
        np.add(cross[:, 0], cross[:, 1], out=out[:, 1])
