"""Scalar reference implementation of the skip-gram step: the oracle of the kernel.

This is the slot-at-a-time trainer the batched pair kernel in
:mod:`repro.ml.word2vec` replaced, kept here unchanged in everything that
decides a bit: one ``@`` and one one-element ``sigmoid`` per output vector, the
center gradient accumulated slot by slot from zeros, one update row written per
slot, per-key embedding draws installed with ``current_owner`` + ``set``, and a
worker loop that goes through ``client.pull`` / ``client.push_async`` for every
pair — it never asks for a fused runner.  ``tests/ml/test_word2vec_kernel.py``
holds the production code to all of this bit for bit.
"""

from typing import Generator, List, Sequence

import numpy as np

from repro.config import derive_seed
from repro.ml import Word2VecTrainer
from repro.ml.common import lane_counts, needs_clock, supports_localize
from repro.ml.metrics import sigmoid
from repro.pal.latency_hiding import Prelocalizer


def pair_updates(learning_rate: float, pulled: np.ndarray) -> np.ndarray:
    """Updates of one pair from its pulled block ``[center, context, *negatives]``."""
    dim = pulled.shape[1]
    center_vec = pulled[0]
    grad_center = np.zeros(dim)
    updates = np.zeros((len(pulled), dim))
    targets = [1.0] + [0.0] * (len(pulled) - 2)
    for slot, label in enumerate(targets):
        output_vec = pulled[1 + slot]
        score = float(center_vec @ output_vec)
        coefficient = float(sigmoid(np.array([score]))[0] - label)
        grad_center += coefficient * output_vec
        updates[1 + slot] = -learning_rate * coefficient * center_vec
    updates[0] = -learning_rate * grad_center
    return updates


class ReferenceWord2VecTrainer(Word2VecTrainer):
    """:class:`Word2VecTrainer` with the scalar set-up, loop and step."""

    def _initialize_embeddings(self) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 303))
        for key in range(2 * self.vocabulary_size):
            value = rng.normal(0.0, self.config.init_scale, size=self.config.dim)
            owner = self.ps.current_owner(key)
            self.ps.states[owner].storage.set(key, value)

    def _worker_epoch(self, client, worker_id: int) -> Generator:
        config = self.config
        sentences = self._worker_sentences.get(worker_id, [])
        rng = np.random.default_rng(derive_seed(self.seed, worker_id, self._epochs_run + 7))
        use_latency_hiding = config.latency_hiding and supports_localize(self.ps)
        negative_pool: List[int] = []
        pool_position = 0
        skipped_negatives = 0

        def refill_pool() -> List[int]:
            pool = rng.choice(
                self.vocabulary_size, size=config.presample_size, p=self._unigram
            ).tolist()
            if use_latency_hiding:
                client.localize_async([self.output_key(w) for w in set(pool)])
            return pool

        negative_pool = refill_pool()
        sentences = [self._subsample(sentence, rng) for sentence in sentences]
        prelocalizer = Prelocalizer(client) if use_latency_hiding else None
        sentence_keys = (
            [self._sentence_keys(sentence) for sentence in sentences]
            if prelocalizer is not None
            else None
        )
        if prelocalizer is not None and sentences:
            prelocalizer.prime(sentence_keys[0])
        for sentence_index, sentence in enumerate(sentences):
            if prelocalizer is not None and sentence_index + 1 < len(sentences):
                prelocalizer.announce(sentence_keys[sentence_index + 1])
            if prelocalizer is not None:
                yield from prelocalizer.ready()
            for center_position, center in enumerate(sentence):
                lo = max(0, center_position - config.window)
                hi = min(len(sentence), center_position + config.window + 1)
                for context_position in range(lo, hi):
                    if context_position == center_position:
                        continue
                    if pool_position + config.num_negatives > config.presample_refresh:
                        negative_pool = refill_pool()
                        pool_position = 0
                    negatives = []
                    while len(negatives) < config.num_negatives and pool_position < len(
                        negative_pool
                    ):
                        candidate = negative_pool[pool_position]
                        pool_position += 1
                        if use_latency_hiding:
                            if client.state.storage.contains(self.output_key(candidate)):
                                negatives.append(candidate)
                            else:
                                skipped_negatives += 1
                        else:
                            negatives.append(candidate)
                    yield from self._train_pair_scalar(
                        client, int(center), int(sentence[context_position]), negatives
                    )
                    if config.compute_time_per_pair > 0:
                        yield config.compute_time_per_pair
        yield from client.barrier()
        if needs_clock(self.ps):
            yield from client.clock()
        return skipped_negatives, lane_counts(None)  # no fused runner

    def _train_pair_scalar(
        self, client, center: int, context: int, negatives: Sequence[int]
    ) -> Generator:
        keys = [self.input_key(center), self.output_key(context)] + [
            self.output_key(n) for n in negatives
        ]
        pulled = yield from client.pull(keys)
        client.push_async(
            keys, pair_updates(self.config.learning_rate, pulled), needs_ack=False
        )
        return None
