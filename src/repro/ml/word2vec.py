"""Skip-gram Word2Vec with negative sampling on a parameter server.

The word-vector task of §4 / Figure 8: learn an input ("word") and output
("context") vector for every vocabulary word with skip-gram negative sampling.

Parameter-server layout: input vector of word ``w`` is key ``w``, output
vector is key ``V + w`` (plain SGD, no optimizer state in the PS).

PAL technique (Appendix A): latency hiding.  When a worker reads a new
sentence it prelocalizes the parameters of all words of the *next* sentence;
negative samples are drawn from a pre-sampled pool whose parameters were
localized in advance, and candidates that are currently not local (e.g.
because of a localization conflict on a hot word) are skipped and re-sampled,
which slightly changes the negative-sampling distribution — exactly the
trade-off the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.config import derive_seed
from repro.data.synthetic_corpus import SyntheticCorpus
from repro.errors import ExperimentError
from repro.ml.common import (
    FusedLaneCounts,
    install_parameters,
    lane_counts,
    local_step,
    needs_clock,
    supports_localize,
)
from repro.ml.metrics import sigmoid
from repro.ml.results import EpochResult
from repro.pal.latency_hiding import Prelocalizer
from repro.ps.base import ParameterServer


@dataclass(frozen=True)
class Word2VecConfig:
    """Hyper-parameters and PAL switches for the word-vector task.

    Attributes:
        dim: Embedding dimension (paper: 1000; scaled down here).
        window: Skip-gram window size (paper: 5).
        num_negatives: Negative samples per (center, context) pair (paper: 25).
        learning_rate: SGD step size.
        compute_time_per_pair: Simulated computation time per skip-gram pair.
        latency_hiding: Prelocalize sentence words and negative-sample pools.
        presample_size: Size of the pre-sampled negative pool (paper: 4000).
        presample_refresh: Remaining-candidate threshold at which a new pool is
            sampled (paper: refresh at the 3900th of 4000).
        subsample_threshold: Frequent-word subsampling threshold ``t`` (the
            paper uses 1e-5 on the billion-word corpus); occurrences of a word
            with relative frequency ``f`` are kept with probability
            ``sqrt(t / f) + t / f``.  Set to 0 to disable.
        init_scale: Standard deviation of the embedding initialization.
    """

    dim: int = 8
    window: int = 2
    num_negatives: int = 3
    learning_rate: float = 0.05
    compute_time_per_pair: float = 5e-6
    latency_hiding: bool = True
    presample_size: int = 64
    presample_refresh: int = 8
    subsample_threshold: float = 1e-3
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ExperimentError("dim must be >= 1")
        if self.window < 1:
            raise ExperimentError("window must be >= 1")
        if self.num_negatives < 1:
            raise ExperimentError("num_negatives must be >= 1")
        if self.learning_rate <= 0:
            raise ExperimentError("learning_rate must be positive")
        if self.compute_time_per_pair < 0:
            raise ExperimentError("compute_time_per_pair must be non-negative")
        if self.presample_size < self.num_negatives:
            raise ExperimentError("presample_size must be at least num_negatives")
        if not 0 < self.presample_refresh <= self.presample_size:
            raise ExperimentError("presample_refresh must be in (0, presample_size]")
        if self.subsample_threshold < 0:
            raise ExperimentError("subsample_threshold must be non-negative")
        if self.init_scale < 0:
            raise ExperimentError("init_scale must be non-negative")


class Word2VecTrainer(FusedLaneCounts):
    """Trains skip-gram word vectors on any of the PS variants."""

    def __init__(
        self,
        ps: ParameterServer,
        corpus: SyntheticCorpus,
        config: Optional[Word2VecConfig] = None,
        seed: int = 0,
    ) -> None:
        self.ps = ps
        self.corpus = corpus
        self.config = config or Word2VecConfig()
        self.seed = seed
        self.vocabulary_size = corpus.vocabulary_size
        expected_keys = 2 * self.vocabulary_size
        if ps.ps_config.num_keys != expected_keys:
            raise ExperimentError(
                f"the PS must have {expected_keys} keys (input + output vectors), "
                f"got {ps.ps_config.num_keys}"
            )
        if ps.ps_config.value_length != self.config.dim:
            raise ExperimentError(
                f"the PS value length must equal dim ({self.config.dim}), "
                f"got {ps.ps_config.value_length}"
            )
        self._epochs_run = 0
        self._unigram = corpus.unigram_distribution()
        self._keep_probability = self._compute_keep_probabilities()
        self._partition_sentences()
        self._initialize_embeddings()
        #: Count of negative-sample candidates skipped because they were not
        #: local (localization conflicts), summed over all workers.
        self.skipped_negatives = 0
        # Lane counts by pair: whose pull → step → push ran inline as a
        # verified fused step (:meth:`repro.ps.base.FusedLocalSteps.step`), or
        # the runner handed back to the event path.
        super().__init__()

    # ------------------------------------------------------------ preparation
    def _partition_sentences(self) -> None:
        total_workers = self.ps.cluster.total_workers
        self._worker_sentences: Dict[int, List[np.ndarray]] = {
            worker: self.corpus.sentences[worker::total_workers]
            for worker in range(total_workers)
        }

    def _initialize_embeddings(self) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 303))
        # One draw for the whole table: the Generator fills it in key order,
        # so the stream (and every bit) equals per-key draws.
        shape = (2 * self.vocabulary_size, self.config.dim)
        install_parameters(self.ps, rng.normal(0.0, self.config.init_scale, size=shape))

    def _compute_keep_probabilities(self) -> np.ndarray:
        """Frequent-word subsampling probabilities (Mikolov et al.)."""
        threshold = self.config.subsample_threshold
        if threshold <= 0:
            return np.ones(self.vocabulary_size)
        counts = self.corpus.word_frequencies().astype(np.float64)
        total = max(1.0, counts.sum())
        frequency = np.maximum(counts / total, 1e-12)
        keep = np.sqrt(threshold / frequency) + threshold / frequency
        return np.minimum(keep, 1.0)

    def _subsample(self, sentence: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Drop occurrences of frequent words from a sentence."""
        if self.config.subsample_threshold <= 0:
            return sentence
        keep = rng.random(len(sentence)) < self._keep_probability[sentence]
        filtered = sentence[keep]
        return filtered if len(filtered) >= 2 else sentence

    # ------------------------------------------------------------ key mapping
    def input_key(self, word: int) -> int:
        """PS key of the input (word) vector."""
        return word

    def output_key(self, word: int) -> int:
        """PS key of the output (context) vector."""
        return self.vocabulary_size + word

    def _sentence_keys(self, sentence: np.ndarray) -> List[int]:
        words = np.sort(sentence)
        words = words[np.diff(words, prepend=-1) != 0]
        return [self.input_key(int(w)) for w in words] + [
            self.output_key(int(w)) for w in words
        ]

    # -------------------------------------------------------------- training
    def train(self, num_epochs: int = 1, compute_error: bool = True) -> List[EpochResult]:
        """Run ``num_epochs`` training epochs."""
        if num_epochs < 1:
            raise ExperimentError("num_epochs must be >= 1")
        return [self.run_epoch(compute_error=compute_error) for _ in range(num_epochs)]

    def run_epoch(self, compute_error: bool = True) -> EpochResult:
        """Run one epoch over all sentences."""
        epoch = self._epochs_run
        start_time = self.ps.simulated_time
        for skipped, counts in self.ps.run_workers(self._worker_epoch):
            self.skipped_negatives += skipped
            self.count_lanes(counts)
        duration = self.ps.simulated_time - start_time
        self._epochs_run += 1
        error = self.evaluation_error() if compute_error else None
        return EpochResult(epoch=epoch, duration=duration, end_time=self.ps.simulated_time, loss=error)

    def _worker_epoch(self, client, worker_id: int) -> Generator:
        config = self.config
        sentences = self._worker_sentences.get(worker_id, [])
        rng = np.random.default_rng(derive_seed(self.seed, worker_id, self._epochs_run + 7))
        use_latency_hiding = config.latency_hiding and supports_localize(self.ps)
        negative_pool: List[int] = []
        pool_position = 0
        # Counted locally and returned: under the parallel engine the worker
        # runs in a forked shard process, so trainer attributes mutated here
        # would be lost — run_epoch accumulates the returned counts instead.
        skipped_negatives = 0

        def refill_pool() -> List[int]:
            pool = rng.choice(
                self.vocabulary_size, size=config.presample_size, p=self._unigram
            ).tolist()
            if use_latency_hiding:
                client.localize_async([self.output_key(w) for w in set(pool)])
            return pool

        negative_pool = refill_pool()
        # Frequent-word subsampling happens before pairs are formed, exactly as
        # in the reference Word2Vec implementation.
        sentences = [self._subsample(sentence, rng) for sentence in sentences]
        prelocalizer = Prelocalizer(client) if use_latency_hiding else None
        # Verified fused steps, one pair at a time: every pair resumes through
        # the kernel, because negative selection reads residency between pairs.
        runner = client.fused_local_steps()
        compute_time = config.compute_time_per_pair
        train_pair = self._train_pair
        vocabulary_size = self.vocabulary_size
        # Per-epoch key schedule: every sentence's key list was previously
        # computed twice (prime/announce plus processing order).
        sentence_keys = (
            [self._sentence_keys(sentence) for sentence in sentences]
            if prelocalizer is not None
            else None
        )
        if prelocalizer is not None and sentences:
            prelocalizer.prime(sentence_keys[0])
        contains = client.state.storage.contains
        num_negatives = config.num_negatives
        keys_per_pair = 2 + num_negatives
        for sentence_index, sentence in enumerate(sentences):
            if prelocalizer is not None and sentence_index + 1 < len(sentences):
                prelocalizer.announce(sentence_keys[sentence_index + 1])
            if prelocalizer is not None:
                yield from prelocalizer.ready()
            words = sentence.tolist()
            for center_position, center in enumerate(words):
                lo = max(0, center_position - config.window)
                hi = min(len(words), center_position + config.window + 1)
                for context_position in range(lo, hi):
                    if context_position == center_position:
                        continue
                    # Refresh the negative pool once presample_refresh
                    # candidates have been consumed (paper: a new list of 4000
                    # is sampled when the 3900th sample is reached).
                    if pool_position + num_negatives > config.presample_refresh:
                        negative_pool = refill_pool()
                        pool_position = 0
                    # Keys of the pair: the center's input vector, then the
                    # output vectors of the context word and the negatives.
                    keys = [center, vocabulary_size + words[context_position]]
                    while len(keys) < keys_per_pair and pool_position < len(negative_pool):
                        candidate = vocabulary_size + negative_pool[pool_position]
                        pool_position += 1
                        # Under latency hiding, only use negatives whose
                        # parameters are local (skip localization conflicts,
                        # Appendix A).
                        if not use_latency_hiding or contains(candidate):
                            keys.append(candidate)
                        else:
                            skipped_negatives += 1
                    yield from local_step(client, runner, keys, compute_time, train_pair)
        yield from client.barrier()
        if needs_clock(self.ps):
            yield from client.clock()
        return skipped_negatives, lane_counts(runner)

    def _train_pair(self, pulled: np.ndarray) -> np.ndarray:
        """SGD updates of one skip-gram pair from its pulled block.

        ``pulled`` holds the center word's input vector, then the output
        vectors of the context word (label 1) and of the negatives (label 0);
        the result has one update row per pulled row.  Shared by the fused
        and the event lane, and bit-identical to a slot-at-a-time loop
        (``tests/ml/reference_word2vec.py``): one ``ddot`` per score (a
        ``gemv`` sums in another order), one ``sigmoid`` over the score
        vector (element-wise), the center gradient accumulated from zero row
        by row in slot order, and every product grouped as the loop writes it
        — ``(-lr * coefficient) * center``.
        """
        center = pulled[0]
        outputs = pulled[1:]
        dot = center.dot
        coefficients = sigmoid(np.array([dot(output) for output in outputs]))
        coefficients[0] -= 1.0
        step = -self.config.learning_rate
        updates = np.empty_like(pulled)
        np.add.reduce(coefficients[:, None] * outputs, axis=0, initial=0.0, out=updates[0])
        updates[0] *= step
        np.multiply((step * coefficients)[:, None], center, out=updates[1:])
        return updates

    # ------------------------------------------------------------- evaluation
    def embeddings(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (input vectors, output vectors) gathered from the PS."""
        all_values = self.ps.all_parameters()
        return all_values[: self.vocabulary_size], all_values[self.vocabulary_size :]

    def evaluation_error(self, num_pairs: int = 300, seed: int = 11) -> float:
        """Error in percent on a ranking task over held-out co-occurrence pairs.

        The paper measures error on a word-analogy benchmark, which requires
        natural-language data.  On synthetic corpora we substitute a ranking
        error with the same behaviour (decreases as the embeddings improve):
        for sampled true (center, context) pairs the positive context should
        score higher than a randomly drawn word; the error is the percentage
        of pairs where it does not.
        """
        rng = np.random.default_rng(seed)
        inputs, outputs = self.embeddings()
        mistakes = 0
        total = 0
        for _ in range(num_pairs):
            sentence = self.corpus.sentences[rng.integers(0, self.corpus.num_sentences)]
            if len(sentence) < 2:
                continue
            position = int(rng.integers(0, len(sentence) - 1))
            center = int(sentence[position])
            context = int(sentence[position + 1])
            random_word = int(rng.integers(0, self.vocabulary_size))
            positive_score = float(inputs[center] @ outputs[context])
            negative_score = float(inputs[center] @ outputs[random_word])
            if positive_score <= negative_score:
                mistakes += 1
            total += 1
        if total == 0:
            raise ExperimentError("corpus too small to evaluate")
        return 100.0 * mistakes / total
