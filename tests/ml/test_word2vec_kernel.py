"""The batched skip-gram pair kernel against its scalar oracle (``reference_word2vec``).

The kernel must agree bit for bit — ``tobytes``, so a ``-0.0`` for a ``0.0``
fails: one ``ddot`` per score, one element-wise ``sigmoid`` over the score
vector, the center gradient reduced row by row from zero, products grouped as
the loop groups them.  Whole runs must agree as well, through the event lane
and through verified fused steps (``lapse``, ``hybrid``).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_word2vec
from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_corpus
from repro.experiments.runner import make_parameter_server
from repro.ml import Word2VecConfig, Word2VecTrainer

DIMS = (1, 2, 3, 8, 33)
LEARNING_RATE = 0.05


@st.composite
def pulled_blocks(draw):
    """``[center, context, *negatives]`` rows; negatives repeat the context or
    each other, and some blocks are scaled until the sigmoid saturates."""
    dim = draw(st.sampled_from(DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [rng.normal(size=dim), rng.normal(size=dim)]
    for _ in range(draw(st.integers(0, 5))):
        choice = draw(st.sampled_from(["fresh", "context", "previous"]))
        if choice == "fresh":
            rows.append(rng.normal(size=dim))
        else:
            rows.append(rows[1 if choice == "context" else -1])
    pulled = np.array(rows) * draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0, 1e4]))
    if draw(st.booleans()):
        pulled[0] = -pulled[0]  # flips the sign of every score
    if draw(st.booleans()):
        pulled[:, rng.integers(dim)] = 0.0
    return pulled


@given(pulled=pulled_blocks())
@settings(max_examples=300, deadline=None)
def test_pair_updates_equal_scalar_reference_bit_for_bit(pulled):
    kernel_self = SimpleNamespace(config=Word2VecConfig(learning_rate=LEARNING_RATE))
    before = pulled.copy()
    actual = Word2VecTrainer._train_pair(kernel_self, pulled)
    expected = reference_word2vec.pair_updates(LEARNING_RATE, pulled)
    assert actual.dtype == np.float64 and actual.shape == pulled.shape
    assert actual.tobytes() == expected.tobytes()
    assert pulled.tobytes() == before.tobytes()  # the pulled block is not written to


def build(trainer_class, system, seed=5):
    corpus = generate_corpus(
        vocabulary_size=60, num_sentences=40, mean_sentence_length=6, skew=0.8, seed=seed
    )
    config = Word2VecConfig(
        dim=3,
        window=2,
        num_negatives=2,
        presample_size=16,
        presample_refresh=8,
        compute_time_per_pair=5e-6,
        latency_hiding=system not in ("classic", "classic_fast_local"),
    )
    ps = make_parameter_server(
        system,
        ClusterConfig(num_nodes=2, workers_per_node=2, seed=seed),
        ParameterServerConfig(num_keys=2 * corpus.vocabulary_size, value_length=config.dim),
    )
    return trainer_class(ps, corpus, config, seed=seed)


#: Why the verified lane declined each step, in its label order ("t3 < t2",
#: "not quiet", "checkpoint", then the refusals): a step that is both
#: unquiet and non-resident counts as unquiet.
DECLINE_REASONS = {
    "lapse": {"not quiet": 485, "not resident": 76},
    "classic": {},
    "classic_fast_local": {"not quiet": 548, "not resident": 260},
    "hybrid": {"not quiet": 611, "not resident": 96, "guarded": 82},
    "stale_ssp": {},
}


@pytest.mark.parametrize("system", list(DECLINE_REASONS))
def test_training_equals_reference_trainer_byte_for_byte(system):
    trainer = build(Word2VecTrainer, system)
    reference = build(reference_word2vec.ReferenceWord2VecTrainer, system)
    # Set-up: one block draw installs the bits of the per-key draws.
    assert trainer.ps.all_parameters().tobytes() == reference.ps.all_parameters().tobytes()
    results = trainer.train(num_epochs=2)
    expected = reference.train(num_epochs=2)
    assert [r.duration for r in results] == [r.duration for r in expected]
    assert [r.loss for r in results] == [r.loss for r in expected]
    assert trainer.ps.metrics().as_dict() == reference.ps.metrics().as_dict()
    assert trainer.ps.all_parameters().tobytes() == reference.ps.all_parameters().tobytes()
    assert trainer.skipped_negatives == reference.skipped_negatives
    assert [s.latches.acquisitions for s in trainer.ps.states] == [
        s.latches.acquisitions for s in reference.ps.states
    ]
    assert trainer.ps.network.stats == reference.ps.network.stats
    # The oracle never asks for a runner.  The trainer gets one on the
    # shared-memory systems; under static allocation a pair's input and output
    # keys live on different nodes, so every step declines there.
    assert (reference.fused_steps, reference.declined_steps) == (0, 0)
    assert (trainer.fused_steps > 0) == (system in ("lapse", "hybrid"))
    assert trainer.decline_reasons == DECLINE_REASONS[system]
