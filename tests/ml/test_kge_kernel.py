"""The batched KGE step kernel against its scalar oracle (``reference_kge``).

Both models must agree bit for bit: the ComplEx kernel uses element-wise
operations, one row-wise ``np.sum`` and an ordered ``np.add.at`` only; RESCAL
keeps the scalar formula's one matmul per pair (a stacked ``matmul`` deviates
by up to 2e-10 relative, the BLAS summing in another order).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kge
from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_knowledge_graph
from repro.experiments.runner import make_parameter_server
from repro.ml import KGEConfig, KGETrainer
from repro.ml.kge import KGEKeySpace
from repro.ml.metrics import sigmoid
from repro.ml.optim import AdaGradPacking, adagrad_update

DIMS = (1, 2, 3, 4, 8, 16, 33)
NEGATIVES = (1, 2, 5)
#: Few entities, so that negatives hit the subject, the object and each other.
NUM_ENTITIES = 6
NUM_RELATIONS = 3


def build(trainer_class, system, model, entity_dim, num_negatives, seed=0, **graph_size):
    graph_size.setdefault("num_entities", NUM_ENTITIES)
    graph_size.setdefault("num_triples", 12)
    graph = generate_knowledge_graph(num_relations=NUM_RELATIONS, seed=seed, **graph_size)
    config = KGEConfig(
        model=model,
        entity_dim=entity_dim,
        num_negatives=num_negatives,
        compute_time_per_triple=5e-6,
    )
    ps = make_parameter_server(
        system,
        ClusterConfig(num_nodes=2, workers_per_node=2, seed=seed),
        ParameterServerConfig(
            num_keys=KGEKeySpace(graph, config).num_keys, value_length=config.value_length
        ),
    )
    return trainer_class(ps, graph, config, seed=seed)


@functools.lru_cache(maxsize=None)
def kernel_trainer(model, entity_dim, num_negatives):
    return build(KGETrainer, "lapse", model, entity_dim, num_negatives)


@st.composite
def steps(draw):
    """A few triples with negatives, biased towards colliding entities."""
    num_negatives = draw(st.sampled_from(NEGATIVES))
    entity = st.integers(0, NUM_ENTITIES - 1)
    triples, negatives = [], []
    for _ in range(draw(st.integers(1, 4))):
        subject, obj = draw(entity), draw(entity)
        if draw(st.booleans()):
            obj = subject
        # Each negative is the subject, the object, the previous negative or
        # a fresh entity.
        row = []
        for _ in range(2 * num_negatives):
            choices = [subject, obj, draw(entity)] + row[-1:]
            row.append(draw(st.sampled_from(choices)))
        triples.append((subject, draw(st.integers(0, NUM_RELATIONS - 1)), obj))
        negatives.append(row)
    return num_negatives, np.array(triples), np.array(negatives), draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("entity_dim", DIMS)
@pytest.mark.parametrize("model", ["complex", "rescal"])
@given(step=steps())
@settings(max_examples=20, deadline=None)
def test_step_equals_scalar_reference_bit_for_bit(model, entity_dim, step):
    num_negatives, triples, negatives, seed = step
    trainer = kernel_trainer(model, entity_dim, num_negatives)
    config = trainer.config
    step_entity_keys, step_keys, step_rows = trainer._epoch_schedule(triples, negatives)
    rng = np.random.default_rng(seed)
    for index, (triple, negative_row) in enumerate(zip(triples, negatives)):
        relation_keys = trainer.keyspace.relation_keys(int(triple[1]))
        entity_keys = reference_kge.triple_entity_keys(triple, negative_row)
        assert step_entity_keys[index] == entity_keys
        assert step_keys[index] == entity_keys + relation_keys
        pulled = rng.normal(size=(len(step_keys[index]), config.value_length))
        pulled[:, config.base_dim :] **= 2  # AdaGrad accumulators are sums of squares
        expected = reference_kge.step_updates(
            config, triple, negative_row, entity_keys + relation_keys, relation_keys, pulled
        )
        actual = trainer._step_updates(pulled, step_rows[index])
        np.testing.assert_array_equal(actual, expected)


@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=1, max_size=12
    )
)
def test_sigmoid_equals_masked_reference(scores):
    scores = np.array(scores)
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(sigmoid(scores), reference_kge.sigmoid(scores))


@given(st.integers(0, 2**32 - 1), st.sampled_from(DIMS), st.integers(1, 9))
def test_adagrad_block_update_equals_per_row_reference(seed, model_dim, rows):
    rng = np.random.default_rng(seed)
    packing = AdaGradPacking(model_dim)
    packed = rng.normal(size=(rows, 2 * model_dim)) ** 2
    gradient = rng.normal(size=(rows, model_dim))
    gradient[rng.random(size=gradient.shape) < 0.2] = 0.0
    expected = np.vstack(
        [
            reference_kge.adagrad_update(packing, packed[row], gradient[row], 0.1)
            for row in range(rows)
        ]
    )
    np.testing.assert_array_equal(adagrad_update(packing, packed, gradient, 0.1), expected)


#: Why the verified lane declined each step, in its label order ("t3 < t2",
#: "not quiet", "checkpoint", then the refusals): a step that is both
#: unquiet and non-resident counts as unquiet.
DECLINE_REASONS = {
    ("lapse", "complex"): {"not quiet": 175},
    ("lapse", "rescal"): {"not quiet": 174, "not resident": 2},
    ("classic", "complex"): {},
    ("classic", "rescal"): {},
    ("hybrid", "complex"): {"not quiet": 174, "guarded": 2, "not resident": 3},
    ("hybrid", "rescal"): {"not quiet": 169, "guarded": 2, "not resident": 8},
    ("stale_ssp", "complex"): {},
    ("stale_ssp", "rescal"): {},
}


@pytest.mark.parametrize("system", ["lapse", "classic", "hybrid", "stale_ssp"])
@pytest.mark.parametrize("model", ["complex", "rescal"])
def test_training_equals_reference_trainer_byte_for_byte(system, model):
    size = dict(num_entities=40, num_triples=90)
    trainer = build(KGETrainer, system, model, 3, 2, seed=5, **size)
    reference = build(reference_kge.ReferenceKGETrainer, system, model, 3, 2, seed=5, **size)

    def same(actual, expected):
        assert np.asarray(actual).tobytes() == np.asarray(expected).tobytes()

    # Set-up: one block draw installs the bits of the per-key draws.
    assert trainer.ps.all_parameters().tobytes() == reference.ps.all_parameters().tobytes()
    same(trainer.evaluation_loss(), reference.evaluation_loss())
    results = trainer.train(num_epochs=2)
    expected = reference.train(num_epochs=2)
    assert [r.duration for r in results] == [r.duration for r in expected]
    assert trainer.ps.metrics().as_dict() == reference.ps.metrics().as_dict()
    same(trainer.ps.all_parameters(), reference.ps.all_parameters())
    same([r.loss for r in results], [r.loss for r in expected])
    assert trainer.decline_reasons == DECLINE_REASONS[system, model]
