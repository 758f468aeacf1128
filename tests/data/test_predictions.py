"""Chunked MF predictions: bit-identical to one ``einsum`` and constant-size temporaries."""

import tracemalloc

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_matrix
from repro.data.synthetic_matrix import PREDICTION_CHUNK, predictions
from repro.manual import LowLevelDSGD, LowLevelDSGDConfig
from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer
from repro.ps import LapsePS

C = PREDICTION_CHUNK


@pytest.mark.parametrize("rank", [1, 8, 33])
@pytest.mark.parametrize("entries", [0, 1, C - 1, C, C + 1, 3 * C + 5])
def test_chunked_predictions_equal_one_einsum_byte_for_byte(entries, rank):
    rng = np.random.default_rng(entries * 100 + rank)
    row_factors = rng.normal(size=(97, rank))
    col_factors = rng.normal(size=(61, rank))
    rows = rng.integers(0, 97, size=entries)
    cols = rng.integers(0, 61, size=entries)
    expected = np.einsum("ij,ij->i", row_factors[rows], col_factors[cols])
    got = predictions(row_factors, col_factors, rows, cols)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# The bounds leave room for O(entries) coordinate and output arrays, but not
# for two entries x rank float64 gathers (128 bytes per entry at rank 8).
_SHAPE = (2048, 512, 200_000)


def _peak_bytes_per_entry(call, entries):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - before) / entries


@pytest.fixture(scope="module")
def matrix():
    return generate_matrix(*_SHAPE, rank=8, seed=0)


def test_generation_peaks_below_100_bytes_per_entry():
    _, per_entry = _peak_bytes_per_entry(
        lambda: generate_matrix(*_SHAPE, rank=8, seed=0), _SHAPE[2]
    )
    assert per_entry < 100, per_entry


def test_generation_deduplicates_below_45_bytes_per_entry():
    """Positions are built in place and deduplicated by a stable argsort, so
    the pre-dedup rows, cols and flat positions never coexist (the output
    itself is 24 bytes per entry)."""
    _, per_entry = _peak_bytes_per_entry(
        lambda: generate_matrix(*_SHAPE, rank=8, seed=0), _SHAPE[2]
    )
    assert per_entry < 45, per_entry


def test_trainer_rmse_peaks_below_40_bytes_per_entry(matrix):
    cluster = ClusterConfig(num_nodes=1, workers_per_node=1, seed=0)
    ps = LapsePS(cluster, ParameterServerConfig(num_keys=matrix.num_cols, value_length=8))
    trainer = MatrixFactorizationTrainer(ps, matrix, MatrixFactorizationConfig(rank=8))
    loss, per_entry = _peak_bytes_per_entry(trainer.training_rmse, matrix.num_entries)
    assert per_entry < 40, per_entry
    assert np.isfinite(loss)


def test_low_level_rmse_peaks_below_40_bytes_per_entry(matrix):
    cluster = ClusterConfig(num_nodes=1, workers_per_node=1, seed=0)
    baseline = LowLevelDSGD(cluster, matrix, LowLevelDSGDConfig(rank=8))
    loss, per_entry = _peak_bytes_per_entry(baseline.training_rmse, matrix.num_entries)
    assert per_entry < 40, per_entry
    assert np.isfinite(loss)
