"""Synthetic sparse rating matrices for matrix factorization.

The paper uses two synthetic matrices (10m x 1m and 3.4m x 3m, one billion
revealed entries) generated as in Makari et al. [34]: entries are sampled from
a ground-truth low-rank model plus noise, so that a factorization of the same
rank can fit them well and training loss decreases over epochs.  This module
reproduces that construction at configurable (much smaller) scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataGenerationError

#: Entries one ``einsum`` call of :func:`predictions` covers.  It bounds the
#: two gathered temporaries (about 1 MB at rank 8) whatever the entry count.
PREDICTION_CHUNK = 8192


@dataclass(frozen=True)
class SyntheticMatrix:
    """A sparse matrix given by coordinate lists plus its generating factors.

    Attributes:
        num_rows: Number of rows (users).
        num_cols: Number of columns (items).
        rows / cols / values: Coordinate representation of the revealed entries.
        true_row_factors / true_col_factors: The ground-truth factors used to
            generate the entries (useful for sanity checks in tests).
    """

    num_rows: int
    num_cols: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    true_row_factors: np.ndarray
    true_col_factors: np.ndarray

    @property
    def num_entries(self) -> int:
        """Number of revealed entries."""
        return len(self.values)


def predictions(
    row_factors: np.ndarray, col_factors: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``row_factors[rows[i]] · col_factors[cols[i]]`` for every entry ``i``.

    The ``einsum`` runs over consecutive slices of :data:`PREDICTION_CHUNK`
    entries into one output.  Each entry is still the same reduction over the
    same ``rank`` products, so the result is bit-identical to one call over all
    entries, without materialising two entries × rank gathers.
    """
    out = np.empty(len(rows), dtype=np.result_type(row_factors, col_factors))
    for start in range(0, len(rows), PREDICTION_CHUNK):
        part = slice(start, start + PREDICTION_CHUNK)
        np.einsum("ij,ij->i", row_factors[rows[part]], col_factors[cols[part]], out=out[part])
    return out


def generate_matrix(
    num_rows: int,
    num_cols: int,
    num_entries: int,
    rank: int = 8,
    noise: float = 0.1,
    seed: int = 0,
) -> SyntheticMatrix:
    """Generate a synthetic sparse matrix from a low-rank ground truth.

    Args:
        num_rows: Number of rows.
        num_cols: Number of columns.
        num_entries: Number of revealed entries to sample (with replacement
            over positions, then deduplicated; the result may contain slightly
            fewer entries).
        rank: Rank of the generating model.
        noise: Standard deviation of Gaussian noise added to each entry.
        seed: Random seed.

    Returns:
        A :class:`SyntheticMatrix`.
    """
    if num_rows < 1 or num_cols < 1:
        raise DataGenerationError("matrix dimensions must be positive")
    if num_entries < 1:
        raise DataGenerationError("num_entries must be positive")
    if rank < 1:
        raise DataGenerationError("rank must be positive")
    if num_entries > num_rows * num_cols:
        raise DataGenerationError(
            f"cannot reveal {num_entries} entries of a {num_rows}x{num_cols} matrix"
        )
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(rank)
    row_factors = rng.normal(0.0, scale, size=(num_rows, rank))
    col_factors = rng.normal(0.0, scale, size=(num_cols, rank))
    # Positions as flat indices, rows drawn before cols, built in place.
    flat = rng.integers(0, num_rows, size=num_entries)
    flat *= num_cols
    flat += rng.integers(0, num_cols, size=num_entries)
    # Deduplicate positions so each (row, col) appears at most once, keeping
    # first occurrences in draw order: a stable sort puts them first in
    # each run of equal positions.
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    first = np.empty(num_entries, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    del ordered
    flat = flat[np.sort(order[first])]
    del order, first
    rows, cols = np.divmod(flat, num_cols)
    del flat
    values = predictions(row_factors, col_factors, rows, cols)
    values = values + rng.normal(0.0, noise, size=len(values))
    return SyntheticMatrix(
        num_rows=num_rows,
        num_cols=num_cols,
        rows=rows,
        cols=cols,
        values=values,
        true_row_factors=row_factors,
        true_col_factors=col_factors,
    )
