"""Data clustering: allocate each parameter where it is accessed most (§2.2.1).

Given a partition of the training data over nodes, count how often each node
accesses each parameter and assign every parameter to the node with the
highest access count.  In a PS with dynamic parameter allocation this
assignment is *enacted* simply by having each node localize "its" parameters
once at the beginning of training; in a classic PS it can only be emulated by
key design (which requires knowledge of PS internals, §2.2.1).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.errors import ExperimentError


def access_counts_by_node(
    accesses_per_node: Sequence[Iterable[int]], num_keys: int
) -> np.ndarray:
    """Count parameter accesses per node.

    Args:
        accesses_per_node: For each node, an iterable of the keys its local
            training data accesses (repetitions count).
        num_keys: Size of the key space.

    Returns:
        Array of shape (num_nodes, num_keys) with access counts.
    """
    if num_keys < 1:
        raise ExperimentError(f"num_keys must be >= 1, got {num_keys}")
    counts = np.zeros((len(accesses_per_node), num_keys), dtype=np.int64)
    for node, keys in enumerate(accesses_per_node):
        for key in keys:
            if not 0 <= key < num_keys:
                raise ExperimentError(f"key {key} out of range [0, {num_keys})")
            counts[node, key] += 1
    return counts


def assign_parameters_by_frequency(counts: np.ndarray) -> np.ndarray:
    """Assign each parameter to the node that accesses it most frequently.

    Ties are broken toward the lower node id; parameters never accessed are
    spread round-robin so that no node is overloaded with cold parameters.

    Args:
        counts: Array of shape (num_nodes, num_keys) of access counts.

    Returns:
        Array of length num_keys with the chosen node for every key.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ExperimentError("counts must be a 2-d array (nodes x keys)")
    num_nodes, num_keys = counts.shape
    assignment = np.argmax(counts, axis=0)
    never_accessed = np.flatnonzero(counts.sum(axis=0) == 0)
    assignment[never_accessed] = never_accessed % num_nodes
    return assignment


def clustering_localize_plan(assignment: np.ndarray, node: int) -> List[int]:
    """Keys that ``node`` should localize at the start of training."""
    assignment = np.asarray(assignment)
    if assignment.ndim != 1:
        raise ExperimentError("assignment must be a 1-d array")
    if node < 0:
        raise ExperimentError(f"node must be non-negative, got {node}")
    return np.flatnonzero(assignment == node).tolist()
