"""Key partitioners and the hot-key replication policy.

Classic parameter servers allocate parameters statically via a partitioning of
the key space (§2.2.1); here that is always range partitioning.  Lapse uses
the same static partitioning to assign each key its *home node* (§3.5), while
the *owner* changes dynamically at run time.  :class:`ElasticPartitioner`
applies range partitioning to the active nodes of an elastic cluster.

:class:`AccessCountHotKeyPolicy` decides which keys a *replication*-based PS
(:class:`repro.ps.replica.ReplicaPS`) replicates to an accessing node — the
alternative to relocation that the paper contrasts DPA with in its related
work discussion.  The policy is per-node (each node counts its own accesses)
and purely local: it never communicates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PartitionError

# Key batches at or below this size resolve owners in pure Python; NumPy's
# per-call overhead only pays off above it.
from repro.ps.storage import SMALL_BATCH as _SMALL_BATCH


class KeyPartitioner:
    """Maps every key to the node that statically hosts it.

    Subclasses provide :meth:`node_of`, its vectorized form ``nodes_of`` (one
    int64 node id per key) and ``keys_of`` (all keys of one node).
    """

    def __init__(self, num_keys: int, num_nodes: int) -> None:
        if num_keys < 1:
            raise PartitionError(f"num_keys must be >= 1, got {num_keys}")
        if num_nodes < 1:
            raise PartitionError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_keys = num_keys
        self.num_nodes = num_nodes

    def node_of(self, key: int) -> int:
        """Return the node statically responsible for ``key``."""
        raise NotImplementedError

    def nodes_of_list(self, keys: Sequence[int]) -> List[int]:
        """:meth:`nodes_of` as a plain Python list.

        Small batches (the common case on the per-operation hot path) stay in
        pure Python; large batches go through the vectorized :meth:`nodes_of`.
        """
        if len(keys) <= _SMALL_BATCH:
            node_of = self.node_of
            return [node_of(key) for key in keys]
        return self.nodes_of(keys).tolist()

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.num_keys:
            raise PartitionError(f"key {key} out of range [0, {self.num_keys})")

    def _check_keys_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized bounds check; raises on the first out-of-range key."""
        keys = np.asarray(keys, dtype=np.int64)
        out_of_range = (keys < 0) | (keys >= self.num_keys)
        if out_of_range.any():
            bad = int(keys[int(np.argmax(out_of_range))])
            raise PartitionError(f"key {bad} out of range [0, {self.num_keys})")
        return keys

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise PartitionError(f"node {node} out of range [0, {self.num_nodes})")


class RangePartitioner(KeyPartitioner):
    """Contiguous, balanced range partitioning of the key space.

    Node ``i`` receives keys ``[i * ceil, min((i+1) * ceil, K))`` where ranges
    differ in size by at most one key.
    """

    def __init__(self, num_keys: int, num_nodes: int) -> None:
        super().__init__(num_keys, num_nodes)
        base = num_keys // num_nodes
        remainder = num_keys % num_nodes
        self._boundaries = []
        start = 0
        for node in range(num_nodes):
            size = base + (1 if node < remainder else 0)
            self._boundaries.append((start, start + size))
            start += size
        self._starts = np.array([s for s, _ in self._boundaries], dtype=np.int64)
        # Closed-form lookup constants: the first `remainder` nodes hold
        # `base + 1` keys, the rest hold `base`.
        self._base = base
        self._remainder = remainder
        self._large_until = (base + 1) * remainder

    def node_of(self, key: int) -> int:
        self._check_key(key)
        if key < self._large_until:
            return key // (self._base + 1)
        return self._remainder + (key - self._large_until) // self._base

    def nodes_of(self, keys: Sequence[int]) -> np.ndarray:
        keys = self._check_keys_array(keys)
        # A key belongs to the last node whose range start is <= key; empty
        # ranges cannot win because their start equals the next node's start.
        return np.searchsorted(self._starts, keys, side="right").astype(np.int64) - 1

    def keys_of(self, node: int) -> List[int]:
        self._check_node(node)
        start, end = self._boundaries[node]
        return list(range(start, end))

    def range_of(self, node: int) -> tuple:
        """Return the half-open key range ``(start, end)`` of ``node``."""
        self._check_node(node)
        return self._boundaries[node]


class ElasticPartitioner(KeyPartitioner):
    """Versioned partitioner over the *active* subset of an elastic cluster.

    A classic partitioner maps the key space onto a fixed node set; an elastic
    cluster changes its node set at run time.  :class:`ElasticPartitioner`
    range-partitions the key space over the currently active nodes only:
    ``num_nodes`` is the cluster's *capacity* (reserve nodes are valid ids
    that simply hold no keys), and :meth:`rebalance` recomputes the
    assignment for a new active set.

    Rebalancing is *movement-minimizing*: instead of re-ranging the whole key
    space (which would shuffle keys between nodes that did not change), every
    surviving node keeps as many of its keys as the new balanced share allows;
    only surplus keys — and all keys of departing nodes — move.  On a join,
    keys move exclusively *to* the new node; on a drain/failure, exclusively
    *away from* the departing node.

    Every rebalance bumps :attr:`epoch` and retains the previous assignment
    (:meth:`previous_node_of`), so routing layers can tolerate requests issued
    under the previous epoch the same way Lapse tolerates stale location
    caches (§3.5): a node that is no longer responsible forwards along the
    current assignment instead of failing.
    """

    def __init__(
        self,
        num_keys: int,
        num_nodes: int,
        active_nodes: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(num_keys, num_nodes)
        active = list(range(num_nodes)) if active_nodes is None else list(active_nodes)
        self._active = self._check_active(active)
        self.epoch = 0
        self._assignment = self._fresh_assignment(self._active)
        self._previous_assignment = self._assignment

    # ------------------------------------------------------------- validation
    def _check_active(self, active: Sequence[int]) -> List[int]:
        nodes = sorted(int(node) for node in active)
        if not nodes:
            raise PartitionError("active node set must not be empty")
        if len(set(nodes)) != len(nodes):
            raise PartitionError(f"active node set contains duplicates: {nodes}")
        for node in nodes:
            self._check_node(node)
        return nodes

    # ------------------------------------------------------------- assignment
    def _fresh_assignment(self, active: List[int]) -> np.ndarray:
        base = RangePartitioner(self.num_keys, len(active))
        keys = np.arange(self.num_keys, dtype=np.int64)
        return np.asarray(active, dtype=np.int64)[base.nodes_of(keys)]

    def _balanced_targets(self, active: List[int]) -> Dict[int, int]:
        """Balanced per-node key quota: sizes differ by at most one key."""
        base, remainder = divmod(self.num_keys, len(active))
        return {
            node: base + (1 if index < remainder else 0)
            for index, node in enumerate(active)
        }

    @property
    def active_nodes(self) -> List[int]:
        """The nodes currently holding keys (sorted)."""
        return list(self._active)

    def rebalance(self, active_nodes: Sequence[int]) -> List[Tuple[int, int, int]]:
        """Reassign the key space to ``active_nodes``, minimizing movement.

        Returns the moves as ``(key, old_node, new_node)`` triples (ascending
        by key) and bumps :attr:`epoch`.  Keys on nodes that remain active
        stay put unless the node exceeds its new balanced quota; surplus keys
        (the node's highest) and the keys of departing nodes are redistributed
        to under-quota nodes in ascending node order.
        """
        active = self._check_active(active_nodes)
        targets = self._balanced_targets(active)
        active_set = set(active)
        new_assignment = self._assignment.copy()
        pool: List[int] = []
        for node in sorted(set(self._active) | active_set):
            held = np.flatnonzero(self._assignment == node)
            if node not in active_set:
                pool.extend(held.tolist())
            elif held.size > targets[node]:
                # Shed the highest keys so kept ranges stay contiguous-ish.
                pool.extend(held[targets[node]:].tolist())
        pool.sort()
        cursor = 0
        old_active = set(self._active)
        for node in active:
            if node in old_active:
                held = int(np.count_nonzero(self._assignment == node))
                kept = min(held, targets[node])
            else:
                kept = 0
            deficit = targets[node] - kept
            if deficit > 0:
                grabbed = pool[cursor:cursor + deficit]
                new_assignment[grabbed] = node
                cursor += deficit
        moved = np.flatnonzero(new_assignment != self._assignment)
        moves = [
            (int(key), int(self._assignment[key]), int(new_assignment[key]))
            for key in moved
        ]
        self._previous_assignment = self._assignment
        self._assignment = new_assignment
        self._active = active
        self.epoch += 1
        return moves

    # ----------------------------------------------------------------- lookup
    def node_of(self, key: int) -> int:
        self._check_key(key)
        return int(self._assignment[key])

    def nodes_of(self, keys: Sequence[int]) -> np.ndarray:
        keys = self._check_keys_array(keys)
        return self._assignment[keys]

    def keys_of(self, node: int) -> List[int]:
        self._check_node(node)
        return np.flatnonzero(self._assignment == node).tolist()

    def previous_node_of(self, key: int) -> int:
        """The key's assignment in the previous epoch (stale-epoch routing)."""
        self._check_key(key)
        return int(self._previous_assignment[key])


# ------------------------------------------------------------ hot-key policy
class AccessCountHotKeyPolicy:
    """Replicate a key once this node accessed it ``threshold`` times.

    A node consults its policy on every access to a parameter it neither owns
    nor already replicates: ``record_access`` is called first, then ``is_hot``
    decides whether the node should install a replica of the key.  The policy
    is stateful per node and sees only that node's accesses.

    ``threshold=1`` replicates eagerly on the first access (every accessed key
    is treated as hot); larger thresholds replicate only keys that a node
    accesses repeatedly, keeping cold keys on their owner.
    """

    def __init__(self, threshold: int = 1) -> None:
        if threshold < 1:
            raise PartitionError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._counts: dict = {}

    def record_access(self, key: int) -> None:
        """Note one access to a non-local ``key``."""
        self._counts[key] = self._counts.get(key, 0) + 1

    def is_hot(self, key: int) -> bool:
        """Whether ``key`` should be replicated to this node."""
        return self._counts.get(key, 0) >= self.threshold
