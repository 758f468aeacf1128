"""Parameter blocking: restrict each worker to one parameter block per subepoch (§2.2.2).

This is the access pattern of DSGD-style matrix factorization [Gemulla et al.,
KDD'11] and related algorithms: the parameter vector is split into as many
blocks as there are workers; an epoch consists of ``num_blocks`` subepochs; in
subepoch ``s`` worker ``w`` works on block ``(w + s) mod num_blocks`` and only
on the part of its data that touches that block.  Between subepochs the blocks
rotate, so communication happens only at subepoch boundaries.

With dynamic parameter allocation the rotation is expressed by a single
``localize`` call per worker per subepoch; with a classic PS every access to
the block goes over the network.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ExperimentError


def keys_of_block(block: int, num_keys: int, num_blocks: int) -> List[int]:
    """Return the keys of ``block`` under a balanced contiguous block split."""
    if not 0 <= block < num_blocks:
        raise ExperimentError(f"block {block} out of range [0, {num_blocks})")
    if num_keys < num_blocks:
        raise ExperimentError(
            f"cannot split {num_keys} keys into {num_blocks} blocks"
        )
    base = num_keys // num_blocks
    remainder = num_keys % num_blocks
    start = block * base + min(block, remainder)
    size = base + (1 if block < remainder else 0)
    return list(range(start, start + size))


def block_of_key(key: int, num_keys: int, num_blocks: int) -> int:
    """Return the block that contains ``key``."""
    if not 0 <= key < num_keys:
        raise ExperimentError(f"key {key} out of range [0, {num_keys})")
    return int(block_of_keys(num_keys, num_blocks)[key])


def block_of_keys(num_keys: int, num_blocks: int) -> np.ndarray:
    """Block of every key: the vectorised inverse of :func:`keys_of_block`."""
    if num_keys < num_blocks:
        raise ExperimentError(
            f"cannot split {num_keys} keys into {num_blocks} blocks"
        )
    base, remainder = divmod(num_keys, num_blocks)
    sizes = np.full(num_blocks, base, dtype=np.int64)
    sizes[:remainder] += 1
    return np.repeat(np.arange(num_blocks, dtype=np.int64), sizes)


class BlockSchedule:
    """The rotation schedule of a parameter-blocking epoch.

    One epoch has ``num_blocks`` subepochs.  In subepoch ``s`` worker ``w`` is
    assigned block ``(w + s) mod num_blocks``; over an epoch every worker sees
    every block exactly once and no two workers share a block in a subepoch
    (when ``num_blocks == num_workers``).
    """

    def __init__(self, num_workers: int, num_blocks: int = 0) -> None:
        if num_workers < 1:
            raise ExperimentError(f"num_workers must be >= 1, got {num_workers}")
        if num_blocks == 0:
            num_blocks = num_workers
        if num_blocks < num_workers:
            raise ExperimentError(
                "num_blocks must be at least num_workers for a conflict-free schedule"
            )
        self.num_workers = num_workers
        self.num_blocks = num_blocks

    @property
    def num_subepochs(self) -> int:
        """Number of subepochs per epoch."""
        return self.num_blocks

    def block_for(self, worker: int, subepoch: int) -> int:
        """Block assigned to ``worker`` in ``subepoch``."""
        if not 0 <= worker < self.num_workers:
            raise ExperimentError(
                f"worker {worker} out of range [0, {self.num_workers})"
            )
        if subepoch < 0:
            raise ExperimentError(f"subepoch must be non-negative, got {subepoch}")
        return (worker + subepoch) % self.num_blocks

    def keys_for(self, worker: int, subepoch: int, num_keys: int) -> List[int]:
        """Keys assigned to ``worker`` in ``subepoch`` for a key space of ``num_keys``."""
        block = self.block_for(worker, subepoch)
        return keys_of_block(block, num_keys, self.num_blocks)

    def assignment_table(self, subepoch: int) -> List[int]:
        """Blocks per worker for one subepoch (index = worker)."""
        return [self.block_for(worker, subepoch) for worker in range(self.num_workers)]
