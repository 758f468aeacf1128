"""Per-node checkpoints of the owned parameter slabs.

A checkpoint is a detached ``(keys, values)`` snapshot of one node's store
plus the LSN it covers: every mutation with LSN <= ``lsn`` is reflected in
the snapshot, every later mutation is not.  That invariant is what makes
recovery exact — ``restore(checkpoint) + replay(wal.records_since(lsn))``
reproduces the store bit-identically, because replaying a ``delta`` record
performs the same float64 row addition the original ``add`` did, in the
same per-key order (see ``docs/architecture.md``, Durability subsystem).

Checkpoints are triggered on simulated time but taken *synchronously* at
zero simulated cost (the lazy trigger lives in the durability manager):
enabling durability must not schedule kernel events, so that a run with
durability on is simulated-time-identical to the same run with it off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .wal import KEY_BYTES, RECORD_HEADER_BYTES, VALUE_BYTES


@dataclass
class Checkpoint:
    """Snapshot of one node's store as of ``lsn``, taken at ``taken_at``."""

    __slots__ = ("node", "lsn", "taken_at", "keys", "values")

    node: int
    lsn: int
    taken_at: float
    keys: np.ndarray
    values: np.ndarray

    @property
    def nbytes(self) -> int:
        """Simulated serialized size of this checkpoint."""
        return (
            RECORD_HEADER_BYTES
            + KEY_BYTES * int(self.keys.size)
            + VALUE_BYTES * int(self.values.size)
        )

    def as_state(self) -> Dict[int, np.ndarray]:
        """Expand into a key -> detached value-row dict (replay substrate)."""
        return {
            int(key): self.values[index].copy()
            for index, key in enumerate(self.keys.tolist())
        }


def take_checkpoint(storage, node: int, lsn: int, now: float) -> Checkpoint:
    """Snapshot ``storage`` (a DenseStorage or a LoggedStorage around one)."""
    keys, values = storage.snapshot()
    return Checkpoint(node=node, lsn=lsn, taken_at=now, keys=keys, values=values)


class CheckpointStore:
    """Retained checkpoints of one node, newest last.

    Only the latest checkpoint is needed for recovery; earlier ones are kept
    so tests can restore from *any* checkpoint and assert that replaying the
    matching WAL suffix reconverges to the same state.
    """

    __slots__ = ("node", "checkpoints")

    def __init__(self, node: int) -> None:
        self.node = node
        self.checkpoints: List[Checkpoint] = []

    def add(self, checkpoint: Checkpoint) -> None:
        self.checkpoints.append(checkpoint)

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def __len__(self) -> int:
        return len(self.checkpoints)
