"""Durability subsystem: delta WAL, checkpoints, crash-consistent recovery.

See ``docs/architecture.md`` (Durability subsystem) for the design: an
LSN-prefixed per-node write-ahead log of parameter deltas, periodic
simulated-time checkpoints, and a recovery path that restores a failed
node's checkpoint and replays the WAL suffix — feeding the same
``RecoveryInstall`` machinery the replication subsystem uses, so replica
sync and crash recovery are two consumers of one log.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from .checkpoint import Checkpoint, CheckpointStore, take_checkpoint
    from .recovery import DurabilityManager, replay_records
    from .wal import WAL_DELTA, WAL_INSERT, WAL_KINDS, WAL_REMOVE, WAL_SET, DeltaWAL
    from .wal import DurabilityConfig, LoggedStorage, LSNClock, WALRecord

#: Only durable runs load the subsystem, where they build it.
__getattr__ = lazy_exports(__name__, {
    "repro.durability.checkpoint": ("Checkpoint", "CheckpointStore", "take_checkpoint"),
    "repro.durability.recovery": ("DurabilityManager", "replay_records"),
    "repro.durability.wal": (
        "WAL_DELTA", "WAL_INSERT", "WAL_KINDS", "WAL_REMOVE", "WAL_SET", "DeltaWAL",
        "DurabilityConfig", "LoggedStorage", "LSNClock", "WALRecord",
    ),
})

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "DeltaWAL",
    "DurabilityConfig",
    "DurabilityManager",
    "LoggedStorage",
    "LSNClock",
    "WALRecord",
    "WAL_DELTA",
    "WAL_INSERT",
    "WAL_KINDS",
    "WAL_REMOVE",
    "WAL_SET",
    "replay_records",
    "take_checkpoint",
]
