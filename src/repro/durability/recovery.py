"""Crash-consistent recovery: checkpoint restore + WAL-suffix replay.

:class:`DurabilityManager` is the per-parameter-server owner of the
durability state: one :class:`~repro.durability.wal.DeltaWAL` and one
:class:`~repro.durability.checkpoint.CheckpointStore` per node, all WALs
sharing one cluster-wide :class:`~repro.durability.wal.LSNClock`.  It wraps
every node's parameter store in a
:class:`~repro.durability.wal.LoggedStorage` proxy at install time and
takes a baseline checkpoint (LSN 0 covers the initial parameter insert of
each node, which is itself logged — either order recovers identically
because inserts are replayed by overwrite).

Recovery is a *read* of the durable state, consumed by
:meth:`~repro.cluster.rebalancer.Rebalancer.recover_after_failure`: restore
the failed node's latest checkpoint as a key -> row dict, replay its WAL
suffix onto it (:func:`replay_records`), and hand the result to the same
``RecoveryInstall`` path that replica recovery uses — replica sync and
crash recovery are two consumers of one log.  For keys whose relocation
transfer was in flight at crash time (the home table already names the dead
node as owner, but the dead node's log never saw the insert), the old
owner's ``remove`` record is the last durable copy;
:meth:`DurabilityManager.last_removed_value` finds it by global LSN order.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import DurabilityError

from .checkpoint import Checkpoint, CheckpointStore, take_checkpoint
from .wal import (
    WAL_DELTA,
    WAL_INSERT,
    WAL_REMOVE,
    WAL_SET,
    DeltaWAL,
    DurabilityConfig,
    LoggedStorage,
    LSNClock,
)


def replay_records(state: Dict[int, np.ndarray], records) -> Tuple[int, int]:
    """Apply WAL records, in log order, onto a key -> value-row dict.

    Returns ``(records_applied, delta_rows_applied)``.  Replaying a
    ``delta`` row is the same float64 ``+=`` the original store performed —
    the store's batch mutators apply duplicate keys in batch order
    (``np.add.at`` / sequential loops), so per key the replayed
    addition sequence is identical to the live one and the result is
    bit-identical.
    """
    applied = 0
    delta_rows = 0
    for record in records:
        kind = record.kind
        values = record.values
        if kind == WAL_DELTA:
            for index, key in enumerate(record.keys):
                row = state.get(key)
                if row is None:
                    raise DurabilityError(
                        f"WAL replay: delta for key {key} (lsn {record.lsn}) "
                        "targets a key absent from the restored state"
                    )
                row += values[index]
                delta_rows += 1
        elif kind in (WAL_INSERT, WAL_SET):
            for index, key in enumerate(record.keys):
                state[key] = values[index].copy()
        elif kind == WAL_REMOVE:
            for key in record.keys:
                state.pop(key, None)
        else:  # pragma: no cover - append() validates kinds
            raise DurabilityError(f"unknown WAL record kind {kind!r}")
        applied += 1
    return applied, delta_rows


class DurabilityManager:
    """Per-PS owner of WALs, checkpoints, and the recovery read path."""

    def __init__(self, ps, config: DurabilityConfig) -> None:
        self.ps = ps
        self.config = config
        self.clock = LSNClock()
        self.wals: Dict[int, DeltaWAL] = {}
        self.checkpoints: Dict[int, CheckpointStore] = {}
        self._next_checkpoint_at: Dict[int, float] = {}
        for state in ps.states:
            self._install(state)
        # Baseline checkpoints cover the (logged) initial parameter inserts,
        # so recovery always has a checkpoint to restore from.
        self.checkpoint_all()

    # ------------------------------------------------------------ installation
    def _install(self, state) -> None:
        node = state.node_id
        wal = DeltaWAL(node=node, clock=self.clock, metrics=state.metrics)
        if self.config.checkpoint_interval > 0:
            # Lazy trigger: checked on append, never via kernel events, so
            # durability cannot perturb simulated timings.
            wal.after_append = lambda node=node: self._maybe_checkpoint(node)
        self.wals[node] = wal
        self.checkpoints[node] = CheckpointStore(node)
        state.storage = LoggedStorage(state.storage, wal)

    def wrap_fresh_storage(self, node: int, storage) -> LoggedStorage:
        """Re-wrap a freshly wiped store in the node's existing WAL.

        Used by the elastic runtime when it models a crash: the volatile
        store is lost, the durable log is not.
        """
        return LoggedStorage(storage, self.wals[node])

    # ------------------------------------------------------------- checkpoints
    def _maybe_checkpoint(self, node: int) -> None:
        due = self._next_checkpoint_at.get(node)
        if due is not None and self.ps.sim.now >= due:
            self.checkpoint_node(node)

    def checkpoint_node(self, node: int) -> Checkpoint:
        """Take a synchronous checkpoint of ``node``'s store now."""
        state = self.ps.states[node]
        wal = self.wals[node]
        checkpoint = take_checkpoint(
            state.storage, node=node, lsn=wal.last_lsn, now=self.ps.sim.now
        )
        self.checkpoints[node].add(checkpoint)
        state.metrics.checkpoints += 1
        state.metrics.checkpoint_bytes += checkpoint.nbytes
        if self.config.truncate_on_checkpoint:
            wal.truncate_to(checkpoint.lsn)
        if self.config.checkpoint_interval > 0:
            self._next_checkpoint_at[node] = (
                self.ps.sim.now + self.config.checkpoint_interval
            )
        return checkpoint

    def checkpoint_all(self) -> None:
        for state in self.ps.states:
            self.checkpoint_node(state.node_id)

    # ---------------------------------------------------------------- recovery
    def recovered_state(self, node: int) -> Tuple[Dict[int, np.ndarray], int]:
        """Durable state of ``node``: latest checkpoint + WAL-suffix replay.

        Returns ``(key -> value row, replayed delta rows)`` and records the
        replay volume in the node's ``replayed_deltas`` metric.
        """
        checkpoint = self.checkpoints[node].latest
        if checkpoint is None:
            raise DurabilityError(f"node {node} has no checkpoint to restore")
        state = checkpoint.as_state()
        suffix = self.wals[node].records_since(checkpoint.lsn)
        _, delta_rows = replay_records(state, suffix)
        self.ps.states[node].metrics.replayed_deltas += delta_rows
        return state, delta_rows

    def last_removed_value(self, key: int) -> Optional[np.ndarray]:
        """Value carried by the globally newest ``remove`` record for ``key``.

        ``None`` if no retained ``remove`` record mentions the key.  Only
        consulted for keys absent from every durable owned-state, i.e. keys
        whose relocation transfer vanished with a crashing destination — the
        shared LSN clock makes "newest across all node logs" well defined.
        """
        best: Optional[Tuple[int, np.ndarray]] = None
        for wal in self.wals.values():
            found = wal.last_removed(key)
            if found is not None and (best is None or found[0] > best[0]):
                best = found
        return None if best is None else best[1]

    def reset_after_crash(self, node: int) -> None:
        """Seal a crashed node's durable history after recovery consumed it.

        Takes a fresh (empty-store) checkpoint at the node's current last
        LSN so pre-crash records can never replay into the node's post-rejoin
        life — the recovered keys now live, durably, in their new owners'
        logs.
        """
        self._next_checkpoint_at.pop(node, None)
        self.checkpoint_node(node)
