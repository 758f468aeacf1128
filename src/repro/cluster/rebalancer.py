"""Membership-driven key rebalancing and failure recovery.

The :class:`Rebalancer` translates membership events into parameter movement:

* **join** — the versioned :class:`~repro.ps.partition.ElasticPartitioner`
  computes the joining node's balanced key share (movement-minimizing: keys
  move only *to* the new node); home duties for those keys are handed over on
  the control plane, and ownership migrates through the *existing* relocation
  protocol (§3.2) — the rebalancer simply acts as one more localize requester
  on behalf of the new node, so everything the protocol does on arrival
  (queue draining, hybrid subscriber handoff, metrics) applies unchanged.
* **drain** — the partitioner drops the node from the active set; every key
  the drainee still owns is relocated to that key's (new) home node.  Because
  applications keep localizing while the drain is in flight, the runtime
  re-sweeps at epoch boundaries until the node owns nothing.
* **fail** — the failed node's keys are re-homed (which requires a
  relocation-capable policy) and restored from the best surviving source.
  With the durability subsystem installed (``supports_wal_recovery``), the
  dead node's latest checkpoint plus WAL-suffix replay reproduces its store
  exactly as of the crash instant, and keys whose relocation transfer was on
  the wire are restored from the old owner's ``remove`` record.  Otherwise,
  each key that a surviving node replicates (the hybrid policy) is
  *recovered*: the holder ships its copy to the new owner in a
  :class:`~repro.ps.messages.RecoveryInstall`, which also hands over
  broadcast duties for the remaining replica holders.  Both paths install
  through the same ``RecoveryInstall`` handler — replica sync and crash
  recovery are two consumers of one log.  Keys with no surviving source are
  *lost*: re-initialized to zeros and counted in
  :attr:`~repro.ps.metrics.PSMetrics.lost_keys` — the price of pure
  relocation without durability, which keeps exactly one copy of every
  parameter.

Modeling note: home-table handoff and membership bookkeeping are applied
atomically at event time (a configuration-service control plane); all
*parameter data* moves through real simulated messages.  Requests that were
in flight across the epoch bump are tolerated by the stale-location
forwarding of :meth:`repro.ps.lapse.RelocationPolicy.process_localize_at_home`,
exactly as §3.5 tolerates stale location caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.membership import ACTIVE, DRAINING, JOINING, Membership
from repro.config import message_size
from repro.errors import ClusterError
from repro.ps.futures import OperationHandle
from repro.ps.lapse import RelocatingKey
from repro.ps.messages import RecoveryInstall
from repro.ps.partition import ElasticPartitioner


@dataclass
class RebalanceOperation:
    """One in-flight rebalance: the data movement triggered by a membership event.

    ``handle`` completes when every migrated key is installed at its target
    (``None`` when the event moved no data).
    """

    kind: str
    node: int
    started_at: float
    handle: Optional[OperationHandle] = None
    moved_keys: int = 0
    recovered_keys: int = 0
    lost_keys: int = 0

    @property
    def done(self) -> bool:
        """Whether all data movement of this operation has completed."""
        return self.handle is None or self.handle.done


class Rebalancer:
    """Migrates key ownership when the cluster membership changes."""

    def __init__(self, ps: Any, membership: Membership) -> None:
        self.ps = ps
        self.membership = membership

    # ----------------------------------------------------------- capabilities
    @property
    def supports_rebalance(self) -> bool:
        """Whether this PS can migrate ownership (relocation + elastic partitioner)."""
        return (
            self.ps.management_policy.supports_rebalance
            and isinstance(self.ps.partitioner, ElasticPartitioner)
        )

    @property
    def supports_replica_recovery(self) -> bool:
        """Whether failed keys can be restored from surviving replicas."""
        return self.ps.management_policy.supports_replica_recovery

    @property
    def supports_wal_recovery(self) -> bool:
        """Whether failed keys can be restored from checkpoints + WAL replay.

        Requires the durability subsystem to be installed on the PS *and* a
        policy whose ``RecoveryInstall`` path can absorb restored keys (plus
        rebalance support, since recovered keys must be re-homed).
        """
        return (
            self.ps.durability is not None
            and self.ps.management_policy.supports_wal_recovery
            and self.supports_rebalance
        )

    # ---------------------------------------------------------------- helpers
    def _eligible_owners(self) -> List[int]:
        """Nodes the partitioner may assign keys to (joining + active)."""
        return self.membership.nodes_in(JOINING, ACTIVE)

    def owned_keys(self, node: int) -> List[int]:
        """Keys currently owned by ``node`` (via the location tables)."""
        ps = self.ps
        keys = np.arange(ps.ps_config.num_keys, dtype=np.int64)
        return keys[ps.current_owners(keys) == node].tolist()

    def _rebalance_partitioner(self) -> List[Tuple[int, int, int]]:
        """Recompute the home assignment for the current eligible set."""
        partitioner: ElasticPartitioner = self.ps.partitioner
        eligible = self._eligible_owners()
        if eligible == partitioner.active_nodes:
            return []
        return partitioner.rebalance(eligible)

    def _handoff_homes(self, moves: List[Tuple[int, int, int]]) -> None:
        """Move home-table entries to the new home nodes (control plane).

        The location *data* (key -> current owner) is preserved; only the node
        responsible for serving it changes.  In-flight localize requests that
        still target the old home are forwarded along the new assignment.
        """
        states = self.ps.states
        for key, old_home, new_home in moves:
            owner = states[old_home].home_location.pop(key)
            states[new_home].home_location[key] = owner

    def _relocate_to_homes(
        self, targets: Dict[int, List[int]], now: float
    ) -> Tuple[Optional[OperationHandle], int]:
        """Relocate key groups to their home nodes via the relocation protocol.

        Returns the completion handle (``None`` if nothing moved) and the
        number of keys whose migration was initiated.
        """
        ps = self.ps
        all_keys = sorted(key for keys in targets.values() for key in keys)
        if not all_keys:
            return None, 0
        handle = OperationHandle(ps.sim, "rebalance", all_keys, ps.ps_config.value_length)
        moved = 0
        for target in sorted(targets):
            target_state = ps.states[target]
            fresh: List[int] = []
            for key in sorted(targets[target]):
                if target_state.storage.contains(key):
                    # Already where it belongs; nothing to move.
                    handle.complete_keys([key])
                    continue
                entry = target_state.relocating_in.get(key)
                if entry is not None:
                    # An application localize is already pulling the key in;
                    # piggyback on it instead of racing it.
                    entry.localize_handles.append(handle)
                    moved += 1
                    continue
                target_state.relocating_in[key] = RelocatingKey(
                    key=key, requested_at=now, localize_handles=[handle]
                )
                fresh.append(key)
                moved += 1
            if fresh:
                target_state.metrics.rebalanced_keys += len(fresh)
                ps.management_policy.process_localize_at_home(
                    target_state, tuple(fresh), requester=target
                )
        if moved == 0 and not handle.done:  # pragma: no cover - defensive
            handle.complete_keys(all_keys)
        return handle, moved

    # ------------------------------------------------------------------- join
    def rebalance_for_join(self, node: int, now: float) -> RebalanceOperation:
        """Give a joining node its balanced key share (home duty + ownership)."""
        operation = RebalanceOperation(kind="join", node=node, started_at=now)
        if not self.supports_rebalance:
            # Static/replicated allocation: the new node contributes workers
            # but cannot take over keys.
            return operation
        moves = self._rebalance_partitioner()
        self._handoff_homes(moves)
        targets: Dict[int, List[int]] = {}
        for key, _old_home, new_home in moves:
            targets.setdefault(new_home, []).append(key)
        self.ps.states[node].metrics.rebalance_rounds += 1
        operation.handle, operation.moved_keys = self._relocate_to_homes(targets, now)
        return operation

    # ------------------------------------------------------------------ drain
    def rebalance_for_drain(self, node: int, now: float) -> RebalanceOperation:
        """Move everything off a draining node (also the boundary re-sweep)."""
        operation = RebalanceOperation(kind="drain", node=node, started_at=now)
        if not self.supports_rebalance:
            # A static allocation cannot shed the node's keys: it keeps
            # serving them (forever "draining") — the classic-PS inelasticity.
            return operation
        moves = self._rebalance_partitioner()
        self._handoff_homes(moves)
        partitioner: ElasticPartitioner = self.ps.partitioner
        targets: Dict[int, List[int]] = {}
        for key in self.owned_keys(node):
            targets.setdefault(partitioner.node_of(key), []).append(key)
        self.ps.states[node].metrics.rebalance_rounds += 1
        operation.handle, operation.moved_keys = self._relocate_to_homes(targets, now)
        return operation

    # ---------------------------------------------------------------- failure
    def _waiting_chain(self, key: int, nodes: List[int]) -> Tuple[Optional[int], Optional[int]]:
        """The first and the last node of ``nodes`` in line for ``key``, each
        None if none waits.

        Waiting nodes form a chain, each one instructed to pass the key on to
        the next (``pending_new_owner``).  The first is the one no other
        waiting node passes it to, the earliest request if the instruction
        that would tell is still on the wire.  The last, where the key comes
        to rest once the relocations under way have run, passes it to no
        waiting node, the latest request if that instruction is on the wire.
        """
        states = self.ps.states
        waiting = [other for other in nodes if key in states[other].relocating_in]

        def order(other: int) -> Tuple[float, int]:
            return states[other].relocating_in[key].requested_at, other

        passed_to = {states[other].relocating_in[key].pending_new_owner for other in waiting}
        first = min((other for other in waiting if other not in passed_to), key=order, default=None)
        last = max(
            (
                other
                for other in waiting
                if states[other].relocating_in[key].pending_new_owner not in waiting
            ),
            key=order,
            default=None,
        )
        return first, last

    def recover_after_failure(self, node: int, now: float) -> RebalanceOperation:
        """Re-home a failed node's keys; recover from replicas or declare lost."""
        ps = self.ps
        if not self.supports_rebalance:
            raise ClusterError(
                f"cannot recover the keys of failed node {node}: the "
                f"{ps.management_policy.name} policy does not support "
                "rebalancing, and recovery must re-home the failed keys "
                "(only relocation-capable policies can)"
            )
        operation = RebalanceOperation(kind="fail", node=node, started_at=now)
        # New owners must be eligible (joining/active); replica *sources* may
        # also be draining nodes — alive and connected, their replicas are
        # released only once their drain completes.
        replica_sources = self.membership.nodes_in(JOINING, ACTIVE, DRAINING)
        # 1) Home duties held by the failed node move to survivors (the
        #    control plane mirrors location tables, so they survive the crash).
        moves = self._rebalance_partitioner()
        self._handoff_homes(moves)
        # 2) Scrub the failed node from replication bookkeeping on survivors.
        if self.supports_replica_recovery:
            for survivor in replica_sources:
                state = ps.states[survivor]
                for subscriber_set in state.subscribers.values():
                    subscriber_set.discard(node)
                state.broadcast_buffer.pop(node, None)
        # 3) Every key the failed node owned is recovered or lost, and so is
        #    every key a survivor waits for from it: held by the dead node, or
        #    on its way there, while the home table already names the waiting
        #    survivor (a relocation the crash cut short).  Recovery sources,
        #    in priority order: the durable log (checkpoint + WAL replay —
        #    exact as of the crash instant), a `remove` record in a survivor's
        #    WAL (the key's relocation transfer was on the wire to the dead
        #    node), a surviving replica, nothing (lost).  Both the WAL and the
        #    replica path install through the same ``RecoveryInstall`` handler
        #    — two consumers of one log.
        partitioner: ElasticPartitioner = self.ps.partitioner
        value_length = ps.ps_config.value_length
        wal_recovery = self.supports_wal_recovery
        durable: Dict[int, np.ndarray] = {}
        if wal_recovery:
            durable, _replayed = ps.durability.recovered_state(node)
        recovery_groups: Dict[Tuple[int, int], List[Tuple[int, Tuple[int, ...]]]] = {}
        wal_groups: Dict[int, List[Tuple[int, np.ndarray, Tuple[int, ...]]]] = {}
        lost_groups: Dict[int, List[int]] = {}
        pending: List[int] = []
        owned = self.owned_keys(node)
        dead = ps.states[node]
        cut_short = []
        for key in sorted(set(dead.storage.keys()).union(dead.relocating_in).difference(owned)):
            head, _ = self._waiting_chain(key, replica_sources)
            if head is not None:
                cut_short.append((key, head))
        for key, target in [(key, None) for key in owned] + cut_short:
            # Stale-home tolerance: a localize instruction in flight at crash
            # time can leave the key resident on a survivor even though the
            # home table already names the dead node as owner.  The data is
            # safe where it is — re-point the home entry instead of
            # restoring a stale copy over it.
            resident_at = next(
                (
                    survivor
                    for survivor in replica_sources
                    if ps.states[survivor].storage.contains(key)
                ),
                None,
            )
            if target is None:
                # An owned key: its home entry names the new owner, or the
                # survivor the key rests on once the relocations under way
                # have run (an instruction to ship it on may be on the wire).
                target = partitioner.node_of(key)
                owner = target
                if resident_at is not None:
                    _, owner = self._waiting_chain(key, replica_sources)
                    if owner is None:
                        owner = resident_at
                ps.states[target].home_location[key] = owner
            target_state = ps.states[target]
            if resident_at is not None:
                continue
            holders: List[int] = []
            if self.supports_replica_recovery:
                holders = [
                    survivor
                    for survivor in replica_sources
                    if key in ps.states[survivor].replicas
                ]
            value: Optional[np.ndarray] = None
            if wal_recovery:
                value = durable.get(key)
                if value is None:
                    # Not durably owned by anyone: the key's transfer to the
                    # dead node vanished on the wire, so the last durable
                    # copy rides in the old owner's `remove` record.
                    value = ps.durability.last_removed_value(key)
            if value is not None:
                if key not in target_state.relocating_in:
                    # Piggyback on an in-flight application localize if one
                    # exists (its handles drain with the recovery install).
                    target_state.relocating_in[key] = RelocatingKey(
                        key=key, requested_at=now
                    )
                wal_groups.setdefault(target, []).append((key, value, tuple(holders)))
                operation.recovered_keys += 1
            elif holders:
                source = holders[0]
                if key not in target_state.relocating_in:
                    target_state.relocating_in[key] = RelocatingKey(
                        key=key, requested_at=now
                    )
                recovery_groups.setdefault((source, target), []).append(
                    (key, tuple(holders))
                )
                pending.append(key)
                operation.recovered_keys += 1
            else:
                if key in target_state.relocating_in:
                    lost_groups.setdefault(target, []).append(key)
                else:
                    target_state.storage.insert(key, np.zeros(value_length))
                target_state.metrics.lost_keys += 1
                operation.lost_keys += 1
        # 3b) Keys restored from the durable log install synchronously: the
        #     read is off the crashed node's persisted state, not a network
        #     transfer, so it rides no simulated message.  Handing it to the
        #     policy's install handler reuses the full recovery semantics —
        #     queued operations drain onto the new owner and (hybrid) the
        #     surviving subscribers' broadcast duties are handed over.
        for target in sorted(wal_groups):
            entries = wal_groups[target]
            target_state = ps.states[target]
            install = RecoveryInstall(
                keys=tuple(key for key, _value, _holders in entries),
                values=np.stack([value for _key, value, _holders in entries]),
                subscribers=tuple(holders for _key, _value, holders in entries),
            )
            ps.management_policy.install_recovered(target_state, install)
            target_state.metrics.wal_recovered_keys += len(entries)
            operation.moved_keys += len(entries)
        # 3c) A lost key that a relocation waits for is re-initialized the
        #     same way, so the waiting handles complete.
        for target, keys in sorted(lost_groups.items()):
            install = RecoveryInstall(keys=tuple(keys), values=np.zeros((len(keys), value_length)))
            ps.management_policy.install_recovered(ps.states[target], install, lost=True)
        # 4) Surviving holders ship their copies to the new owners.
        if pending:
            handle = OperationHandle(ps.sim, "rebalance", sorted(pending), value_length)
            operation.handle = handle
            operation.moved_keys += len(pending)
            for (source, target), entries in sorted(recovery_groups.items()):
                source_state = ps.states[source]
                keys = tuple(key for key, _holders in entries)
                for key in keys:
                    ps.states[target].relocating_in[key].localize_handles.append(handle)
                values = np.stack(
                    [np.array(source_state.replicas[key], dtype=np.float64) for key in keys]
                )
                for key in keys:
                    # The snapshot subsumes the holder's unflushed updates.
                    source_state.pending_updates.pop(key, None)
                install = RecoveryInstall(
                    keys=keys,
                    values=values,
                    subscribers=tuple(holders for _key, holders in entries),
                )
                ps.send_to_server(
                    source, target, install, message_size(len(keys), values.size)
                )
        ps.states[node].metrics.rebalance_rounds += 1
        return operation
