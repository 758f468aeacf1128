"""Hybrid parameter management: replicate hot keys, relocate the long tail.

The paper's outlook — formalized in the NuPS follow-up (Renz-Wieland et al.,
SIGMOD 2022) — is that no single management technique suits every parameter:
*relocation* (§3) is ideal for keys with access locality (each key lives on
the one node that works on it; accesses are local, per-key sequential
consistency is retained), but a *hot* key that every node reads constantly
would bounce between nodes.  For those, *replication* wins: every accessor
holds a copy, reads/writes are local, and the copies synchronize in the
background at the price of weaker per-key consistency.

:class:`HybridPS` runs both techniques in one server, assigned **per key** by
the hot-key policies of :mod:`repro.ps.partition`:

* a key a node's policy classifies as hot is *replicated* to that node on
  first read (subscription + snapshot install, exactly like
  :class:`~repro.ps.replica.ReplicaPS`),
* every other key follows the Lapse relocation protocol (``localize``,
  home-node location management, forward routing) inherited from
  :class:`~repro.ps.lapse.LapsePS`.

The two protocols compose through three mechanisms:

1. **Routing** (:class:`~repro.ps.policy.HybridManagementPolicy`): owned
   storage → replica store → in-flight queues (install / relocation) →
   hot-key policy; cold misses and replica subscriptions are both routed via
   the relocation policy's home-node/location-cache destination, so
   subscriptions *chase* relocated keys the same way accesses do (the home
   node forwards register and flush messages to the current owner).
2. **Owner-side broadcasts everywhere**: :class:`HybridNodeState` hooks the
   owned-write path, so every write applied to an owned key — worker fast
   path, forwarded push, queued-op drain — enqueues a delta for the key's
   subscribers, regardless of which protocol delivered it.
3. **Subscriber handoff on relocation**: when a subscribed key relocates, the
   old owner first drains its pending broadcast deltas, then hands the
   subscriber set over inside the :class:`RelocationTransfer`; the new owner
   takes over broadcast duties.  ``localize`` of a key the caller already
   replicates completes immediately (a replica makes accesses local), so a
   node is never both subscriber and owner of the same key.

Consistency (§3.4, Table 1): relocated (cold) keys retain per-key sequential
consistency for synchronous operations; replicated (hot) keys retain eventual
consistency plus the session guarantees, like the pure replica PS.  The
per-key classification is exposed by
:meth:`repro.ps.policy.HybridManagementPolicy.key_guarantees`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace as dataclass_replace
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import message_size
from repro.ps.base import FusedLocalSteps, KeyRows, NodeState, QueuedOp
from repro.ps.futures import OperationHandle
from repro.ps.lapse import LapseNodeState, LapsePS, LapseWorkerClient, RelocatingKey
from repro.ps.messages import (
    PullRequest,
    PushRequest,
    RelocateInstruction,
    RelocationTransfer,
    ReplicaDeltaBroadcast,
    ReplicaInstall,
    ReplicaRegisterRequest,
    ReplicaSyncFlush,
)
from repro.ps.policy import (
    ROUTE_LOCAL,
    ROUTE_QUEUE,
    ROUTE_REPLICA,
    ROUTE_SUBSCRIBE,
    HybridManagementPolicy,
    RelocationPolicy,
)
from repro.ps.replica import ReplicaNodeState, ReplicaPS
from repro.ps.storage import gather_rows

__all__ = ["HybridNodeState", "HybridPS", "HybridWorkerClient"]


class HybridNodeState(ReplicaNodeState, LapseNodeState):
    """Per-node state of the hybrid PS: relocation tables *and* replica stores.

    Both table sets are installed by
    :meth:`~repro.ps.policy.HybridManagementPolicy.attach`.  The owned-write
    accessors are hooked so that every update applied to an owned key also
    feeds the replica-broadcast buffers — no matter whether the write arrived
    through the worker fast path, a forwarded push, or a drained queue.
    """

    def write_local(self, key: int, update: np.ndarray) -> None:
        super().write_local(key, update)
        self.ps.enqueue_broadcast(self, key, update)

    def write_local_many(self, keys: Sequence[int], updates: np.ndarray) -> None:
        super().write_local_many(keys, updates)
        ps = self.ps
        subscribers = self.subscribers
        for index, key in enumerate(keys):
            if subscribers.get(key):
                ps.enqueue_broadcast(self, key, updates[index])

    def write_local_raw(self, keys: Sequence[int], updates: np.ndarray) -> None:
        """Owned write *without* the broadcast hook (for flushes, which carry
        their own exclusion-aware broadcast step)."""
        NodeState.write_local_many(self, keys, updates)


class HybridFusedLocalSteps(FusedLocalSteps):
    """Fused local steps for the hybrid PS: only subscriber-free owned keys.

    An owned key with subscribers is replicated elsewhere — its writes feed
    the broadcast buffers that the background synchronizer reads mid-window,
    so such keys must stay on the event-by-event path.  A subscriber-free
    owned key behaves exactly like a Lapse-owned key (plain storage write;
    the broadcast hook is a no-op), and the trainer's privacy window also
    rules out a subscription *appearing* mid-window (a registration would
    require another node to read the key).
    """

    __slots__ = ("subscribers",)

    def __init__(self, client: "HybridWorkerClient") -> None:
        super().__init__(client)
        self.subscribers = client.state.subscribers

    def try_pull(self, key):
        entry = self.subscribers.get(key)
        if entry:
            return None
        return FusedLocalSteps.try_pull(self, key)


class HybridWorkerClient(LapseWorkerClient):
    """Client of the hybrid PS: replica fast path over Lapse routing."""

    state: HybridNodeState

    def fused_local_steps(self):
        """Subscriber-aware fused local steps (see HybridFusedLocalSteps)."""
        if self._fusion_safe() and type(self.policy) is HybridManagementPolicy:
            return HybridFusedLocalSteps(self)
        return None

    # ------------------------------------------------------------------- pull
    def _issue_pull(self, handle: OperationHandle, keys: Tuple[int, ...]) -> None:
        state = self.state
        metrics = state.metrics
        local_keys: List[int] = []
        replica_keys: List[int] = []
        register_groups: Dict[int, List[int]] = defaultdict(list)
        remote_groups: Dict[int, List[int]] = defaultdict(list)
        for key in keys:
            route = self.policy.route(state, key)
            if route.kind == ROUTE_LOCAL:
                local_keys.append(key)
            elif route.kind == ROUTE_REPLICA:
                replica_keys.append(key)
            elif route.kind == ROUTE_QUEUE:
                metrics.queued_ops += 1
                metrics.key_reads_local += 1
                queued = QueuedOp(kind="local_pull", key=key, handle=handle)
                if key in state.installing:
                    metrics.replica_reads += 1
                    state.installing[key].ops.append(queued)
                else:
                    state.relocating_in[key].queued_ops.append(queued)
            elif route.kind == ROUTE_SUBSCRIBE:
                state.installing[key].ops.append(
                    QueuedOp(kind="local_pull", key=key, handle=handle)
                )
                register_groups[route.destination].append(key)
            else:
                remote_groups[route.destination].append(key)
        if local_keys:
            metrics.key_reads_local += len(local_keys)
            self._local_pull(handle, local_keys)
        if replica_keys:
            metrics.key_reads_local += len(replica_keys)
            metrics.replica_reads += len(replica_keys)
            self._local_replica_pull(handle, replica_keys)
        for owner, owner_keys in register_groups.items():
            metrics.key_reads_remote += len(owner_keys)
            self._send_register(owner, owner_keys)
        for destination, dest_keys in remote_groups.items():
            metrics.key_reads_remote += len(dest_keys)
            self._send_remote(handle, destination, dest_keys, pull=True)
        if register_groups or remote_groups:
            metrics.pulls_remote += 1
        else:
            metrics.pulls_local += 1

    # ------------------------------------------------------------------- push
    def _issue_push(
        self,
        handle: OperationHandle,
        keys: Tuple[int, ...],
        updates: np.ndarray,
        needs_ack: bool,
    ) -> None:
        state = self.state
        metrics = state.metrics
        local = KeyRows()
        replica = KeyRows()
        remote_groups: Dict[int, KeyRows] = defaultdict(KeyRows)
        for row, key in enumerate(keys):
            route = self.policy.route(state, key, write=True)
            if route.kind == ROUTE_LOCAL:
                local.add(key, row)
            elif route.kind == ROUTE_REPLICA:
                replica.add(key, row)
            elif route.kind == ROUTE_QUEUE:
                metrics.queued_ops += 1
                metrics.key_writes_local += 1
                queued = QueuedOp(
                    kind="local_push",
                    key=key,
                    handle=handle,
                    update=updates[row].copy(),
                )
                if key in state.installing:
                    metrics.replica_writes += 1
                    state.installing[key].ops.append(queued)
                else:
                    state.relocating_in[key].queued_ops.append(queued)
            else:
                remote_groups[route.destination].add(key, row)
        if local.keys:
            metrics.key_writes_local += len(local.keys)
            self._local_push(handle, local.keys, updates, local.rows)
        if replica.keys:
            metrics.key_writes_local += len(replica.keys)
            metrics.replica_writes += len(replica.keys)
            self._local_replica_push(handle, replica.keys, updates, replica.rows)
        for destination, group in remote_groups.items():
            metrics.key_writes_remote += len(group.keys)
            self._send_remote(
                handle, destination, group.keys, pull=False, updates=updates, rows=group.rows
            )
        if remote_groups:
            metrics.pushes_remote += 1
        else:
            metrics.pushes_local += 1

    # ----------------------------------------------------------- replica path
    def _local_replica_pull(self, handle: OperationHandle, keys: List[int]) -> None:
        cost = self.ps.cluster.cost_model
        delay = cost.local_access_time(shared_memory=True) * len(keys)
        state = self.state

        def action() -> None:
            state.latches.acquire_many(keys)
            replicas = state.replicas
            values = np.empty((len(keys), self.value_length), dtype=np.float64)
            for index, key in enumerate(keys):
                values[index] = replicas[key]
            handle.complete_keys(keys, values)

        self._complete_after(delay, action)

    def _local_replica_push(
        self,
        handle: OperationHandle,
        keys: List[int],
        updates: np.ndarray,
        rows: List[int],
    ) -> None:
        cost = self.ps.cluster.cost_model
        delay = cost.local_access_time(shared_memory=True) * len(keys)
        state = self.state
        ps: "HybridPS" = self.ps  # type: ignore[assignment]

        def action() -> None:
            for key, row in zip(keys, rows):
                ps.apply_replica_write(state, key, updates[row])
            handle.complete_keys(keys)

        self._complete_after(delay, action)

    def _send_register(self, destination: int, keys: List[int]) -> None:
        from repro.ps.base import van_address

        request = ReplicaRegisterRequest(
            keys=tuple(keys),
            requester_node=self.node_id,
            reply_to=van_address(self.node_id),
        )
        self.ps.send_to_server(
            self.node_id, destination, request, message_size(len(keys), 0)
        )

    # --------------------------------------------------------------- localize
    def _localized_without_move(self, state: HybridNodeState, key: int) -> bool:
        """A replica (present or installing) already makes accesses local, so
        ``localize`` on a replicated key needs no relocation — this also keeps
        a node from ever being subscriber and owner of the same key."""
        return (
            state.storage.contains(key)
            or key in state.replicas
            or key in state.installing
        )

    # ---------------------------------------------------------------- routing
    def _relocation_policy(self) -> RelocationPolicy:
        return self.policy.relocation  # type: ignore[union-attr]

    # --------------------------------------------------------- opportunistic
    def pull_if_local(self, key: int) -> Optional[np.ndarray]:
        """Return ``key``'s value if owned or replicated locally, else ``None``.

        A miss feeds the hot-key statistics and, once the key is hot, starts
        a background replica install (Appendix A latency hiding benefits).
        """
        key = int(self._check_keys([key])[0])
        state = self.state
        if state.storage.contains(key):
            state.metrics.key_reads_local += 1
            state.metrics.pulls_local += 1
            return state.read_local(key)
        if key in state.replicas:
            state.metrics.key_reads_local += 1
            state.metrics.pulls_local += 1
            state.metrics.replica_reads += 1
            state.latches.acquire(key)
            return state.replicas[key].copy()
        if key not in state.installing and key not in state.relocating_in:
            route = self.policy.route(state, key)
            if route.kind == ROUTE_SUBSCRIBE:
                self._send_register(route.destination, [key])
        return None

    # ------------------------------------------------------------------ clock
    def clock(self) -> Generator:
        """Advance the worker clock; in ``"clock"`` mode, synchronize the node."""
        self._clock += 1
        self.state.metrics.clock_advances += 1
        if self.ps.ps_config.replica_sync_trigger == "clock":
            self.policy.on_sync(self.state)
        return
        yield  # pragma: no cover - makes this function a generator


class HybridPS(LapsePS, ReplicaPS):
    """One server, two management techniques, assigned per key.

    Inherits the relocation protocol (and location management) from
    :class:`LapsePS` and the replication machinery (subscriptions, delta
    buffers, synchronization loop) from :class:`ReplicaPS`; this class wires
    the two together at the points where they interact.
    """

    client_class = HybridWorkerClient
    policy_class = HybridManagementPolicy
    name = "hybrid"

    def _make_node_state(self, node) -> HybridNodeState:
        return HybridNodeState(self, node)

    # ---------------------------------------------------------- server dispatch
    def _server_dispatch(self, state: HybridNodeState):  # type: ignore[override]
        cost = self.cluster.cost_model.server_processing_time
        dispatch = {
            PullRequest: (cost, self._handle_access),
            PushRequest: (cost, self._handle_access),
        }
        # Relocation + replication protocol messages, via the two sub-policies.
        dispatch.update(self.management_policy.server_handlers(state))
        return dispatch

    # --------------------------------------------- replica messages, forwarded
    def _handle_register(
        self, state: HybridNodeState, request: ReplicaRegisterRequest
    ) -> None:
        """Subscribe + install for owned keys; chase relocated keys otherwise."""
        resident_keys: List[int] = []
        forward_groups: Dict[int, List[int]] = defaultdict(list)
        for key, is_resident in zip(
            request.keys, state.storage.contains_flags(request.keys)
        ):
            if is_resident:
                resident_keys.append(key)
            elif key in state.relocating_in:
                state.metrics.queued_ops += 1
                state.relocating_in[key].queued_ops.append(
                    QueuedOp(kind="register", key=key, request=request)
                )
            else:
                forward_groups[self._forward_destination(state, key)].append(key)
        if resident_keys:
            values = state.read_local_many(resident_keys)
            for key in resident_keys:
                state.subscribers[key].add(request.requester_node)
            install = ReplicaInstall(
                keys=tuple(resident_keys),
                values=values,
                responder_node=state.node_id,
            )
            size = message_size(len(resident_keys), values.size)
            self.network.send(state.node_id, request.reply_to, install, size)
        for destination, keys in forward_groups.items():
            state.metrics.forwarded_ops += 1
            forwarded = ReplicaRegisterRequest(
                keys=tuple(keys),
                requester_node=request.requester_node,
                reply_to=request.reply_to,
            )
            self.send_to_server(
                state.node_id, destination, forwarded, message_size(len(keys), 0)
            )

    def _handle_flush(self, state: HybridNodeState, flush: ReplicaSyncFlush) -> None:
        """Apply flushed replica updates to owned keys; chase relocated keys."""
        resident_keys: List[int] = []
        resident_rows: List[int] = []
        forward_groups: Dict[int, List[int]] = defaultdict(list)
        for index, (key, is_resident) in enumerate(
            zip(flush.keys, state.storage.contains_flags(flush.keys))
        ):
            if is_resident:
                resident_keys.append(key)
                resident_rows.append(index)
            elif key in state.relocating_in:
                state.metrics.queued_ops += 1
                state.relocating_in[key].queued_ops.append(
                    QueuedOp(kind="flush", key=key, request=flush)
                )
            else:
                forward_groups[self._forward_destination(state, key)].append(key)
        if resident_keys:
            # Raw write: the flush's broadcast step must exclude the source
            # node (it already applied these updates to its own replica).
            state.write_local_raw(resident_keys, flush.updates[resident_rows])
            for key, row in zip(resident_keys, resident_rows):
                self.enqueue_broadcast(
                    state, key, flush.updates[row], exclude=flush.source_node
                )
        for destination, keys in forward_groups.items():
            state.metrics.forwarded_ops += 1
            rows = [flush.keys.index(key) for key in keys]
            forwarded = ReplicaSyncFlush(
                keys=tuple(keys),
                updates=flush.updates[rows],
                source_node=flush.source_node,
            )
            self.send_to_server(
                state.node_id,
                destination,
                forwarded,
                message_size(len(keys), len(rows) * self.ps_config.value_length),
            )
        if self.ps_config.replica_sync_trigger == "clock" and resident_keys:
            # Same convergence guarantee as the replica PS in clock mode.
            self.synchronize_node(state)

    # ----------------------------------------------- subscriber handoff (§3.2)
    def _build_transfer(
        self,
        state: HybridNodeState,
        transfer_keys: List[int],
        instruction: RelocateInstruction,
    ) -> RelocationTransfer:
        """Hand subscriber sets over with the values (broadcast duty moves)."""
        self._drain_broadcasts_for(state, transfer_keys)
        subscribers = tuple(
            tuple(sorted(state.subscribers.pop(key, ()))) for key in transfer_keys
        )
        transfer = super()._build_transfer(state, transfer_keys, instruction)
        return dataclass_replace(transfer, subscribers=subscribers)

    def _drain_broadcasts_for(
        self, state: HybridNodeState, keys: Sequence[int]
    ) -> None:
        """Send pending deltas for ``keys`` now — their buffers cannot wait for
        the sync timer, because broadcast duty transfers with the key."""
        keyset = set(keys)
        metrics = state.metrics
        for subscriber, per_key in state.broadcast_buffer.items():
            send_keys = tuple(sorted(keyset & per_key.keys()))
            if not send_keys:
                continue
            deltas = gather_rows(
                {key: per_key.pop(key) for key in send_keys},
                send_keys,
                self.ps_config.value_length,
            )
            size = message_size(len(send_keys), deltas.size)
            metrics.replica_broadcast_messages += 1
            metrics.replica_sync_keys += len(send_keys)
            metrics.replica_sync_bytes += size
            broadcast = ReplicaDeltaBroadcast(
                keys=send_keys, deltas=deltas, responder_node=state.node_id
            )
            self.send_to_server(state.node_id, subscriber, broadcast, size)

    def _install_transferred(
        self,
        state: HybridNodeState,
        transfer: RelocationTransfer,
        index: int,
        key: int,
    ) -> None:
        """New owner takes over the subscriber set handed over by the old one.

        If the new owner itself replicated the key (possible only for
        rebalancer-driven relocations — application localizes of replicated
        keys complete without moving), the replica is absorbed: the
        transferred value is authoritative, and the node's unflushed replica
        updates will reach it through the node's own (now self-addressed)
        sync flush.
        """
        state.replicas.pop(key, None)
        if transfer.subscribers:
            handed_over = set(transfer.subscribers[index])
            handed_over.discard(state.node_id)
            if handed_over:
                state.subscribers[key].update(handed_over)

    def _install_recovered(self, state: HybridNodeState, install, index, key) -> None:
        """Recovery handoff: the new owner absorbs its own replica (if any) and
        takes over broadcast duties for the surviving replica holders.

        The recovery source's unflushed updates are part of the shipped
        snapshot (the rebalancer clears its pending buffer); every *other*
        holder keeps its pending updates and flushes them to the new owner
        through the rebalanced home routing, so no surviving local write is
        double-counted or dropped.  Only updates the failed owner had received
        but not yet broadcast are lost with it.
        """
        state.replicas.pop(key, None)
        if install.subscribers:
            survivors = set(install.subscribers[index])
            survivors.discard(state.node_id)
            if survivors:
                state.subscribers[key].update(survivors)

    # ----------------------------------------------------------- queue drains
    def _drain_one(self, state: HybridNodeState, key: int, queued: QueuedOp) -> None:
        if queued.kind == "register":
            request = queued.request
            self._handle_register(
                state,
                ReplicaRegisterRequest(
                    keys=(key,),
                    requester_node=request.requester_node,
                    reply_to=request.reply_to,
                ),
            )
        elif queued.kind == "flush":
            flush = queued.request
            row = flush.keys.index(key)
            self._handle_flush(
                state,
                ReplicaSyncFlush(
                    keys=(key,),
                    updates=flush.updates[row].reshape(1, -1),
                    source_node=flush.source_node,
                ),
            )
        else:
            super()._drain_one(state, key, queued)

    # --------------------------------------------------------------- inspection
    def key_management(self, key: int) -> str:
        """Which technique currently manages ``key``: ``"replication"`` if any
        node holds (or is installing) a replica, ``"relocation"`` otherwise."""
        if self.replica_holders(key):
            return "replication"
        for state in self.states:
            if key in state.installing:  # type: ignore[attr-defined]
                return "replication"
        return "relocation"

    def key_guarantees(self, key: int) -> Dict[str, bool]:
        """Table-1 consistency classification of ``key`` (see §3.4)."""
        return self.management_policy.key_guarantees(key)
