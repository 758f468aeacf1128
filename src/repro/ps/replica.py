"""Replication-based parameter server (the alternative the paper contrasts DPA with).

Where Lapse *relocates* a parameter so that exactly one node holds it at a
time, a replication-based PS *copies* hot parameters to every node that
accesses them and keeps the copies loosely synchronized.  The paper's related
work discusses this family (and the NuPS follow-up formalizes it); this module
implements a representative member so that relocation and replication can be
compared head-to-head on the same simulated cluster:

* **Eager replication.** The first access that a node's hot-key policy
  (:mod:`repro.ps.partition`) classifies as hot triggers a subscription at the
  key's owner: the owner records the subscriber and answers with a value
  snapshot (:class:`~repro.ps.messages.ReplicaInstall`).  From then on the
  node reads the key through shared memory, exactly like Lapse reads a
  relocated key.
* **Local writes with conflict-free aggregation.** Writes to a replicated key
  are applied to the local replica immediately and accumulated in a per-node
  buffer.  Because PS updates are cumulative (additive), buffered updates from
  different nodes commute: the owner simply sums whatever arrives — no locks,
  no conflicts, no lost updates.
* **Configurable synchronization loop.** Accumulated updates propagate either
  on a per-node timer (``replica_sync_trigger="time"``, period
  ``replica_sync_interval``) or whenever a worker advances its clock
  (``"clock"``).  A synchronization round flushes local updates to owners
  (:class:`~repro.ps.messages.ReplicaSyncFlush`) and broadcasts aggregated
  *other-node* deltas from owners to subscribers
  (:class:`~repro.ps.messages.ReplicaDeltaBroadcast`); a subscriber never
  receives its own updates back, so nothing is double-counted.

Per-key routing (owned / replicated / installing / hot / cold) is implemented
by :class:`~repro.ps.policy.EagerReplicationPolicy`; the server loop is the
generic dispatch loop of :class:`~repro.ps.base.ParameterServer`.

The price of replication is consistency (§3.4 of the paper makes the same
point for location caches and stale replicas): between synchronization rounds
a replica read can miss other nodes' committed writes, so per-key sequential
consistency is lost.  What remains is eventual consistency — once updates stop
and a synchronization round drains, all copies converge to the owner value —
plus the local session guarantees (a node always sees its own writes).  The
consistency test-suite demonstrates both directions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

import numpy as np

from repro.config import message_size
from repro.errors import ParameterServerError
from repro.ps.base import (
    KeyRows,
    NodeState,
    ParameterServer,
    QueuedOp,
    WorkerClient,
    select_rows,
    van_address,
)
from repro.ps.futures import OperationHandle
from repro.ps.messages import (
    PullRequest,
    PushRequest,
    ReplicaDeltaBroadcast,
    ReplicaInstall,
    ReplicaRegisterRequest,
    ReplicaSyncFlush,
)
from repro.ps.partition import HotKeyPolicy
from repro.ps.policy import (
    ROUTE_LOCAL,
    ROUTE_QUEUE,
    ROUTE_REPLICA,
    ROUTE_SUBSCRIBE,
    EagerReplicationPolicy,
    InstallingKey,
)
from repro.ps.storage import gather_rows
from repro.simnet.events import Event

__all__ = [
    "InstallingKey",
    "ReplicaNodeState",
    "ReplicaPS",
    "ReplicaWorkerClient",
]


class ReplicaNodeState(NodeState):
    """Per-node state of the replica PS: replica store, buffers, subscriptions.

    The tables are installed by
    :meth:`repro.ps.policy.EagerReplicationPolicy.attach`; the annotations
    below document them.
    """

    replicas: Dict[int, np.ndarray]
    pending_updates: Dict[int, np.ndarray]
    installing: Dict[int, InstallingKey]
    subscribers: Dict[int, Set[int]]
    broadcast_buffer: Dict[int, Dict[int, np.ndarray]]
    policy: HotKeyPolicy
    sync_timer_pending: bool

    @property
    def sync_dirty(self) -> bool:
        """Whether this node has unsynchronized replica state."""
        if self.pending_updates:
            return True
        return any(deltas for deltas in self.broadcast_buffer.values())


class ReplicaWorkerClient(WorkerClient):
    """Client of the replica PS: replica reads/writes, owner routing otherwise."""

    state: ReplicaNodeState

    # ------------------------------------------------------------------- pull
    def _issue_pull(self, handle: OperationHandle, keys: Tuple[int, ...]) -> None:
        state = self.state
        metrics = state.metrics
        local_keys: List[int] = []
        replica_keys: List[int] = []
        register_groups: Dict[int, List[int]] = defaultdict(list)
        remote_groups: Dict[int, List[int]] = defaultdict(list)
        for key, route in zip(keys, self.policy.route_many(state, keys)):
            if route.kind == ROUTE_LOCAL:
                local_keys.append(key)
            elif route.kind == ROUTE_REPLICA:
                replica_keys.append(key)
            elif route.kind == ROUTE_QUEUE:
                # Answered locally once the install arrives (like Lapse's
                # queued operations during a relocation).
                metrics.queued_ops += 1
                metrics.key_reads_local += 1
                metrics.replica_reads += 1
                state.installing[key].ops.append(
                    QueuedOp(kind="local_pull", key=key, handle=handle)
                )
            elif route.kind == ROUTE_SUBSCRIBE:
                state.installing[key].ops.append(
                    QueuedOp(kind="local_pull", key=key, handle=handle)
                )
                register_groups[route.destination].append(key)
            else:
                remote_groups[route.destination].append(key)
        if local_keys:
            metrics.key_reads_local += len(local_keys)
            self._local_pull(handle, local_keys, from_replica=False)
        if replica_keys:
            metrics.key_reads_local += len(replica_keys)
            metrics.replica_reads += len(replica_keys)
            self._local_pull(handle, replica_keys, from_replica=True)
        for owner, owner_keys in register_groups.items():
            metrics.key_reads_remote += len(owner_keys)
            self._send_register(owner, owner_keys)
        for owner, owner_keys in remote_groups.items():
            metrics.key_reads_remote += len(owner_keys)
            self._send_remote(handle, owner, owner_keys, pull=True)
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
        routes = self.policy.route_many(state, keys, write=True)
        for row, (key, route) in enumerate(zip(keys, routes)):
            if route.kind == ROUTE_LOCAL:
                local.add(key, row)
            elif route.kind == ROUTE_REPLICA:
                replica.add(key, row)
            elif route.kind == ROUTE_QUEUE:
                metrics.queued_ops += 1
                metrics.key_writes_local += 1
                metrics.replica_writes += 1
                state.installing[key].ops.append(
                    QueuedOp(
                        kind="local_push",
                        key=key,
                        handle=handle,
                        update=updates[row].copy(),
                    )
                )
            else:
                # Replication is established on reads; a write to a key this
                # node does not replicate goes straight to the owner (the
                # policy already counted it toward the hot-key statistics).
                remote_groups[route.destination].add(key, row)
        if local.keys or replica.keys:
            metrics.key_writes_local += len(local.keys) + len(replica.keys)
            metrics.replica_writes += len(replica.keys)
            self._local_push(handle, local, replica, updates)
        for owner, group in remote_groups.items():
            metrics.key_writes_remote += len(group.keys)
            self._send_remote(
                handle, owner, group.keys, pull=False, updates=updates, rows=group.rows
            )
        if remote_groups:
            metrics.pushes_remote += 1
        else:
            metrics.pushes_local += 1

    # ------------------------------------------------------------ local access
    def _local_pull(
        self, handle: OperationHandle, keys: List[int], from_replica: bool
    ) -> None:
        cost = self.ps.cluster.cost_model
        delay = cost.local_access_time(shared_memory=True) * len(keys)
        state = self.state

        def action() -> None:
            if from_replica:
                state.latches.acquire_many(keys)
                replicas = state.replicas
                values = np.empty((len(keys), self.value_length), dtype=np.float64)
                for index, key in enumerate(keys):
                    values[index] = replicas[key]
            else:
                values = state.read_local_many(keys)
            handle.complete_keys(keys, values)

        self._complete_after(delay, action)

    def _local_push(
        self,
        handle: OperationHandle,
        owned: KeyRows,
        replica: KeyRows,
        updates: np.ndarray,
    ) -> None:
        cost = self.ps.cluster.cost_model
        delay = cost.local_access_time(shared_memory=True) * (
            len(owned.keys) + len(replica.keys)
        )
        state = self.state
        ps: "ReplicaPS" = self.ps  # type: ignore[assignment]

        def action() -> None:
            if owned.keys:
                state.write_local_many(owned.keys, select_rows(updates, owned.rows))
                for key, row in zip(owned.keys, owned.rows):
                    ps.enqueue_broadcast(state, key, updates[row])
            for key, row in zip(replica.keys, replica.rows):
                ps.apply_replica_write(state, key, updates[row])
            handle.complete_keys(owned.keys + replica.keys)

        self._complete_after(delay, action)

    # --------------------------------------------------------------- messaging
    def _send_register(self, owner: int, keys: List[int]) -> None:
        ps: "ReplicaPS" = self.ps  # type: ignore[assignment]
        request = ReplicaRegisterRequest(
            keys=tuple(keys),
            requester_node=self.node_id,
            reply_to=van_address(self.node_id),
        )
        ps.send_to_server(self.node_id, owner, request, message_size(len(keys), 0))

    # _send_remote is inherited from WorkerClient: chunked pull/push requests
    # routed to the owner's server, with op ids registered for the van.

    # --------------------------------------------------------- opportunistic
    def pull_if_local(self, key: int) -> Optional[np.ndarray]:
        """Return ``key``'s value if owned or replicated locally, else ``None``.

        A miss still counts toward the hot-key policy and, once the key is
        hot, starts a background replica install so that later opportunistic
        reads (e.g. re-sampled negatives, Appendix A) hit locally.
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
        if key not in state.installing:
            route = self.policy.route(state, key)
            if route.kind == ROUTE_SUBSCRIBE:
                self._send_register(route.destination, [key])
        return None

    # ------------------------------------------------------------------ clock
    def clock(self) -> Generator:
        """Advance the worker clock; in ``"clock"`` mode, synchronize the node.

        Clock-triggered synchronization is non-blocking: the flush and the
        owners' subsequent broadcasts propagate asynchronously, so ``clock``
        bounds *when* updates start to propagate, not when they are visible.
        """
        self._clock += 1
        self.state.metrics.clock_advances += 1
        if self.ps.ps_config.replica_sync_trigger == "clock":
            self.policy.on_sync(self.state)
        return
        yield  # pragma: no cover - makes this function a generator


class ReplicaPS(ParameterServer):
    """Replication-based parameter server with eager hot-key replication."""

    client_class = ReplicaWorkerClient
    policy_class = EagerReplicationPolicy
    name = "replica"

    def _make_node_state(self, node) -> ReplicaNodeState:
        return ReplicaNodeState(self, node)

    # ---------------------------------------------------------- replica state
    def apply_replica_write(
        self, state: ReplicaNodeState, key: int, update: np.ndarray
    ) -> None:
        """Apply ``update`` to the local replica and buffer it for the owner."""
        state.latches.acquire(key)
        # Replica rows and pending buffers are owned by this node, so both
        # accumulate in place instead of allocating a new array per write.
        state.replicas[key] += update
        pending = state.pending_updates.get(key)
        if pending is None:
            state.pending_updates[key] = update.copy()
        else:
            pending += update
        self._mark_dirty(state)

    def enqueue_broadcast(
        self,
        state: ReplicaNodeState,
        key: int,
        update: np.ndarray,
        exclude: Optional[int] = None,
    ) -> None:
        """Owner side: buffer ``update`` for every subscriber except ``exclude``."""
        for subscriber in state.subscribers.get(key, ()):  # type: ignore[arg-type]
            if subscriber == exclude:
                continue
            per_key = state.broadcast_buffer[subscriber]
            delta = per_key.get(key)
            if delta is None:
                per_key[key] = update.copy()
            else:
                delta += update
        self._mark_dirty(state)

    # ------------------------------------------------------- synchronization
    def _mark_dirty(self, state: ReplicaNodeState) -> None:
        """Schedule a time-triggered synchronization round if one is due.

        The timer is demand-driven: it is armed only while the node holds
        unsynchronized state, so a quiescent cluster schedules no events and
        the simulation terminates.
        """
        if self.ps_config.replica_sync_trigger != "time":
            return
        if state.sync_timer_pending or not state.sync_dirty:
            return
        state.sync_timer_pending = True
        event = Event(self.sim)

        def fire(_event: Event) -> None:
            state.sync_timer_pending = False
            self.synchronize_node(state)

        event.callbacks.append(fire)
        event.succeed(delay=self.ps_config.replica_sync_interval)

    def synchronize_node(self, state: ReplicaNodeState) -> None:
        """Run one synchronization round for ``state``'s node.

        Flushes the node's pending replica updates to their owners and
        broadcasts the owner-side delta buffers to subscribers.  Both message
        kinds carry additive aggregates, so processing order across nodes does
        not matter.
        """
        metrics = state.metrics
        if not state.sync_dirty:
            return
        metrics.replica_sync_rounds += 1
        if state.pending_updates:
            groups: Dict[int, Dict[int, np.ndarray]] = defaultdict(dict)
            pending_keys = list(state.pending_updates.keys())
            owners = self.partitioner.nodes_of_list(pending_keys)
            for key, owner in zip(pending_keys, owners):
                groups[owner][key] = state.pending_updates[key]
            state.pending_updates = {}
            for owner, per_key in groups.items():
                keys = tuple(sorted(per_key))
                updates = gather_rows(per_key, keys, self.ps_config.value_length)
                size = message_size(len(keys), updates.size)
                metrics.replica_flush_messages += 1
                metrics.replica_sync_keys += len(keys)
                metrics.replica_sync_bytes += size
                flush = ReplicaSyncFlush(
                    keys=keys,
                    updates=updates,
                    source_node=state.node_id,
                )
                self.send_to_server(state.node_id, owner, flush, size)
        if any(state.broadcast_buffer.values()):
            buffers = state.broadcast_buffer
            state.broadcast_buffer = defaultdict(dict)
            for subscriber, per_key in buffers.items():
                if not per_key:
                    continue
                keys = tuple(sorted(per_key))
                deltas = gather_rows(per_key, keys, self.ps_config.value_length)
                size = message_size(len(keys), deltas.size)
                metrics.replica_broadcast_messages += 1
                metrics.replica_sync_keys += len(keys)
                metrics.replica_sync_bytes += size
                broadcast = ReplicaDeltaBroadcast(
                    keys=keys, deltas=deltas, responder_node=state.node_id
                )
                self.send_to_server(state.node_id, subscriber, broadcast, size)

    def synchronize_all(self) -> None:
        """Force a synchronization round on every node (tests and benchmarks)."""
        for state in self.states:
            self.synchronize_node(state)  # type: ignore[arg-type]

    # ---------------------------------------------------------- server dispatch
    def _server_dispatch(self, state: ReplicaNodeState):  # type: ignore[override]
        cost = self.cluster.cost_model.server_processing_time
        dispatch = {
            PullRequest: (cost, self._handle_pull),
            PushRequest: (cost, self._handle_push),
        }
        dispatch.update(self.management_policy.server_handlers(state))
        return dispatch

    def _handle_pull(self, state: ReplicaNodeState, request: PullRequest) -> None:
        values = self.management_policy.handle_read(
            state, request.keys, what="received a pull for"
        )
        self._respond_pull(state, request, request.keys, values)

    def _handle_push(self, state: ReplicaNodeState, request: PushRequest) -> None:
        self.management_policy.handle_write(
            state, request.keys, request.updates, what="received a push for"
        )
        for index, key in enumerate(request.keys):
            # The requester had no replica when it issued this push, so it is
            # NOT excluded: if it subscribed while the push was in flight, its
            # snapshot predates the push and the delta must reach it.
            self.enqueue_broadcast(state, key, request.updates[index])
        self._ack_push(state, request, request.keys)

    def _handle_register(
        self, state: ReplicaNodeState, request: ReplicaRegisterRequest
    ) -> None:
        values = self.management_policy.handle_read(
            state, request.keys, what="received a replica subscription for"
        )
        for key in request.keys:
            state.subscribers[key].add(request.requester_node)
        install = ReplicaInstall(
            keys=request.keys,
            values=values,
            responder_node=state.node_id,
        )
        size = message_size(
            len(request.keys), len(request.keys) * self.ps_config.value_length
        )
        self.network.send(state.node_id, request.reply_to, install, size)

    def _handle_flush(self, state: ReplicaNodeState, flush: ReplicaSyncFlush) -> None:
        self.management_policy.handle_write(
            state, flush.keys, flush.updates, what="received a replica update flush for"
        )
        for index, key in enumerate(flush.keys):
            # The source applied these updates to its own replica already.
            self.enqueue_broadcast(
                state, key, flush.updates[index], exclude=flush.source_node
            )
        if self.ps_config.replica_sync_trigger == "clock":
            # Clock mode has no timer to drain the owner-side buffers, and the
            # owner's own workers may be past their last clock when this flush
            # arrives; broadcast on receipt so replicas still converge.
            self.synchronize_node(state)

    def _handle_broadcast(
        self, state: ReplicaNodeState, broadcast: ReplicaDeltaBroadcast
    ) -> None:
        for index, key in enumerate(broadcast.keys):
            if key in state.replicas:
                state.latches.acquire(key)
                state.replicas[key] += broadcast.deltas[index]
            elif key in state.installing:
                # The owner subscribed us and then broadcast before our install
                # arrived; apply the delta once the snapshot is in place.
                state.installing[key].pending_deltas.append(
                    broadcast.deltas[index].copy()
                )
            else:
                raise ParameterServerError(
                    f"replica PS node {state.node_id} received a delta for key {key} "
                    "it does not replicate"
                )
        state.metrics.replica_refreshes += len(broadcast.keys)

    # -------------------------------------------------------------------- van
    def _handle_extra_van_message(self, state: ReplicaNodeState, message: Any) -> None:  # type: ignore[override]
        if not isinstance(message, ReplicaInstall):
            super()._handle_extra_van_message(state, message)
            return
        # One bulk copy; each installed replica row is a node-owned view.
        values = np.array(message.values, dtype=np.float64)
        for index, key in enumerate(message.keys):
            entry = state.installing.pop(key, None)
            if entry is None:
                raise ParameterServerError(
                    f"replica PS node {state.node_id} received an install for key "
                    f"{key} it did not request"
                )
            state.replicas[key] = values[index]
            state.metrics.replica_creates += 1
            for delta in entry.pending_deltas:
                state.replicas[key] += delta
            for queued in entry.ops:
                if queued.kind == "local_pull":
                    state.latches.acquire(key)
                    queued.handle.complete_keys(
                        [key], state.replicas[key].copy().reshape(1, -1)
                    )
                else:
                    self.apply_replica_write(state, key, queued.update)
                    queued.handle.complete_keys([key])

    # --------------------------------------------------------------- inspection
    def replica_holders(self, key: int) -> Tuple[int, ...]:
        """Nodes currently holding a replica of ``key`` (outside simulation)."""
        owner = self.current_owner(key)
        owner_state: ReplicaNodeState = self.states[owner]  # type: ignore[assignment]
        return tuple(sorted(owner_state.subscribers.get(key, ())))
