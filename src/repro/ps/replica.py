"""Replication-based parameter management (the alternative the paper contrasts DPA with).

Where Lapse *relocates* a parameter so that exactly one node holds it at a
time, a replication-based PS *copies* hot parameters to every node that
accesses them and keeps the copies loosely synchronized.  The paper's related
work discusses this family (and the NuPS follow-up formalizes it);
:class:`EagerReplicationPolicy` implements a representative member so that
relocation and replication can be compared head-to-head on the same simulated
cluster:

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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import message_size
from repro.errors import ParameterServerError
from repro.ps.base import (
    ROUTE_SUBSCRIBE,
    KeyRows,
    NodeState,
    ParameterServer,
    QueuedOp,
    Route,
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
    replace,
)
from repro.ps.partition import AccessCountHotKeyPolicy
from repro.ps.policy import LOCAL, QUEUE, REPLICA, Handlers, ManagementPolicy
from repro.ps.storage import gather_rows
from repro.simnet.events import Event

__all__ = ["EagerReplicationPolicy", "InstallingKey", "ReplicaPS"]


@dataclass
class InstallingKey:
    """Queue of operations issued for a key while its replica install is in flight.

    Mirrors the relocation queue (§3.2): accesses issued between the
    subscribe request and the arrival of the snapshot are buffered as
    :class:`~repro.ps.base.QueuedOp` and processed, in program order, once
    the replica is installed.  ``pending_deltas`` holds owner broadcasts that
    overtook the snapshot (a small delta message can be faster than the
    install).
    """

    key: int
    ops: List[QueuedOp] = field(default_factory=list)
    pending_deltas: List[np.ndarray] = field(default_factory=list)


class EagerReplicationPolicy(ManagementPolicy):
    """Eager replication of hot keys (the alternative the paper contrasts DPA with).

    The first read that a node's hot-key policy classifies as hot starts a
    replica install (subscription at the owner); afterwards the key is read
    and written through the local replica, with conflict-free additive
    aggregation and a time- or clock-triggered synchronization loop.

    The price is consistency (§3.4): between synchronization rounds a replica
    read can miss other nodes' committed writes, so per-key sequential
    consistency is lost; eventual consistency and the local session
    guarantees (a node always sees its own writes) remain.
    """

    name = "replication"
    supports_replica_recovery = True
    guarantees = {
        "eventual": True,
        "session": True,
        "causal": True,
        "sequential": False,
    }

    #: The relocation technique sharing this server (set by the hybrid
    #: composition), or ``None``: owners are then the static partition.  With
    #: it, owners move — subscriptions and flushes *chase* a key through its
    #: home node the same way accesses do.
    relocation: Optional[Any] = None

    @property
    def needs_clock(self) -> bool:  # type: ignore[override]
        return self.ps.ps_config.replica_sync_trigger == "clock"

    def attach(self, state: NodeState) -> None:
        #: Local replicas of remote parameters: key -> current value.
        state.replicas = {}
        #: Updates applied to local replicas but not yet flushed to the owner.
        state.pending_updates = {}
        #: Keys whose replica install is in flight, with queued operations.
        state.installing = {}
        #: Owner side: nodes holding a replica of each locally-owned key.
        state.subscribers = defaultdict(set)
        #: Owner side: per-subscriber aggregated deltas awaiting broadcast.
        state.broadcast_buffer = defaultdict(dict)
        #: This node's hot-key replication policy (per-node access counts).
        state.policy = AccessCountHotKeyPolicy(self.ps.ps_config.hot_key_threshold)
        #: Whether a time-triggered synchronization event is already scheduled.
        state.sync_timer_pending = False

    def server_handlers(self, state: NodeState) -> Handlers:
        cost = self.ps.cluster.cost_model.server_processing_time
        return {
            PullRequest: (cost, self._serve_pull),
            PushRequest: (cost, self._serve_push),
            ReplicaRegisterRequest: (cost, self._handle_register),
            ReplicaSyncFlush: (cost, self._handle_flush),
            ReplicaDeltaBroadcast: (cost, self._handle_broadcast),
        }

    def van_handlers(self) -> Dict[type, Callable[[NodeState, Any], None]]:
        return {ReplicaInstall: self._install_replicas}

    # ---------------------------------------------------------------- routing
    def route(
        self,
        state: NodeState,
        key: int,
        *,
        write: bool = False,
        owner: Optional[int] = None,
    ) -> Route:
        if owner is None:
            owner = self.ps.partitioner.node_of(key)
        if owner == state.node_id:
            return LOCAL
        if key in state.replicas:
            return REPLICA
        if key in state.installing:
            return QUEUE
        return self.route_cold(state, key, write, owner)

    def route_many(
        self, state: NodeState, keys: Sequence[int], *, write: bool = False
    ) -> List[Route]:
        owners = self.ps.partitioner.nodes_of_list(keys)
        return [
            self.route(state, key, write=write, owner=owner)
            for key, owner in zip(keys, owners)
        ]

    def route_cold(self, state: NodeState, key: int, write: bool, destination: int) -> Route:
        """Route a key this node neither owns nor replicates (nor awaits).

        Such accesses feed the hot-key statistics; replication is established
        on reads only.  ``destination`` is where the key is served — its
        static owner, or wherever relocation currently routes it.
        """
        state.policy.record_access(key)
        if not write and state.policy.is_hot(key):
            state.installing[key] = InstallingKey(key=key)
            return self._subscribe(destination)
        return self._remote(destination)

    def holds_replica(self, state: NodeState, key: int) -> bool:
        """Whether ``key`` is replicated (or being installed) on this node."""
        return key in state.replicas or key in state.installing

    # --------------------------------------------- client side: route actions
    def pull_replica(
        self, client: WorkerClient, handle: OperationHandle, keys: List[int]
    ) -> None:
        state = client.state

        def action() -> None:
            state.latches.acquire_many(keys)
            replicas = state.replicas
            values = np.empty((len(keys), client.value_length), dtype=np.float64)
            for index, key in enumerate(keys):
                values[index] = replicas[key]
            handle.complete_keys(keys, values)

        self.after_shared_memory_access(client, len(keys), action)

    def push_replica(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        keys: List[int],
        updates: np.ndarray,
        rows: List[int],
    ) -> None:
        state = client.state

        def action() -> None:
            for key, row in zip(keys, rows):
                self.apply_replica_write(state, key, updates[row])
            handle.complete_keys(keys)

        self.after_shared_memory_access(client, len(keys), action)

    def push_resident(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        local: KeyRows,
        replica: KeyRows,
        updates: np.ndarray,
    ) -> None:
        """On its own, replication charges a push's owned keys and replicas as
        *one* shared-memory access of the node (one event), where the default
        — and so the hybrid composition — charges one per group.  Kept apart:
        going to one event per group moves the time-triggered sync rounds of
        replica runs (counters included), not only their timing."""
        state = client.state
        owned_keys, replica_keys = local.keys, replica.keys

        def action() -> None:
            if owned_keys:
                self.write_owned(state, owned_keys, select_rows(updates, local.rows))
            for key, row in zip(replica_keys, replica.rows):
                self.apply_replica_write(state, key, updates[row])
            handle.complete_keys(owned_keys + replica_keys)

        self.after_shared_memory_access(
            client, len(owned_keys) + len(replica_keys), action
        )

    def enqueue(self, state: NodeState, key: int, op: QueuedOp) -> None:
        # Answered from the replica once the install arrives (like Lapse's
        # queued operations during a relocation).
        state.installing[key].ops.append(op)
        if op.kind == "local_pull":
            state.metrics.replica_reads += 1
        else:
            state.metrics.replica_writes += 1

    def subscribe(
        self, client: WorkerClient, handle: OperationHandle, destination: int, keys: List[int]
    ) -> None:
        """Start a replica install: the read waits for the snapshot."""
        installing = client.state.installing
        for key in keys:
            installing[key].ops.append(QueuedOp("local_pull", key, handle))
        self._send_register(client.node_id, destination, keys)

    def _send_register(self, node: int, destination: int, keys: Sequence[int]) -> None:
        request = ReplicaRegisterRequest(
            keys=tuple(keys), requester_node=node, reply_to=van_address(node)
        )
        self.ps.send_to_server(node, destination, request, message_size(len(keys), 0))

    def write_owned(self, state: NodeState, keys: Sequence[int], updates: np.ndarray) -> None:
        state.write_local_many(keys, updates)
        self.broadcast_owned_write(state, keys, updates)

    def pull_if_local(
        self,
        client: WorkerClient,
        key: int,
        route: Optional[Callable[[NodeState, int], Route]] = None,
    ) -> Optional[np.ndarray]:
        """Return ``key``'s value if owned or replicated locally, else ``None``.

        A miss still counts toward the hot-key policy and, once the key is
        hot, starts a background replica install so that later opportunistic
        reads (e.g. re-sampled negatives, Appendix A) hit locally.  ``route``
        is the routing in force (the composition's, under hybrid).
        """
        value = super().pull_if_local(client, key)
        if value is not None:
            return value
        state = client.state
        if key in state.replicas:
            state.metrics.key_reads_local += 1
            state.metrics.pulls_local += 1
            state.metrics.replica_reads += 1
            state.latches.acquire(key)
            return state.replicas[key].copy()
        # A key already in flight routes to its queue, without side effects.
        miss = (route or self.route)(state, key)
        if miss.kind == ROUTE_SUBSCRIBE:
            self._send_register(client.node_id, miss.destination, [key])
        return None

    def clock(self, client: WorkerClient) -> Generator:
        """Advance the worker clock; in ``"clock"`` mode, synchronize the node.

        Clock-triggered synchronization is non-blocking: the flush and the
        owners' subsequent broadcasts propagate asynchronously, so ``clock``
        bounds *when* updates start to propagate, not when they are visible.
        """
        client._clock += 1
        client.state.metrics.clock_advances += 1
        if self.needs_clock:
            self.on_sync(client.state)
        return
        yield  # pragma: no cover - makes this function a generator

    # ---------------------------------------------------------- replica state
    def apply_replica_write(self, state: NodeState, key: int, update: np.ndarray) -> None:
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

    def broadcast_owned_write(
        self, state: NodeState, keys: Sequence[int], updates: np.ndarray
    ) -> None:
        """Owner side: buffer a delta for every subscriber of the written keys.

        Called for *every* write applied to an owned key — worker fast path,
        remote or forwarded push, drained queue — regardless of which
        protocol delivered it.  A remote requester is *not* excluded: if it
        subscribed while its push was in flight, its snapshot predates the
        push and the delta must reach it.
        """
        subscribers = state.subscribers
        for index, key in enumerate(keys):
            if subscribers.get(key):
                self.enqueue_broadcast(state, key, updates[index])

    def enqueue_broadcast(
        self,
        state: NodeState,
        key: int,
        update: np.ndarray,
        exclude: Optional[int] = None,
    ) -> None:
        """Owner side: buffer ``update`` for every subscriber except ``exclude``."""
        for subscriber in state.subscribers.get(key, ()):
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
    def sync_dirty(self, state: NodeState) -> bool:
        """Whether ``state``'s node has unsynchronized replica state."""
        if state.pending_updates:
            return True
        return any(deltas for deltas in state.broadcast_buffer.values())

    def _mark_dirty(self, state: NodeState) -> None:
        """Schedule a time-triggered synchronization round if one is due.

        The timer is demand-driven: it is armed only while the node holds
        unsynchronized state, so a quiescent cluster schedules no events and
        the simulation terminates.
        """
        config = self.ps.ps_config
        if config.replica_sync_trigger != "time":
            return
        if state.sync_timer_pending or not self.sync_dirty(state):
            return
        state.sync_timer_pending = True
        event = Event(self.ps.sim)

        def fire(_event: Event) -> None:
            state.sync_timer_pending = False
            self.on_sync(state)

        event.callbacks.append(fire)
        event.succeed(delay=config.replica_sync_interval)

    def on_sync(self, state: NodeState, clock: Optional[int] = None) -> None:
        """Run one synchronization round for ``state``'s node.

        Flushes the node's pending replica updates to their owners and
        broadcasts the owner-side delta buffers to subscribers.  Both message
        kinds carry additive aggregates, so processing order across nodes does
        not matter.
        """
        if not self.sync_dirty(state):
            return
        ps = self.ps
        metrics = state.metrics
        value_length = ps.ps_config.value_length
        metrics.replica_sync_rounds += 1
        if state.pending_updates:
            groups: Dict[int, Dict[int, np.ndarray]] = defaultdict(dict)
            pending_keys = list(state.pending_updates.keys())
            owners = ps.partitioner.nodes_of_list(pending_keys)
            for key, owner in zip(pending_keys, owners):
                groups[owner][key] = state.pending_updates[key]
            state.pending_updates = {}
            for owner, per_key in groups.items():
                keys = tuple(sorted(per_key))
                updates = gather_rows(per_key, keys, value_length)
                size = message_size(len(keys), updates.size)
                metrics.replica_flush_messages += 1
                metrics.replica_sync_keys += len(keys)
                metrics.replica_sync_bytes += size
                flush = ReplicaSyncFlush(
                    keys=keys,
                    updates=updates,
                    source_node=state.node_id,
                )
                ps.send_to_server(state.node_id, owner, flush, size)
        if any(state.broadcast_buffer.values()):
            buffers = state.broadcast_buffer
            state.broadcast_buffer = defaultdict(dict)
            for subscriber, per_key in buffers.items():
                if per_key:
                    self._send_broadcast(state, subscriber, per_key, tuple(sorted(per_key)))

    def _send_broadcast(
        self,
        state: NodeState,
        subscriber: int,
        per_key: Dict[int, np.ndarray],
        keys: Tuple[int, ...],
    ) -> None:
        """Send the buffered deltas of ``keys`` to ``subscriber``."""
        deltas = gather_rows(per_key, keys, self.ps.ps_config.value_length)
        size = message_size(len(keys), deltas.size)
        metrics = state.metrics
        metrics.replica_broadcast_messages += 1
        metrics.replica_sync_keys += len(keys)
        metrics.replica_sync_bytes += size
        broadcast = ReplicaDeltaBroadcast(keys=keys, deltas=deltas)
        self.ps.send_to_server(state.node_id, subscriber, broadcast, size)

    # ---------------------------------- subscriber handoff (with relocation)
    def release_subscribers(
        self, state: NodeState, keys: Sequence[int]
    ) -> Tuple[Tuple[int, ...], ...]:
        """The old owner lets go of ``keys``: its pending deltas for them are
        sent now — their buffers cannot wait for the sync timer, because
        broadcast duty transfers with the key — and the subscriber sets are
        handed back for the transfer message."""
        keyset = set(keys)
        for subscriber, per_key in state.broadcast_buffer.items():
            send_keys = tuple(sorted(keyset & per_key.keys()))
            if send_keys:
                self._send_broadcast(
                    state, subscriber, {key: per_key.pop(key) for key in send_keys}, send_keys
                )
        return tuple(tuple(sorted(state.subscribers.pop(key, ()))) for key in keys)

    def adopt_subscribers(
        self, state: NodeState, key: int, subscribers: Sequence[int]
    ) -> None:
        """The new owner of ``key`` takes over its subscriber set.

        If the new owner itself replicated the key (possible only for
        rebalancer-driven relocations and failure recovery — application
        localizes of replicated keys complete without moving), the replica is
        absorbed: the installed value is authoritative, and the node's
        unflushed replica updates will reach it through the node's own (now
        self-addressed) sync flush.  After a failure, every *other* surviving
        holder keeps its pending updates and flushes them to the new owner
        through the rebalanced home routing, so no surviving local write is
        double-counted or dropped; only updates the failed owner had received
        but not yet broadcast are lost with it.
        """
        state.replicas.pop(key, None)
        handed_over = set(subscribers)
        handed_over.discard(state.node_id)
        if handed_over:
            state.subscribers[key].update(handed_over)

    def redeliver(self, state: NodeState, key: int, queued: QueuedOp) -> None:
        """Process a register/flush that waited for ``key`` to arrive here."""
        request = queued.request
        if queued.kind == "register":
            self._handle_register(state, replace(request, keys=(key,)))
        else:
            update = request.updates[request.keys.index(key)].reshape(1, -1)
            self._handle_flush(state, replace(request, keys=(key,), updates=update))

    # ------------------------------------------------------------ server side
    def _serve_pull(self, state: NodeState, request: PullRequest) -> None:
        values = self.handle_read(state, request.keys, what="received a pull for")
        self.ps.respond_pull(state, request, request.keys, values)

    def _serve_push(self, state: NodeState, request: PushRequest) -> None:
        self.handle_write(state, request.keys, request.updates, what="received a push for")
        self.broadcast_owned_write(state, request.keys, request.updates)
        self.ps.ack_push(state, request, request.keys)

    def _split_by_residency(
        self, state: NodeState, keys: Sequence[int], kind: str, request: Any, what: str
    ) -> Tuple[List[int], List[int], Dict[int, List[int]]]:
        """Owned keys (with their positions) of a register/flush, the rest chased.

        Without relocation every key must be owned here.  With it, a key on
        its way to this node queues the message behind the transfer, and a key
        that moved on is forwarded along the relocation routing (home node,
        then current owner).
        """
        relocation = self.relocation
        resident_keys: List[int] = []
        resident_rows: List[int] = []
        forward_groups: Dict[int, List[int]] = defaultdict(list)
        flags = state.storage.contains_flags(keys)
        for row, (key, is_resident) in enumerate(zip(keys, flags)):
            if is_resident:
                resident_keys.append(key)
                resident_rows.append(row)
            elif relocation is None:
                raise self.not_owned(state, key, what)
            elif key in state.relocating_in:
                state.metrics.queued_ops += 1
                state.relocating_in[key].queued_ops.append(
                    QueuedOp(kind=kind, key=key, request=request)
                )
            else:
                forward_groups[relocation.forward_destination(state, key)].append(key)
        return resident_keys, resident_rows, forward_groups

    def _handle_register(
        self, state: NodeState, request: ReplicaRegisterRequest
    ) -> None:
        """Subscribe + install for owned keys; chase relocated keys otherwise."""
        resident_keys, _rows, forward_groups = self._split_by_residency(
            state, request.keys, "register", request, "received a replica subscription for"
        )
        ps = self.ps
        if resident_keys:
            values = state.read_local_many(resident_keys)
            for key in resident_keys:
                state.subscribers[key].add(request.requester_node)
            install = ReplicaInstall(keys=tuple(resident_keys), values=values)
            size = message_size(len(resident_keys), values.size)
            ps.network.send(state.node_id, request.reply_to, install, size)
        for destination, keys in forward_groups.items():
            state.metrics.forwarded_ops += 1
            ps.send_to_server(
                state.node_id,
                destination,
                replace(request, keys=tuple(keys)),
                message_size(len(keys), 0),
            )

    def _handle_flush(self, state: NodeState, flush: ReplicaSyncFlush) -> None:
        """Apply flushed replica updates to owned keys; chase relocated keys."""
        resident_keys, resident_rows, forward_groups = self._split_by_residency(
            state, flush.keys, "flush", flush, "received a replica update flush for"
        )
        ps = self.ps
        if resident_keys:
            # Not write_owned: the broadcast must exclude the source node (it
            # already applied these updates to its own replica).
            state.write_local_many(resident_keys, flush.updates[resident_rows])
            for key, row in zip(resident_keys, resident_rows):
                self.enqueue_broadcast(
                    state, key, flush.updates[row], exclude=flush.source_node
                )
        for destination, keys in forward_groups.items():
            state.metrics.forwarded_ops += 1
            rows = [flush.keys.index(key) for key in keys]
            ps.send_to_server(
                state.node_id,
                destination,
                replace(flush, keys=tuple(keys), updates=flush.updates[rows]),
                message_size(len(keys), len(rows) * ps.ps_config.value_length),
            )
        if self.needs_clock and resident_keys:
            # Clock mode has no timer to drain the owner-side buffers, and the
            # owner's own workers may be past their last clock when this flush
            # arrives; broadcast on receipt so replicas still converge.
            self.on_sync(state)

    def _handle_broadcast(
        self, state: NodeState, broadcast: ReplicaDeltaBroadcast
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
    def _install_replicas(self, state: NodeState, message: ReplicaInstall) -> None:
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
        locate = self if self.relocation is None else self.relocation
        owner_state = self.ps.states[locate.current_owner(key)]
        return tuple(sorted(owner_state.subscribers.get(key, ())))


class ReplicaPS(ParameterServer):
    """Replication-based parameter server with eager hot-key replication."""

    policy_class = EagerReplicationPolicy
    name = "replica"
