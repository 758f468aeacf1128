"""Lapse: a parameter server with dynamic parameter allocation (DPA).

This module implements the technique described in Section 3 of the paper, as
:class:`RelocationPolicy`:

* **localize primitive** (§3.1, Table 2): a worker can request that parameters
  be relocated to its node; subsequent accesses are local.
* **Relocation protocol** (§3.2, Figure 4): three messages — the requester
  informs the *home node*, the home node instructs the current *owner*, the
  owner transfers the parameter to the requester.  The requester queues
  operations for the relocating parameter and processes them once the
  transfer arrives, so relocation never produces wrong results.
* **Parameter access** (§3.3, Figure 5): local parameters are accessed through
  shared memory directly by worker threads; remote accesses use the *forward*
  strategy via the home node, optionally short-cut by *location caches* with a
  double-forward fallback for stale cache entries.
* **Location management** (§3.5): a decentralized home-node strategy; the home
  node of a key is given by the static partitioner, the owner changes at run
  time.
* **Message grouping** (§3.7): multi-key operations send one message per
  destination node.

The implementation preserves the consistency behaviour analysed in §3.4:
sequential consistency per key for synchronous operations and for
asynchronous operations without location caches; location caches can break
program order for asynchronous operations (Theorem 3), which the consistency
test-suite demonstrates.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import message_size
from repro.errors import RelocationError, StorageError
from repro.ps.base import (
    KeyRows,
    NodeState,
    ParameterServer,
    QueuedOp,
    Route,
    WorkerClient,
    copy_rows,
    select_rows,
)
from repro.ps.futures import OperationHandle
from repro.ps.messages import (
    LocalizeRequest,
    PullRequest,
    PushRequest,
    RecoveryInstall,
    RelocateInstruction,
    RelocationTransfer,
    replace,
)
from repro.ps.policy import LOCAL, QUEUE, Handlers, ManagementPolicy

__all__ = ["LapsePS", "RelocatingKey", "RelocationPolicy"]


class RelocatingKey:
    """State of one key currently relocating *to* this node.

    ``pending_new_owner`` is set when a RelocateInstruction for this key
    arrives before the transfer (a later localize by another node); the key
    is passed on right after the transfer completes and queued work drains.
    """

    __slots__ = ("key", "requested_at", "localize_handles", "queued_ops", "pending_new_owner")

    def __init__(self, key: int, requested_at: float, localize_handles: Optional[list] = None):
        self.key, self.requested_at, self.pending_new_owner = key, requested_at, None
        self.localize_handles: List[OperationHandle] = localize_handles or []
        self.queued_ops: List[QueuedOp] = []


class RelocationPolicy(ManagementPolicy):
    """Dynamic parameter allocation by relocation (Lapse, §3).

    Owned keys are read/written through shared memory; keys relocating *to*
    this node queue their operations (drained when the transfer arrives,
    §3.2); anything else is routed to the best-known location — the location
    cache if enabled and populated, the owner directly if this node is the
    key's home, or the home node otherwise (§3.5, Figure 5).

    Consistency (§3.4): synchronous operations keep per-key sequential
    consistency (Theorem 1); asynchronous operations keep it as long as
    location caches are off (Theorem 2) — a stale cache entry can break
    program order (Theorem 3), which the consistency suite demonstrates.
    """

    name = "relocation"
    supports_localize = True
    supports_rebalance = True
    supports_wal_recovery = True
    resident_is_local = True

    #: The replication technique sharing this server (set by the hybrid
    #: composition), or ``None``.  Relocation calls into it where a moving key
    #: meets replicas: owner writes feed its broadcasts, subscriber sets travel
    #: with transfers, and queued register/flush messages are redelivered.
    replication: Optional[Any] = None

    def attach(self, state: NodeState) -> None:
        #: Owner of every key homed at this node (home-node location table);
        #: at start-up the owner of every key is its home node.
        node = state.node_id
        state.home_location = dict.fromkeys(self.ps.partitioner.keys_of(node), node)
        #: Keys currently relocating to this node.
        state.relocating_in = {}
        #: Optional location cache: key -> believed owner.
        state.location_cache = {}

    def server_handlers(self, state: NodeState) -> Handlers:
        cost = self.ps.cluster.cost_model
        return {
            PullRequest: (cost.server_processing_time, self._handle_access),
            PushRequest: (cost.server_processing_time, self._handle_access),
            LocalizeRequest: (cost.relocation_processing_time, self._handle_localize),
            RelocateInstruction: (cost.relocation_processing_time, self._handle_instruction),
            RelocationTransfer: (cost.relocation_processing_time, self._handle_transfer),
            RecoveryInstall: (cost.relocation_processing_time, self.install_recovered),
        }

    def response_observer(self) -> Optional[Callable[[NodeState, Any], None]]:
        return self._learn_location if self.ps.ps_config.location_caches else None

    # ---------------------------------------------------------------- routing
    def route(self, state: NodeState, key: int, *, write: bool = False) -> Route:
        if state.storage.contains(key):
            return LOCAL
        if key in state.relocating_in:
            return QUEUE
        return self._remote(self.route_destination(state, key))

    def route_many(
        self, state: NodeState, keys: Sequence[int], *, write: bool = False
    ) -> List[Route]:
        routes = []
        for key, resident in zip(keys, state.storage.contains_flags(keys)):
            if resident:
                routes.append(LOCAL)
            elif key in state.relocating_in:
                routes.append(QUEUE)
            else:
                routes.append(self._remote(self.route_destination(state, key)))
        return routes

    def route_destination(self, state: NodeState, key: int) -> int:
        """Best node to contact for a non-local access to ``key`` (§3.5)."""
        config = self.ps.ps_config
        if config.location_caches and key in state.location_cache:
            state.metrics.cache_hits += 1
            return state.location_cache[key]
        home = self.home_node(key)
        if home == state.node_id:
            # The home table is in this node's shared memory; contact the
            # owner directly (2 messages instead of 3).
            return state.home_location[key]
        if config.location_caches:
            state.metrics.cache_misses += 1
        return home

    def forward_destination(self, state: NodeState, key: int) -> int:
        """Best next hop for a key this node neither owns nor is receiving.

        The home node forwards to the owner recorded in its location table;
        any other node forwards to the home node.  A request that reached a
        stale owner (e.g. through a stale location cache) therefore travels
        requester → stale owner → home → current owner, the double-forward of
        Figure 5d (4 messages in total including the response).
        """
        home = self.home_node(key)
        if home == state.node_id:
            return state.home_location[key]
        return home

    def _learn_location(self, state: NodeState, message: Any) -> None:
        """Location-cache update from a pull response / push ack (§3.5)."""
        responder = message.responder_node
        if responder == state.node_id:
            return
        for key in message.keys:
            state.location_cache[key] = responder

    # ------------------------------------------------------------- inspection
    def home_node(self, key: int) -> int:
        """Home node of ``key`` (static, from the partitioner)."""
        return self.ps.partitioner.node_of(key)

    def current_owner(self, key: int) -> int:
        """Node that currently owns ``key`` according to its home node."""
        return self.ps.states[self.home_node(key)].home_location[key]

    def current_owners(self, keys: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`current_owner` via the per-home location tables."""
        keys = np.asarray(keys, dtype=np.int64)
        homes = self.ps.partitioner.nodes_of(keys)
        states = self.ps.states
        return np.fromiter(
            (
                states[home].home_location[key]
                for home, key in zip(homes.tolist(), keys.tolist())
            ),
            dtype=np.int64,
            count=keys.size,
        )

    def fusion_guard(self, state: NodeState) -> Any:
        """Residency in the local store *is* the local-route condition and
        local access touches nothing beyond storage, latches and metrics —
        unless the key has subscribers (hybrid): its writes feed broadcast
        buffers that the background synchronizer reads mid-window.  The
        trainer's privacy window also rules out a subscription *appearing*
        mid-window (a registration requires another node to read the key)."""
        return None if self.replication is None else state.subscribers.get

    # ---------------------------------------------- client side: local access
    # One kernel event per group of local keys, after the shared-memory access
    # delay.  The group of an all-resident operation is the whole operation and
    # is answered in one piece; the events, delays, metric and latch counts are
    # those of any other local group.
    def pull_local(
        self, client: WorkerClient, handle: OperationHandle, keys: Sequence[int], whole: bool
    ) -> None:
        state = client.state

        def action() -> None:
            try:
                values = state.read_local_many(keys)
            except StorageError:
                # A key was relocated away between issue and the (tiny)
                # shared-memory access delay; split and re-route the misses.
                flags = state.storage.contains_flags(keys)
                present = [key for key, ok in zip(keys, flags) if ok]
                if present:
                    handle.complete_keys(present, state.read_local_many(present))
                for key, ok in zip(keys, flags):
                    if not ok:
                        self._reissue_key(client, handle, key, pull=True)
                return
            if whole:
                handle.complete_batch(values)
            else:
                handle.complete_keys(keys, values)

        self.after_shared_memory_access(client, len(keys), action)

    def push_local(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        keys: Sequence[int],
        updates: np.ndarray,
        rows: Optional[List[int]],
    ) -> None:
        state = client.state

        def action() -> None:
            try:
                # add_many is check-then-apply, so a relocated-away key raises
                # before any update lands and the per-key fallback stays exact.
                self.write_owned(
                    state, keys, updates if rows is None else select_rows(updates, rows)
                )
            except StorageError:
                done = []
                flags = state.storage.contains_flags(keys)
                positions = range(len(keys)) if rows is None else rows
                for key, row, ok in zip(keys, positions, flags):
                    if ok:
                        self.write_owned(state, (key,), updates[row : row + 1])
                        done.append(key)
                    else:
                        self._reissue_key(client, handle, key, pull=False, update=updates[row])
                if done:
                    handle.complete_keys(done)
                return
            if rows is None:
                handle.complete_batch()
            else:
                handle.complete_keys(keys)

        self.after_shared_memory_access(client, len(keys), action)

    def write_owned(self, state: NodeState, keys: Sequence[int], updates: np.ndarray) -> None:
        """Owner-side write — worker fast path, forwarded push or drained
        queue alike; under the hybrid composition every one of them also
        feeds the key's subscribers."""
        state.write_local_many(keys, updates)
        if self.replication is not None:
            self.replication.broadcast_owned_write(state, keys, updates)

    def _reissue_key(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        key: int,
        pull: bool,
        update: Optional[np.ndarray] = None,
    ) -> None:
        """Re-route a key whose local copy disappeared before the access ran."""
        state = client.state
        if key in state.relocating_in:
            state.metrics.queued_ops += 1
            self.enqueue(
                state,
                key,
                QueuedOp(
                    "local_pull" if pull else "local_push",
                    key,
                    handle,
                    None if update is None else update.copy(),
                ),
            )
            return
        destination = self.route_destination(state, key)
        if pull:
            self.ps.send_request(state.node_id, handle, destination, (key,), True)
        else:
            self.ps.send_request(
                state.node_id, handle, destination, (key,), False, update.reshape(1, -1), [0]
            )

    def enqueue(self, state: NodeState, key: int, op: QueuedOp) -> None:
        state.relocating_in[key].queued_ops.append(op)

    # ------------------------------------------------- client side: localize
    def issue_localize(
        self, client: WorkerClient, handle: OperationHandle, keys: Tuple[int, ...]
    ) -> None:
        state = client.state
        ps = self.ps
        metrics = state.metrics
        metrics.localize_calls += 1
        metrics.localized_keys += len(keys)
        replication = self.replication
        already_local: List[int] = []
        home_groups: Dict[int, List[int]] = defaultdict(list)
        for key in keys:
            # A replica (present or installing) already makes accesses local,
            # so ``localize`` on a replicated key needs no relocation — this
            # also keeps a node from ever being subscriber and owner of the
            # same key.
            if state.storage.contains(key) or (
                replication is not None and replication.holds_replica(state, key)
            ):
                already_local.append(key)
            elif key in state.relocating_in:
                state.relocating_in[key].localize_handles.append(handle)
            else:
                state.relocating_in[key] = RelocatingKey(
                    key=key,
                    requested_at=ps.sim.now,
                    localize_handles=[handle],
                )
                home_groups[self.home_node(key)].append(key)
        if already_local:
            delay = ps.cluster.cost_model.localize_issue_time
            client._complete_after(
                delay, lambda keys=tuple(already_local): handle.complete_keys(keys)
            )
        for home, home_keys in home_groups.items():
            if home == client.node_id:
                # The home table lives in this node's shared memory: apply the
                # home-side logic directly (saves message 1 of the protocol).
                self.process_localize_at_home(state, tuple(home_keys), client.node_id)
            else:
                request = LocalizeRequest(keys=tuple(home_keys), requester_node=client.node_id)
                ps.send_to_server(
                    client.node_id, home, request, message_size(len(home_keys), 0)
                )

    # ------------------------------------------------ server side: pull / push
    def _handle_access(self, state: NodeState, request: Any) -> None:
        """Handle a pull/push request at the server, forwarding unknown keys."""
        is_pull = isinstance(request, PullRequest)
        owned = KeyRows()
        queued = KeyRows()
        forward_groups: Dict[int, KeyRows] = defaultdict(KeyRows)
        resident = state.storage.contains_flags(request.keys)
        for row, (key, is_resident) in enumerate(zip(request.keys, resident)):
            if is_resident:
                owned.add(key, row)
            elif key in state.relocating_in:
                queued.add(key, row)
            else:
                forward_groups[self.forward_destination(state, key)].add(key, row)
        if owned.keys:
            if is_pull:
                values = state.read_local_many(owned.keys)
                self.ps.respond_pull(state, request, owned.keys, values)
            else:
                self.write_owned(state, owned.keys, select_rows(request.updates, owned.rows))
                self.ps.ack_push(state, request, owned.keys)
        for key, row in zip(queued.keys, queued.rows):
            state.metrics.queued_ops += 1
            state.relocating_in[key].queued_ops.append(
                QueuedOp(
                    kind="remote_pull" if is_pull else "remote_push",
                    key=key,
                    request=request,
                    row=row,
                )
            )
        for destination, group in forward_groups.items():
            state.metrics.forwarded_ops += 1
            self._forward_access(state, request, destination, group, is_pull)

    def _forward_access(
        self,
        state: NodeState,
        request: Any,
        destination: int,
        group: KeyRows,
        is_pull: bool,
    ) -> None:
        keys = tuple(group.keys)
        if is_pull:
            forwarded = replace(request, keys=keys, hops=request.hops + 1)
            size = message_size(len(keys), 0)
        else:
            updates = copy_rows(request.updates, group.rows)
            forwarded = replace(request, keys=keys, updates=updates, hops=request.hops + 1)
            size = message_size(len(keys), updates.size)
        if request.hops > 0:
            state.metrics.cache_stale += 1
        self.ps.send_to_server(state.node_id, destination, forwarded, size)

    # ------------------------------------------------ server side: relocation
    def install_recovered(
        self, state: NodeState, message: RecoveryInstall, lost: bool = False
    ) -> None:
        """Install keys recovered after their owner failed.

        The elastic runtime re-homes a failed node's keys and restores each
        from the durable log (installed out of band, no network hop) or from
        a surviving replica (shipped as a message).  Installation mirrors a
        relocation transfer: queued operations drain in order and a key
        another node asked for meanwhile is passed on, but the keys count as
        *recovered* rather than relocated (``lost``: re-initialized, counted
        by the caller); under the hybrid composition the new owner also
        takes over the surviving subscribers.
        """
        for index, key in enumerate(message.keys):
            entry = state.relocating_in.pop(key, None)
            if entry is None:
                raise RelocationError(
                    f"node {state.node_id} received a recovery install for key "
                    f"{key} it does not expect"
                )
            state.storage.insert(key, message.values[index])
            if not lost:
                state.metrics.recovered_keys += 1
            if self.replication is not None:
                self.replication.adopt_subscribers(
                    state, key, message.subscribers[index] if message.subscribers else ()
                )
            for handle in entry.localize_handles:
                handle.complete_keys([key])
            self._drain_queue(state, key, entry)

    def _handle_localize(self, state: NodeState, message: LocalizeRequest) -> None:
        self.process_localize_at_home(state, message.keys, message.requester_node)

    def process_localize_at_home(
        self, home_state: NodeState, keys: Tuple[int, ...], requester: int
    ) -> None:
        """Home-node half of the relocation protocol (message 1 handling).

        Updates the location table immediately and instructs the current owner
        of every key to hand it over.  Keys already owned by the requester are
        acknowledged without a transfer.

        Two elastic-cluster tolerances (no-ops on static clusters):

        * a localize for a key whose home moved to another node while the
          request was in flight (a rebalance bumped the partitioner epoch) is
          *forwarded* to the current home — the stale-location tolerance of
          §3.5, applied to home reassignment instead of caches;
        * a requester that is draining, failed, or has left the cluster must
          not (re)acquire keys: its localize completes without moving anything
          (subsequent accesses route remotely).
        """
        ps = self.ps
        membership = ps.membership
        if membership is not None and not membership.may_own(requester):
            self._acknowledge_local_keys(home_state, list(keys), requester)
            return
        instruction_groups: Dict[int, List[int]] = defaultdict(list)
        forward_groups: Dict[int, List[int]] = defaultdict(list)
        ack_keys: List[int] = []
        for key in keys:
            home = self.home_node(key)
            if home != home_state.node_id:
                if key in home_state.home_location:
                    raise RelocationError(
                        f"node {home_state.node_id} received a localize request for "
                        f"key {key}, whose home is node {home}"
                    )
                # The home duty for this key was handed to another node while
                # the request was in flight; forward along the new assignment.
                forward_groups[home].append(key)
                continue
            current_owner = home_state.home_location[key]
            if current_owner == requester:
                ack_keys.append(key)
                continue
            home_state.home_location[key] = requester
            instruction_groups[current_owner].append(key)
        for home, home_keys in forward_groups.items():
            home_state.metrics.forwarded_ops += 1
            forwarded = LocalizeRequest(keys=tuple(home_keys), requester_node=requester)
            ps.send_to_server(
                home_state.node_id, home, forwarded, message_size(len(home_keys), 0)
            )
        if ack_keys:
            self._acknowledge_local_keys(home_state, ack_keys, requester)
        for old_owner, owner_keys in instruction_groups.items():
            instruction = RelocateInstruction(
                keys=tuple(owner_keys),
                new_owner=requester,
                incarnation=0 if membership is None else membership.incarnations[requester],
            )
            if old_owner == home_state.node_id:
                self._handle_instruction(home_state, instruction)
            else:
                ps.send_to_server(
                    home_state.node_id,
                    old_owner,
                    instruction,
                    message_size(len(owner_keys), 0),
                )

    def _acknowledge_local_keys(
        self, home_state: NodeState, keys: List[int], requester: int
    ) -> None:
        """Tell the requester that ``keys`` are already located at its node."""
        ps = self.ps
        if requester == home_state.node_id:
            self._complete_requester_side(ps.states[requester], keys)
            return
        # The ack is routed through the server so the requester node can clear
        # its relocation bookkeeping before completing worker handles.
        ps.send_to_server(
            home_state.node_id,
            requester,
            RelocationTransfer(
                keys=tuple(keys),
                values=np.zeros((0, ps.ps_config.value_length)),
                removed_at=ps.sim.now,
            ),
            message_size(len(keys), 0),
        )

    def _handle_instruction(
        self, state: NodeState, instruction: RelocateInstruction
    ) -> None:
        """Old-owner half of the protocol (message 2 handling)."""
        ps = self.ps
        membership = ps.membership
        if membership is not None and (
            membership.state_of(instruction.new_owner) in ("failed", "left")
            or membership.incarnations[instruction.new_owner] != instruction.incarnation
        ):
            # The requester crashed (or left) while the instruction was on
            # the wire: shipping the keys would hand them to a black hole, or
            # to its restarted machine, which asks afresh for what it wants.
            # Keep them — failure recovery's stale-home tolerance re-points
            # their home entries back to this node.
            return
        transfer_keys: List[int] = []
        resident = state.storage.contains_flags(instruction.keys)
        for key, is_resident in zip(instruction.keys, resident):
            if is_resident:
                transfer_keys.append(key)
            elif key in state.relocating_in:
                # The key is still on its way to us; pass it on as soon as it
                # arrives and the queued operations have been drained.
                state.relocating_in[key].pending_new_owner = instruction.new_owner
            else:
                raise RelocationError(
                    f"node {state.node_id} was instructed to relocate key {key} "
                    "it neither owns nor expects"
                )
        if not transfer_keys:
            return
        transfer = self._build_transfer(state, transfer_keys)
        size = message_size(len(transfer_keys), transfer.values.size)
        if instruction.new_owner == state.node_id:
            self._handle_transfer(state, transfer)
        else:
            ps.send_to_server(state.node_id, instruction.new_owner, transfer, size)

    def _build_transfer(self, state: NodeState, transfer_keys: List[int]) -> RelocationTransfer:
        """Remove ``transfer_keys`` from the old owner and build message 3.

        Under the hybrid composition the subscriber sets travel with the
        values: broadcast duty moves to the new owner.
        """
        subscribers: Tuple[Tuple[int, ...], ...] = ()
        if self.replication is not None:
            subscribers = self.replication.release_subscribers(state, transfer_keys)
        return RelocationTransfer(
            keys=tuple(transfer_keys),
            values=state.storage.remove_many(transfer_keys),
            removed_at=self.ps.sim.now,
            subscribers=subscribers,
        )

    def _handle_transfer(
        self, state: NodeState, transfer: RelocationTransfer
    ) -> None:
        """New-owner half of the protocol (message 3 handling)."""
        if transfer.values.shape[0] == 0:
            # "Already local" notification generated by the home node.
            self._complete_requester_side(state, list(transfer.keys))
            return
        ps = self.ps
        now = ps.sim.now
        keys = transfer.keys
        values = transfer.values
        removed_at = transfer.removed_at
        subscribers = transfer.subscribers
        replication = self.replication
        trace = state.trace
        location_cache = state.location_cache if ps.ps_config.location_caches else None
        relocating_in = state.relocating_in
        insert = state.storage.insert
        metrics = state.metrics
        record_relocation_time = metrics.relocation_time.record
        metrics.relocations += len(keys)
        # Every key of a transfer was removed at the same instant.
        metrics.blocking_time.record_repeated(now - removed_at, len(keys))
        # Localize handles complete once per run of consecutive keys sharing
        # one, flushed before anything else that draws a kernel sequence
        # number (queue drains, follow-up instructions): the completions —
        # and every scheduling draw — keep the key-by-key order.
        run_handle: Optional[OperationHandle] = None
        run_keys: List[int] = []
        for index, key in enumerate(keys):
            entry = relocating_in.pop(key, None)
            if entry is None:
                raise RelocationError(
                    f"node {state.node_id} received a transfer for key {key} "
                    "it did not request"
                )
            insert(key, values[index])
            if replication is not None:
                replication.adopt_subscribers(
                    state, key, subscribers[index] if subscribers else ()
                )
            record_relocation_time(now - entry.requested_at)
            if trace is not None:
                trace.relocation(key, entry.requested_at, removed_at, now)
            if location_cache is not None:
                location_cache.pop(key, None)
            for handle in entry.localize_handles:
                if handle is not run_handle:
                    if run_keys:
                        run_handle.complete_keys(run_keys)
                        run_keys = []
                    run_handle = handle
                run_keys.append(key)
            if entry.queued_ops or entry.pending_new_owner is not None:
                if run_keys:
                    run_handle.complete_keys(run_keys)
                    run_keys = []
                self._drain_queue(state, key, entry)
        if run_keys:
            run_handle.complete_keys(run_keys)

    def _complete_requester_side(self, state: NodeState, keys: List[int]) -> None:
        """Complete localize handles for keys that turned out to be local already."""
        for key in keys:
            entry = state.relocating_in.pop(key, None)
            if entry is None:
                continue
            for handle in entry.localize_handles:
                handle.complete_keys([key])
            self._drain_queue(state, key, entry)

    def _drain_queue(self, state: NodeState, key: int, entry: RelocatingKey) -> None:
        """Process operations queued while ``key`` was relocating, in order,
        then pass the key on if another node asked for it meanwhile."""
        for queued in entry.queued_ops:
            self._drain_one(state, key, queued)
        if entry.pending_new_owner is not None and state.storage.contains(key):
            membership = self.ps.membership
            follow_up = RelocateInstruction(
                keys=(key,),
                new_owner=entry.pending_new_owner,
                incarnation=(
                    0 if membership is None else membership.incarnations[entry.pending_new_owner]
                ),
            )
            self._handle_instruction(state, follow_up)

    def _drain_one(self, state: NodeState, key: int, queued: QueuedOp) -> None:
        """Process one queued operation for a key that just became resident."""
        kind = queued.kind
        if kind in ("local_pull", "local_push") and not state.storage.contains(key):
            # The relocation completed without the key arriving (e.g. a
            # draining node's localize was acknowledged as a no-op by the
            # elastic drain gate): re-route the queued operation remotely.
            self._redirect_queued(state, key, queued)
        elif kind == "local_pull":
            queued.handle.complete_keys([key], state.read_local(key).reshape(1, -1))
        elif kind == "local_push":
            self.write_owned(state, (key,), queued.update.reshape(1, -1))
            queued.handle.complete_keys([key])
        elif kind == "remote_pull":
            self._handle_access(state, replace(queued.request, keys=(key,)))
        elif kind == "remote_push":
            update = queued.request.updates[queued.row].reshape(1, -1)
            self._handle_access(state, replace(queued.request, keys=(key,), updates=update))
        elif kind in ("register", "flush") and self.replication is not None:
            # A replica subscription / update flush that chased the key here.
            self.replication.redeliver(state, key, queued)
        else:  # pragma: no cover - defensive
            raise RelocationError(f"unknown queued op kind {kind!r}")

    def _redirect_queued(self, state: NodeState, key: int, queued: QueuedOp) -> None:
        """Send a queued worker operation to the key's best-known location."""
        destination = self.route_destination(state, key)
        if queued.kind == "local_pull":
            self.ps.send_request(state.node_id, queued.handle, destination, (key,), True)
        else:
            self.ps.send_request(
                state.node_id, queued.handle, destination, (key,), False,
                queued.update.reshape(1, -1), [0],
            )


class LapsePS(ParameterServer):
    """Parameter server with dynamic parameter allocation (the paper's Lapse)."""

    policy_class = RelocationPolicy
    name = "lapse"
