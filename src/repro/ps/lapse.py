"""Lapse: a parameter server with dynamic parameter allocation (DPA).

This module implements the system described in Section 3 of the paper:

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

Per-key routing (shared-memory residency, relocation queueing, home/cache
forwarding) is implemented by :class:`~repro.ps.policy.RelocationPolicy`; the
server loop is the generic dispatch loop of
:class:`~repro.ps.base.ParameterServer`, with the three relocation-protocol
messages contributed by the policy.

The implementation preserves the consistency behaviour analysed in §3.4:
sequential consistency per key for synchronous operations and for
asynchronous operations without location caches; location caches can break
program order for asynchronous operations (Theorem 3), which the consistency
test-suite demonstrates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import message_size
from repro.errors import RelocationError, StorageError
from repro.ps.base import (
    FusedLocalSteps,
    KeyRows,
    NodeState,
    ParameterServer,
    QueuedOp,
    WorkerClient,
    copy_rows,
    select_rows,
    van_address,
)
from repro.ps.futures import OperationHandle
from repro.ps.messages import (
    LocalizeRequest,
    PullRequest,
    PullResponse,
    PushAck,
    PushRequest,
    RecoveryInstall,
    RelocateInstruction,
    RelocationTransfer,
)
from repro.ps.policy import ROUTE_LOCAL, ROUTE_QUEUE, RelocationPolicy

__all__ = [
    "LapseNodeState",
    "LapsePS",
    "LapseWorkerClient",
    "QueuedOp",
    "RelocatingKey",
]


@dataclass
class RelocatingKey:
    """State of one key currently relocating *to* this node."""

    key: int
    requested_at: float
    localize_handles: List[OperationHandle] = field(default_factory=list)
    queued_ops: List[QueuedOp] = field(default_factory=list)
    #: Set when a RelocateInstruction for this key arrives before the transfer
    #: (a later localize by another node); the key is passed on immediately
    #: after the transfer completes and queued work is drained.
    pending_new_owner: Optional[int] = None


class LapseNodeState(NodeState):
    """Per-node state of Lapse: location tables, caches, and relocation state.

    The tables themselves (``home_location``, ``relocating_in``,
    ``last_transfer``, ``location_cache``) are installed by
    :meth:`repro.ps.policy.RelocationPolicy.attach`; the annotations below
    document them for readers and type checkers.
    """

    home_location: Dict[int, int]
    relocating_in: Dict[int, "RelocatingKey"]
    last_transfer: Dict[int, int]
    location_cache: Dict[int, int]


class LapseWorkerClient(WorkerClient):
    """Lapse client: shared-memory local access, localize, transparent routing."""

    state: LapseNodeState

    def fused_local_steps(self):
        """Fused local steps for pure relocation (not the hybrid composition).

        Under :class:`RelocationPolicy`, residency in the local store *is*
        the local-route condition and local access touches nothing beyond
        storage, latches, and metrics.  The hybrid policy is excluded: its
        owner-side writes feed replica broadcast buffers that a background
        synchronizer observes mid-window.
        """
        if self._fusion_safe() and type(self.policy) is RelocationPolicy:
            return FusedLocalSteps(self)
        return None

    # ------------------------------------------------------------------- pull
    def _issue_pull(self, handle: OperationHandle, keys: Tuple[int, ...]) -> None:
        state = self.state
        metrics = state.metrics
        if all(state.storage.contains_flags(keys)):
            # Every key is resident: one shared-memory access for the batch.
            metrics.key_reads_local += len(keys)
            metrics.pulls_local += 1
            self._local_pull(handle, keys, whole=True)
            return
        local_keys: List[int] = []
        queued_keys: List[int] = []
        remote_groups: Dict[int, List[int]] = defaultdict(list)
        for key, route in zip(keys, self.policy.route_many(state, keys)):
            if route.kind == ROUTE_LOCAL:
                local_keys.append(key)
            elif route.kind == ROUTE_QUEUE:
                queued_keys.append(key)
            else:
                remote_groups[route.destination].append(key)
        if local_keys:
            metrics.key_reads_local += len(local_keys)
            self._local_pull(handle, local_keys)
        for key in queued_keys:
            metrics.key_reads_local += 1
            metrics.queued_ops += 1
            state.relocating_in[key].queued_ops.append(
                QueuedOp(kind="local_pull", key=key, handle=handle)
            )
        for destination, dest_keys in remote_groups.items():
            metrics.key_reads_remote += len(dest_keys)
            self._send_remote(handle, destination, dest_keys, pull=True)
        if remote_groups:
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
        if all(state.storage.contains_flags(keys)):
            metrics.key_writes_local += len(keys)
            metrics.pushes_local += 1
            self._local_push(handle, keys, updates)
            return
        local = KeyRows()
        queued = KeyRows()
        remote_groups: Dict[int, KeyRows] = defaultdict(KeyRows)
        routes = self.policy.route_many(state, keys, write=True)
        for row, (key, route) in enumerate(zip(keys, routes)):
            if route.kind == ROUTE_LOCAL:
                local.add(key, row)
            elif route.kind == ROUTE_QUEUE:
                queued.add(key, row)
            else:
                remote_groups[route.destination].add(key, row)
        if local.keys:
            metrics.key_writes_local += len(local.keys)
            self._local_push(handle, local.keys, updates, local.rows)
        for key, row in zip(queued.keys, queued.rows):
            metrics.key_writes_local += 1
            metrics.queued_ops += 1
            state.relocating_in[key].queued_ops.append(
                QueuedOp(
                    kind="local_push",
                    key=key,
                    handle=handle,
                    # Snapshot at issue time: the caller may reuse its update
                    # buffer while the relocation is in flight (see copy_rows).
                    update=updates[row].copy(),
                )
            )
        for destination, group in remote_groups.items():
            metrics.key_writes_remote += len(group.keys)
            self._send_remote(
                handle, destination, group.keys, pull=False, updates=updates, rows=group.rows
            )
        if remote_groups:
            metrics.pushes_remote += 1
        else:
            metrics.pushes_local += 1

    # --------------------------------------------------------------- localize
    def _issue_localize(self, handle: OperationHandle, keys: Tuple[int, ...]) -> None:
        state = self.state
        ps: "LapsePS" = self.ps  # type: ignore[assignment]
        metrics = state.metrics
        metrics.localize_calls += 1
        metrics.localized_keys += len(keys)
        already_local: List[int] = []
        home_groups: Dict[int, List[int]] = defaultdict(list)
        for key in keys:
            if self._localized_without_move(state, key):
                already_local.append(key)
            elif key in state.relocating_in:
                state.relocating_in[key].localize_handles.append(handle)
            else:
                state.relocating_in[key] = RelocatingKey(
                    key=key,
                    requested_at=self.sim.now,
                    localize_handles=[handle],
                )
                home_groups[ps.home_node(key)].append(key)
        if already_local:
            delay = self.ps.cluster.cost_model.localize_issue_time
            self._complete_after(delay, lambda keys=tuple(already_local): handle.complete_keys(keys))
        for home, home_keys in home_groups.items():
            if home == self.node_id:
                # The home table lives in this node's shared memory: apply the
                # home-side logic directly (saves message 1 of the protocol).
                ps.process_localize_at_home(state, tuple(home_keys), self.node_id)
            else:
                op_id = ps.next_op_id()
                ps.register_op(op_id, handle)
                request = LocalizeRequest(
                    op_id=op_id, keys=tuple(home_keys), requester_node=self.node_id
                )
                ps.send_to_server(
                    self.node_id, home, request, message_size(len(home_keys), 0)
                )

    def _localized_without_move(self, state: LapseNodeState, key: int) -> bool:
        """Whether ``key`` is already local (no relocation needed)."""
        return state.storage.contains(key)

    # ------------------------------------------------------------ local access
    # One kernel event per group of local keys, after the shared-memory access
    # delay.  The group of an all-resident operation is the whole operation and
    # is answered in one piece; the events, delays, metric and latch counts are
    # those of any other local group.
    def _local_pull(
        self, handle: OperationHandle, local_keys: Sequence[int], whole: bool = False
    ) -> None:
        cost = self.ps.cluster.cost_model
        delay = cost.local_access_time(shared_memory=True) * len(local_keys)
        state = self.state

        def action() -> None:
            try:
                values = state.read_local_many(local_keys)
            except StorageError:
                # A key was relocated away between issue and the (tiny)
                # shared-memory access delay; split and re-route the misses.
                flags = state.storage.contains_flags(local_keys)
                present = [key for key, ok in zip(local_keys, flags) if ok]
                if present:
                    handle.complete_keys(present, state.read_local_many(present))
                for key, ok in zip(local_keys, flags):
                    if not ok:
                        self._reissue_key(handle, key, pull=True)
                return
            if whole:
                handle.complete_batch(values)
            else:
                handle.complete_keys(local_keys, values)

        self._complete_after(delay, action)

    def _local_push(
        self,
        handle: OperationHandle,
        local_keys: Sequence[int],
        updates: np.ndarray,
        local_rows: Optional[List[int]] = None,
    ) -> None:
        """Apply rows ``local_rows`` of ``updates``; ``None``: the whole operation."""
        cost = self.ps.cluster.cost_model
        delay = cost.local_access_time(shared_memory=True) * len(local_keys)
        state = self.state

        def action() -> None:
            try:
                # add_many is check-then-apply, so a relocated-away key raises
                # before any update lands and the per-key fallback stays exact.
                state.write_local_many(
                    local_keys,
                    updates if local_rows is None else select_rows(updates, local_rows),
                )
            except StorageError:
                done = []
                flags = state.storage.contains_flags(local_keys)
                rows = range(len(local_keys)) if local_rows is None else local_rows
                for key, row, ok in zip(local_keys, rows, flags):
                    if ok:
                        state.write_local(key, updates[row])
                        done.append(key)
                    else:
                        self._reissue_key(handle, key, pull=False, update=updates[row])
                if done:
                    handle.complete_keys(done)
                return
            if local_rows is None:
                handle.complete_batch()
            else:
                handle.complete_keys(local_keys)

        self._complete_after(delay, action)

    def _reissue_key(
        self,
        handle: OperationHandle,
        key: int,
        pull: bool,
        update: Optional[np.ndarray] = None,
    ) -> None:
        """Re-route a key whose local copy disappeared before the access ran."""
        state = self.state
        if key in state.relocating_in:
            state.metrics.queued_ops += 1
            state.relocating_in[key].queued_ops.append(
                QueuedOp(
                    kind="local_pull" if pull else "local_push",
                    key=key,
                    handle=handle,
                    update=None if update is None else update.copy(),
                )
            )
            return
        destination = self._route_destination(key)
        if pull:
            self._send_remote(handle, destination, [key], pull=True)
        else:
            self._send_remote(
                handle,
                destination,
                [key],
                pull=False,
                updates=update.reshape(1, -1),
                rows=[0],
            )

    # ---------------------------------------------------------------- routing
    def _route_destination(self, key: int) -> int:
        """Choose the node to contact for a non-local access to ``key``."""
        return self._relocation_policy().route_destination(self.state, key)

    def _relocation_policy(self) -> RelocationPolicy:
        """The relocation policy handling cold keys (overridden by hybrid)."""
        return self.policy  # type: ignore[return-value]

    # _send_remote is inherited from WorkerClient: chunked pull/push requests
    # routed to a destination server, with op ids registered for the van.


class LapsePS(ParameterServer):
    """Parameter server with dynamic parameter allocation (the paper's Lapse)."""

    client_class = LapseWorkerClient
    policy_class = RelocationPolicy
    name = "lapse"

    def _make_node_state(self, node) -> LapseNodeState:
        return LapseNodeState(self, node)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Initialize home-node location tables: at start-up the owner of every
        # key is its home node (the static partition).
        for node in range(self.cluster.num_nodes):
            home_location = self.states[node].home_location  # type: ignore[attr-defined]
            for key in self.partitioner.keys_of(node):
                home_location[key] = node

    # --------------------------------------------------------------- locations
    def home_node(self, key: int) -> int:
        """Home node of ``key`` (static, from the partitioner)."""
        return self.partitioner.node_of(key)

    def current_owner(self, key: int) -> int:
        """Node that currently owns ``key`` according to its home node."""
        home_state: LapseNodeState = self.states[self.home_node(key)]  # type: ignore[assignment]
        return home_state.home_location[key]

    def current_owners(self, keys) -> np.ndarray:
        """Vectorized :meth:`current_owner` via the per-home location tables."""
        keys = np.asarray(keys, dtype=np.int64)
        homes = self.partitioner.nodes_of(keys)
        states = self.states
        return np.fromiter(
            (
                states[home].home_location[key]  # type: ignore[attr-defined]
                for home, key in zip(homes.tolist(), keys.tolist())
            ),
            dtype=np.int64,
            count=keys.size,
        )

    # ---------------------------------------------------------- server dispatch
    def _server_dispatch(self, state: LapseNodeState):  # type: ignore[override]
        cost = self.cluster.cost_model.server_processing_time
        dispatch = {
            PullRequest: (cost, self._handle_access),
            PushRequest: (cost, self._handle_access),
        }
        dispatch.update(self.management_policy.server_handlers(state))
        return dispatch

    # ------------------------------------------------------------ pull / push
    def _handle_access(self, state: LapseNodeState, request: Any) -> None:
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
                forward_groups[self._forward_destination(state, key)].add(key, row)
        if owned.keys:
            self._answer_owned(state, request, owned, is_pull)
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

    def _answer_owned(
        self, state: LapseNodeState, request: Any, owned: KeyRows, is_pull: bool
    ) -> None:
        keys = owned.keys
        if is_pull:
            values = state.read_local_many(keys)
            self._respond_pull(state, request, keys, values)
        else:
            state.write_local_many(keys, select_rows(request.updates, owned.rows))
            self._ack_push(state, request, keys)

    def _forward_destination(self, state: LapseNodeState, key: int) -> int:
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

    def _forward_access(
        self,
        state: LapseNodeState,
        request: Any,
        destination: int,
        group: KeyRows,
        is_pull: bool,
    ) -> None:
        op_id = request.op_id
        keys = group.keys
        if is_pull:
            forwarded: Any = PullRequest(
                op_id=op_id,
                keys=tuple(keys),
                requester_node=request.requester_node,
                reply_to=request.reply_to,
                hops=request.hops + 1,
            )
            size = message_size(len(keys), 0)
        else:
            updates = copy_rows(request.updates, group.rows)
            forwarded = PushRequest(
                op_id=op_id,
                keys=tuple(keys),
                updates=updates,
                requester_node=request.requester_node,
                reply_to=request.reply_to,
                needs_ack=request.needs_ack,
                hops=request.hops + 1,
            )
            size = message_size(len(keys), updates.size)
        if request.hops > 0:
            state.metrics.cache_stale += 1
        self.send_to_server(state.node_id, destination, forwarded, size)

    # -------------------------------------------------------------- relocation
    def process_localize_at_home(
        self, home_state: LapseNodeState, keys: Tuple[int, ...], requester: int
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
        membership = self.membership
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
            forwarded = LocalizeRequest(
                op_id=self.next_op_id(), keys=tuple(home_keys), requester_node=requester
            )
            self.send_to_server(
                home_state.node_id, home, forwarded, message_size(len(home_keys), 0)
            )
        if ack_keys:
            self._acknowledge_local_keys(home_state, ack_keys, requester)
        for old_owner, owner_keys in instruction_groups.items():
            instruction = RelocateInstruction(
                op_id=self.next_op_id(),
                keys=tuple(owner_keys),
                new_owner=requester,
                home_node=home_state.node_id,
            )
            if old_owner == home_state.node_id:
                self._handle_instruction(home_state, instruction)
            else:
                self.send_to_server(
                    home_state.node_id,
                    old_owner,
                    instruction,
                    message_size(len(owner_keys), 0),
                )

    def _acknowledge_local_keys(
        self, home_state: LapseNodeState, keys: List[int], requester: int
    ) -> None:
        """Tell the requester that ``keys`` are already located at its node."""
        requester_state: LapseNodeState = self.states[requester]  # type: ignore[assignment]
        if requester == home_state.node_id:
            self._complete_requester_side(requester_state, keys, values=None)
            return
        # The ack is routed through the server so the requester node can clear
        # its relocation bookkeeping before completing worker handles.
        self.send_to_server(
            home_state.node_id,
            requester,
            RelocationTransfer(
                op_id=0,
                keys=tuple(keys),
                values=np.zeros((0, self.ps_config.value_length)),
                old_owner=requester,
                removed_at=self.sim.now,
            ),
            message_size(len(keys), 0),
        )

    def _handle_instruction(
        self, state: LapseNodeState, instruction: RelocateInstruction
    ) -> None:
        """Old-owner half of the protocol (message 2 handling)."""
        membership = self.membership
        if membership is not None and membership.state_of(instruction.new_owner) in (
            "failed",
            "left",
        ):
            # The requester crashed (or left) while the instruction was on
            # the wire: shipping the keys would hand them to a black hole.
            # Keep them — failure recovery's stale-home tolerance re-points
            # their home entries back to this node.
            return
        transfer_keys: List[int] = []
        resident = state.storage.contains_flags(instruction.keys)
        for key, is_resident in zip(instruction.keys, resident):
            if is_resident:
                transfer_keys.append(key)
                state.last_transfer[key] = instruction.new_owner
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
        transfer = self._build_transfer(state, transfer_keys, instruction)
        size = message_size(len(transfer_keys), transfer.values.size)
        if instruction.new_owner == state.node_id:
            self._handle_transfer(state, transfer)
        else:
            self.send_to_server(state.node_id, instruction.new_owner, transfer, size)

    def _build_transfer(
        self,
        state: LapseNodeState,
        transfer_keys: List[int],
        instruction: RelocateInstruction,
    ) -> RelocationTransfer:
        """Remove ``transfer_keys`` from the old owner and build message 3.

        Overridden by the hybrid PS to hand subscriber sets over with the
        parameter values.
        """
        values = state.storage.remove_many(transfer_keys)
        return RelocationTransfer(
            op_id=instruction.op_id,
            keys=tuple(transfer_keys),
            values=values,
            old_owner=state.node_id,
            removed_at=self.sim.now,
        )

    def _handle_transfer(
        self, state: LapseNodeState, transfer: RelocationTransfer
    ) -> None:
        """New-owner half of the protocol (message 3 handling)."""
        if transfer.values.shape[0] == 0:
            # "Already local" notification generated by the home node.
            self._complete_requester_side(state, list(transfer.keys), values=None)
            return
        for index, key in enumerate(transfer.keys):
            if key not in state.relocating_in:
                raise RelocationError(
                    f"node {state.node_id} received a transfer for key {key} "
                    "it did not request"
                )
            state.storage.insert(key, transfer.values[index])
            self._install_transferred(state, transfer, index, key)
            entry = state.relocating_in.pop(key)
            state.metrics.relocations += 1
            state.metrics.relocation_time.record(self.sim.now - entry.requested_at)
            state.metrics.blocking_time.record(self.sim.now - transfer.removed_at)
            trace = state.trace
            if trace is not None:
                trace.relocation(
                    key, entry.requested_at, transfer.removed_at, self.sim.now
                )
            if self.ps_config.location_caches:
                state.location_cache.pop(key, None)
            for handle in entry.localize_handles:
                handle.complete_keys([key])
            self._drain_queue(state, key, entry)
            if entry.pending_new_owner is not None:
                follow_up = RelocateInstruction(
                    op_id=self.next_op_id(),
                    keys=(key,),
                    new_owner=entry.pending_new_owner,
                    home_node=self.home_node(key),
                )
                self._handle_instruction(state, follow_up)

    def _install_transferred(
        self, state: LapseNodeState, transfer: RelocationTransfer, index: int, key: int
    ) -> None:
        """Extra installation work per transferred key (hybrid: subscribers)."""

    def _handle_recovery(self, state: LapseNodeState, install: RecoveryInstall) -> None:
        """Install keys recovered from a surviving replica after an owner failed.

        The elastic runtime re-homes a failed node's keys and, for every key
        some surviving node replicates, has that holder ship its copy to the
        new owner.  Installation mirrors a relocation transfer: queued
        operations drain in order, but the keys count as *recovered* rather
        than relocated.
        """
        for index, key in enumerate(install.keys):
            entry = state.relocating_in.pop(key, None)
            if entry is None:
                raise RelocationError(
                    f"node {state.node_id} received a recovery install for key "
                    f"{key} it does not expect"
                )
            state.storage.insert(key, install.values[index])
            state.metrics.recovered_keys += 1
            self._install_recovered(state, install, index, key)
            for handle in entry.localize_handles:
                handle.complete_keys([key])
            self._drain_queue(state, key, entry)

    def _install_recovered(
        self, state: LapseNodeState, install: RecoveryInstall, index: int, key: int
    ) -> None:
        """Extra installation work per recovered key (hybrid: subscriber takeover)."""

    def _complete_requester_side(
        self, state: LapseNodeState, keys: List[int], values: Optional[np.ndarray]
    ) -> None:
        """Complete localize handles for keys that turned out to be local already."""
        for key in keys:
            entry = state.relocating_in.pop(key, None)
            if entry is None:
                continue
            for handle in entry.localize_handles:
                handle.complete_keys([key])
            self._drain_queue(state, key, entry)

    def _drain_queue(self, state: LapseNodeState, key: int, entry: RelocatingKey) -> None:
        """Process operations queued while ``key`` was relocating, in order."""
        for queued in entry.queued_ops:
            self._drain_one(state, key, queued)

    def _drain_one(self, state: LapseNodeState, key: int, queued: QueuedOp) -> None:
        """Process one queued operation for a key that just became resident."""
        if queued.kind in ("local_pull", "local_push") and not state.storage.contains(key):
            # The relocation completed without the key arriving (e.g. a
            # draining node's localize was acknowledged as a no-op by the
            # elastic drain gate): re-route the queued operation remotely.
            self._redirect_queued(state, key, queued)
            return
        if queued.kind == "local_pull":
            queued.handle.complete_keys([key], state.read_local(key).reshape(1, -1))
        elif queued.kind == "local_push":
            state.write_local(key, queued.update)
            queued.handle.complete_keys([key])
        elif queued.kind in ("remote_pull", "remote_push"):
            request = queued.request
            single = self._single_key_view(request, key, queued.row)
            self._handle_access(state, single)
        else:  # pragma: no cover - defensive
            raise RelocationError(f"unknown queued op kind {queued.kind!r}")

    def _redirect_queued(self, state: LapseNodeState, key: int, queued: QueuedOp) -> None:
        """Send a queued worker operation to the key's best-known location."""
        destination = self.management_policy.route_destination(state, key)
        op_id = self.next_op_id()
        self.register_op(op_id, queued.handle)
        if queued.kind == "local_pull":
            request: Any = PullRequest(
                op_id=op_id,
                keys=(key,),
                requester_node=state.node_id,
                reply_to=van_address(state.node_id),
            )
            size = message_size(1, 0)
        else:
            request = PushRequest(
                op_id=op_id,
                keys=(key,),
                updates=queued.update.reshape(1, -1),
                requester_node=state.node_id,
                reply_to=van_address(state.node_id),
                needs_ack=True,
            )
            size = message_size(1, queued.update.size)
        self.send_to_server(state.node_id, destination, request, size)

    def _single_key_view(self, request: Any, key: int, row: int) -> Any:
        """Build a single-key copy of a multi-key request for queued processing."""
        if isinstance(request, PullRequest):
            return PullRequest(
                op_id=request.op_id,
                keys=(key,),
                requester_node=request.requester_node,
                reply_to=request.reply_to,
                hops=request.hops,
            )
        return PushRequest(
            op_id=request.op_id,
            keys=(key,),
            updates=request.updates[row].reshape(1, -1),
            requester_node=request.requester_node,
            reply_to=request.reply_to,
            needs_ack=request.needs_ack,
            hops=request.hops,
        )

    # ------------------------------------------------------------------- van
    def _after_response(self, state: LapseNodeState, message: Any) -> None:  # type: ignore[override]
        if not self.ps_config.location_caches:
            return
        if isinstance(message, (PullResponse, PushAck)):
            responder = message.responder_node
            if responder == state.node_id:
                return
            for key in message.keys:
                state.location_cache[key] = responder
