"""Hybrid parameter management: replicate hot keys, relocate the long tail.

The paper's outlook — formalized in the NuPS follow-up (Renz-Wieland et al.,
SIGMOD 2022) — is that no single management technique suits every parameter:
*relocation* (§3) is ideal for keys with access locality (each key lives on
the one node that works on it; accesses are local, per-key sequential
consistency is retained), but a *hot* key that every node reads constantly
would bounce between nodes.  For those, *replication* wins: every accessor
holds a copy, reads/writes are local, and the copies synchronize in the
background at the price of weaker per-key consistency.

:class:`HybridManagementPolicy` runs both techniques in one server, assigned
**per key** by the hot-key policies of :mod:`repro.ps.partition`:

* a key a node's policy classifies as hot is *replicated* to that node on
  first read (subscription + snapshot install, exactly like
  :class:`~repro.ps.replica.EagerReplicationPolicy` alone),
* every other key follows the Lapse relocation protocol (``localize``,
  home-node location management, forward routing) of
  :class:`~repro.ps.lapse.RelocationPolicy`.

The policy *has* one of each and introduces them to each other
(``relocation.replication`` / ``replication.relocation``); the two protocols
then meet at four points, each an explicit call:

1. **Routing order** (:meth:`HybridManagementPolicy.route`): owned storage →
   replica store → in-flight queues (install / relocation) → hot-key policy;
   cold misses and replica subscriptions are both routed via
   ``RelocationPolicy.route_destination`` (home node / location cache).
2. **Owner-write broadcasts everywhere**
   (``RelocationPolicy.write_owned`` → ``EagerReplicationPolicy.broadcast_owned_write``):
   every write applied to an owned key — worker fast path, forwarded push,
   queued-op drain — enqueues a delta for the key's subscribers, regardless
   of which protocol delivered it.
3. **Subscriber handoff on relocation** (``RelocationPolicy._build_transfer`` →
   ``EagerReplicationPolicy.release_subscribers``;
   ``RelocationPolicy._handle_transfer`` / ``install_recovered`` →
   ``EagerReplicationPolicy.adopt_subscribers``): when a subscribed key
   relocates, the old owner first drains its pending broadcast deltas, then
   hands the subscriber set over inside the :class:`RelocationTransfer`; the
   new owner takes over broadcast duties.  ``localize`` of a key the caller
   already replicates completes immediately (``RelocationPolicy.issue_localize``
   asks ``EagerReplicationPolicy.holds_replica``), so a node is never both
   subscriber and owner of the same key.
4. **Subscriptions chase relocated keys**
   (``EagerReplicationPolicy._split_by_residency`` →
   ``RelocationPolicy.forward_destination``; ``RelocationPolicy._drain_one`` →
   ``EagerReplicationPolicy.redeliver``): the home node forwards register and
   flush messages to the current owner, and one that meets a key still in
   flight waits in its relocation queue.

Consistency (§3.4, Table 1): relocated (cold) keys retain per-key sequential
consistency for synchronous operations; replicated (hot) keys retain eventual
consistency plus the session guarantees, like the pure replica PS.  The
per-key classification is exposed by
:meth:`HybridManagementPolicy.key_guarantees`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ps.base import NodeState, ParameterServer, QueuedOp, Route, WorkerClient
from repro.ps.futures import OperationHandle
from repro.ps.lapse import RelocationPolicy
from repro.ps.messages import RecoveryInstall
from repro.ps.policy import LOCAL, QUEUE, REPLICA, Handlers, ManagementPolicy
from repro.ps.replica import EagerReplicationPolicy

__all__ = ["HybridManagementPolicy", "HybridPS"]


class HybridManagementPolicy(ManagementPolicy):
    """Per-key composition: replicate hot keys, relocate the long tail.

    The composition is the NuPS direction the paper's outlook sketches: most
    keys move to the single node that works on them (relocation keeps their
    strong per-key guarantees), while contended hot keys — which relocation
    would bounce between nodes — are replicated to every accessor and
    synchronized in the background.

    This class only decides the routing order and hands every action to the
    technique it belongs to; how the two techniques interact is written where
    it happens (see the module docstring for the four places).
    """

    name = "hybrid"
    supports_localize = True
    supports_rebalance = True
    supports_replica_recovery = True
    supports_wal_recovery = True
    resident_is_local = True
    #: The mixed store retains only what both techniques guarantee; per-key
    #: classification is exposed via :meth:`key_guarantees`.
    guarantees = {
        "eventual": True,
        "session": True,
        "causal": True,
        "sequential": False,
    }

    def __init__(self, ps: Any) -> None:
        super().__init__(ps)
        self.relocation = RelocationPolicy(ps)
        self.replication = EagerReplicationPolicy(ps)
        self.relocation.replication = self.replication
        self.replication.relocation = self.relocation

    @property
    def needs_clock(self) -> bool:  # type: ignore[override]
        return self.replication.needs_clock

    def attach(self, state: NodeState) -> None:
        self.relocation.attach(state)
        self.replication.attach(state)

    def server_handlers(self, state: NodeState) -> Handlers:
        # Pull/push requests follow the relocation protocol (it forwards what
        # moved away); both techniques contribute their own messages.
        handlers = self.replication.server_handlers(state)
        handlers.update(self.relocation.server_handlers(state))
        return handlers

    def van_handlers(self) -> Dict[type, Callable[[NodeState, Any], None]]:
        return self.replication.van_handlers()

    def response_observer(self) -> Optional[Callable[[NodeState, Any], None]]:
        return self.relocation.response_observer()

    # ---------------------------------------------------------------- routing
    def route(self, state: NodeState, key: int, *, write: bool = False) -> Route:
        if state.storage.contains(key):
            return LOCAL
        if key in state.replicas:
            return REPLICA
        if key in state.installing or key in state.relocating_in:
            return QUEUE
        # The access — and with it a subscription — chases the key like any
        # other: via the location cache / home node of the relocation policy.
        return self.replication.route_cold(
            state, key, write, self.relocation.route_destination(state, key)
        )

    # -------------------------- client side: each action to its own technique
    def pull_local(
        self, client: WorkerClient, handle: OperationHandle, keys: Sequence[int], whole: bool
    ) -> None:
        self.relocation.pull_local(client, handle, keys, whole)

    def push_local(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        keys: Sequence[int],
        updates: np.ndarray,
        rows: Optional[List[int]],
    ) -> None:
        self.relocation.push_local(client, handle, keys, updates, rows)

    def write_owned(self, state: NodeState, keys: Sequence[int], updates: np.ndarray) -> None:
        self.relocation.write_owned(state, keys, updates)

    def pull_replica(
        self, client: WorkerClient, handle: OperationHandle, keys: List[int]
    ) -> None:
        self.replication.pull_replica(client, handle, keys)

    def push_replica(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        keys: List[int],
        updates: np.ndarray,
        rows: List[int],
    ) -> None:
        self.replication.push_replica(client, handle, keys, updates, rows)

    def enqueue(self, state: NodeState, key: int, op: QueuedOp) -> None:
        if key in state.installing:
            self.replication.enqueue(state, key, op)
        else:
            self.relocation.enqueue(state, key, op)

    def subscribe(
        self, client: WorkerClient, handle: OperationHandle, destination: int, keys: List[int]
    ) -> None:
        self.replication.subscribe(client, handle, destination, keys)

    def issue_localize(
        self, client: WorkerClient, handle: OperationHandle, keys: Tuple[int, ...]
    ) -> None:
        self.relocation.issue_localize(client, handle, keys)

    def pull_if_local(self, client: WorkerClient, key: int) -> Optional[np.ndarray]:
        return self.replication.pull_if_local(client, key, self.route)

    def clock(self, client: WorkerClient) -> Generator:
        return self.replication.clock(client)

    def fusion_guard(self, state: NodeState) -> Any:
        return self.relocation.fusion_guard(state)

    # -------------------------------------------- lifecycle (cluster runtime)
    def process_localize_at_home(
        self, home_state: NodeState, keys: Tuple[int, ...], requester: int
    ) -> None:
        self.relocation.process_localize_at_home(home_state, keys, requester)

    def install_recovered(
        self, state: NodeState, message: RecoveryInstall, lost: bool = False
    ) -> None:
        self.relocation.install_recovered(state, message, lost)

    def on_sync(self, state: NodeState, clock: Optional[int] = None) -> None:
        self.replication.on_sync(state, clock)

    # ------------------------------------------------------------- inspection
    def current_owner(self, key: int) -> int:
        return self.relocation.current_owner(key)

    def current_owners(self, keys: Sequence[int]) -> np.ndarray:
        return self.relocation.current_owners(keys)

    def replica_holders(self, key: int) -> Tuple[int, ...]:
        return self.replication.replica_holders(key)

    def key_management(self, key: int) -> str:
        """Which technique currently manages ``key``: ``"replication"`` if any
        node holds (or is installing) a replica, ``"relocation"`` otherwise."""
        if self.replica_holders(key) or any(
            key in state.installing for state in self.ps.states
        ):
            return self.replication.name
        return self.relocation.name

    def key_guarantees(self, key: int) -> Dict[str, bool]:
        """Table-1 classification of one key under the current policy mix.

        A key that any node currently replicates is governed by the
        replication guarantees (sequential consistency lost between
        synchronization rounds); a purely relocated/owned key keeps the full
        relocation guarantees.
        """
        if self.replica_holders(key):
            return dict(self.replication.guarantees)
        return dict(self.relocation.guarantees)


class HybridPS(ParameterServer):
    """One server, two management techniques, assigned per key."""

    policy_class = HybridManagementPolicy
    name = "hybrid"
