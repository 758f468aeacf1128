"""The management-policy interface: one technique, the only place it lives.

The paper's core contribution is *dynamic parameter allocation* inside the
parameter server (§3); its outlook (realized in the NuPS follow-up) is that a
single server should *combine* management techniques — relocate most keys,
replicate the hot ones.  In this repo a technique is one
:class:`ManagementPolicy` object, and a system *is* its policy: the runtime
(:mod:`repro.ps.base`) is the same for all of them.  A policy owns

* the per-node tables of its technique (:meth:`~ManagementPolicy.attach`),
* the per-key routing of client accesses (``route`` / ``route_many``),
* the client-side *action* for each route kind — what a worker does with a
  ``local`` / ``replica`` / ``queue`` / ``subscribe`` / ``remote`` group of
  keys (``pull_local``, ``push_replica``, ``enqueue``, ...), plus
  ``localize``, ``pull_if_local`` and ``clock``,
* the server-side protocol: a handler per message type
  (:meth:`~ManagementPolicy.server_handlers`) and per response type
  (:meth:`~ManagementPolicy.van_handlers`),
* its inspection helpers (``current_owner``, ``replica_holders``, ...).

The techniques:

* :class:`~repro.ps.classic.StaticPolicy` — classic PS: a key is answered by
  its static partition owner, forever (§2.1).
* :class:`~repro.ps.lapse.RelocationPolicy` — Lapse's dynamic allocation (§3):
  shared-memory access to owned keys, queue-and-drain for keys relocating in,
  forward routing via home nodes, optional location caches (§3.5).
* :class:`~repro.ps.stale.StaleReplicaPolicy` — Petuum-style bounded
  staleness (§2.1): reads may be served from a replica fetched within the
  staleness bound, writes are buffered until the next clock.
* :class:`~repro.ps.replica.EagerReplicationPolicy` — replication-based
  management: hot keys (per the :mod:`repro.ps.partition` hot-key policies)
  are copied to the accessing node and kept loosely synchronized.
* :class:`~repro.ps.hybrid.HybridManagementPolicy` — the per-key composition:
  a relocation and a replication policy, wired together at four points.

Every policy carries a ``guarantees`` classification — which of the per-key
consistency properties of §3.4 / Table 1 the technique retains — so that the
consistency test-suite can assert, per key, what a policy mix preserves.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ParameterServerError,
    StorageError,
    UnsupportedOperationError,
)
from repro.ps.base import (
    ROUTE_BUFFER,
    ROUTE_LOCAL,
    ROUTE_QUEUE,
    ROUTE_REMOTE,
    ROUTE_REPLICA,
    ROUTE_SUBSCRIBE,
    KeyRows,
    NodeState,
    QueuedOp,
    Route,
    WorkerClient,
    first_missing,
    select_rows,
)
from repro.ps.futures import OperationHandle

__all__ = [
    "ROUTE_BUFFER",
    "ROUTE_LOCAL",
    "ROUTE_QUEUE",
    "ROUTE_REMOTE",
    "ROUTE_REPLICA",
    "ROUTE_SUBSCRIBE",
    "ManagementPolicy",
    "Route",
    "consistency_classification",
]

# Shared singleton routes: route objects sit on the per-operation hot path,
# so the destination-less kinds are interned once per process and the
# destination-carrying kinds once per (policy, node).
LOCAL = Route(ROUTE_LOCAL)
REPLICA = Route(ROUTE_REPLICA)
QUEUE = Route(ROUTE_QUEUE)
BUFFER = Route(ROUTE_BUFFER)

#: Handler table of a server thread: message type -> (processing cost, handler).
Handlers = Dict[type, Tuple[float, Callable[[NodeState, Any], None]]]


class ManagementPolicy:
    """One parameter-management technique, pluggable into the PS runtime.

    A policy decides *where* every key access goes, *what* the worker does
    with it (client side), *how* the server answers (server side), and reacts
    to the lifecycle events of its protocol.  The
    :class:`~repro.ps.base.ParameterServer` owns exactly one policy object;
    per-node state lives on the :class:`~repro.ps.base.NodeState` (installed
    by :meth:`attach`), so one policy instance serves all nodes.

    The defaults below are those of an owner-only technique with
    shared-memory local access: local groups are read and written in place
    after the access delay, remote groups go to the destination's server.
    A policy that returns ``replica`` or ``subscribe`` routes additionally
    implements ``pull_replica(client, handle, keys)``,
    ``push_replica(client, handle, keys, updates, rows)`` and
    ``subscribe(client, handle, destination, keys)``; one that sets
    ``buffers_pushes`` implements ``buffer_push(client, handle, keys, updates)``.
    """

    #: Technique name used in reports and docs.
    name: str = "abstract"
    #: Whether the technique implements the ``localize`` primitive (Table 2).
    supports_localize: bool = False
    #: Whether the elastic cluster runtime can migrate key ownership under
    #: this policy (requires the relocation protocol; static/replicated
    #: allocations cannot shed a node's keys).
    supports_rebalance: bool = False
    #: Whether this policy maintains replicas on surviving nodes that failure
    #: recovery can restore keys from.  Actually recovering additionally
    #: requires ``supports_rebalance`` (the failed keys must be re-homed), so
    #: only the hybrid composition recovers end-to-end.
    supports_replica_recovery: bool = False
    #: Whether failure recovery may restore this policy's keys from the
    #: durability subsystem (checkpoint + WAL replay).  Requires the
    #: ``RecoveryInstall`` handler of the relocation protocol plus
    #: ``supports_rebalance`` (recovered keys must be re-homed), so static
    #: allocations stay unrecoverable even with a WAL attached.
    supports_wal_recovery: bool = False
    #: Whether training loops must advance worker clocks for this policy's
    #: synchronization to make progress (bounded staleness; clock-triggered
    #: replication).
    needs_clock: bool = False
    #: Whether residency in the node's store *is* the local-route condition
    #: (the relocating policies).  Lets the client answer an operation whose
    #: keys are all resident in one piece, without routing key by key.
    resident_is_local: bool = False
    #: Whether pushes bypass route-group-act altogether (:meth:`buffer_push`).
    buffers_pushes: bool = False
    #: Per-key consistency properties retained (§3.4 / Table 1): ``eventual``,
    #: ``session`` (the four client-centric guarantees), ``causal``, and
    #: ``sequential`` (for synchronous operations).
    guarantees: Dict[str, bool] = {
        "eventual": True,
        "session": True,
        "causal": True,
        "sequential": True,
    }

    def __init__(self, ps: Any) -> None:
        self.ps = ps
        self._remote_routes: Dict[int, Route] = {}
        self._subscribe_routes: Dict[int, Route] = {}

    # ------------------------------------------------------------- lifecycle
    def attach(self, state: NodeState) -> None:
        """Install this policy's per-node tables on ``state`` (default: none)."""

    def attach_client(self, client: WorkerClient) -> None:
        """Install this policy's per-worker state on ``client`` (default: none)."""

    def server_handlers(self, state: NodeState) -> Handlers:
        """The server thread's handler table on ``state``'s node.

        One ``(processing_cost, handler)`` entry per message type of the
        technique's protocol, pull and push requests included; the server
        loop charges the cost, then calls ``handler(state, message)``.
        """
        raise NotImplementedError

    def van_handlers(self) -> Dict[type, Callable[[NodeState, Any], None]]:
        """Handlers for response types beyond pull/push/localize acks."""
        return {}

    def response_observer(self) -> Optional[Callable[[NodeState, Any], None]]:
        """Callback run after a pull response / push ack reached its handle."""
        return None

    # --------------------------------------------------------------- routing
    def route(self, state: NodeState, key: int, *, write: bool = False) -> Route:
        """Route one access to ``key`` issued on ``state``'s node.

        May record bookkeeping as a side effect (location-cache statistics,
        hot-key access counts, replica-install initiation), so callers must
        consult it exactly once per key occurrence, in program order.
        """
        raise NotImplementedError

    def route_many(
        self, state: NodeState, keys: Sequence[int], *, write: bool = False
    ) -> List[Route]:
        """Vectorizable batch :meth:`route` (same per-key order and effects)."""
        return [self.route(state, key, write=write) for key in keys]

    # --------------------------------------------- client side: route actions
    def after_shared_memory_access(
        self, client: WorkerClient, count: int, action: Callable[[], None]
    ) -> None:
        """Run ``action`` once ``client``'s worker has spent the shared-memory
        access delay of ``count`` node-resident values (one kernel event)."""
        cost = self.ps.cluster.cost_model
        client._complete_after(cost.local_access_time(shared_memory=True) * count, action)

    def pull_local(
        self, client: WorkerClient, handle: OperationHandle, keys: Sequence[int], whole: bool
    ) -> None:
        """Read the ``local`` group of a pull; ``whole``: it is the operation."""
        state = client.state

        def action() -> None:
            handle.complete_keys(keys, state.read_local_many(keys))

        self.after_shared_memory_access(client, len(keys), action)

    def push_local(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        keys: Sequence[int],
        updates: np.ndarray,
        rows: Optional[List[int]],
    ) -> None:
        """Apply rows ``rows`` of ``updates`` to the ``local`` group of a push.

        ``rows=None``: the group is the whole operation (row ``i`` is
        ``keys[i]``'s).
        """
        state = client.state

        def action() -> None:
            self.write_owned(
                state, keys, updates if rows is None else select_rows(updates, rows)
            )
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
        """Apply the node-resident groups of a multi-group push: the ``local``
        group and the ``replica`` group, each charged as an access of its own."""
        if local.keys:
            self.push_local(client, handle, local.keys, updates, local.rows)
        if replica.keys:
            self.push_replica(client, handle, replica.keys, updates, replica.rows)

    def write_owned(self, state: NodeState, keys: Sequence[int], updates: np.ndarray) -> None:
        """Apply one update row per owned key — the one seam every owner-side
        write of a technique goes through (replication hangs its subscriber
        broadcasts here)."""
        state.write_local_many(keys, updates)

    def pull_remote(
        self, client: WorkerClient, handle: OperationHandle, destination: int, keys: Sequence[int]
    ) -> None:
        """Fetch the ``remote`` group of a pull from ``destination``'s server."""
        self.ps.send_request(client.node_id, handle, destination, keys, True)

    def enqueue(self, state: NodeState, key: int, op: QueuedOp) -> None:
        """Park ``op`` behind the in-flight arrival of ``key`` (``queue`` route)."""
        raise ParameterServerError(f"{self.name} policy has no in-flight queue for key {key}")

    def issue_localize(
        self, client: WorkerClient, handle: OperationHandle, keys: Tuple[int, ...]
    ) -> None:
        """Start relocating ``keys`` to the client's node (Table 2)."""
        raise UnsupportedOperationError(
            f"{type(self.ps).__name__} allocates parameters statically and does "
            "not support localize"
        )

    def pull_if_local(self, client: WorkerClient, key: int) -> Optional[np.ndarray]:
        """Value of ``key`` if this node can answer without a message, else None."""
        state = client.state
        if state.storage.contains(key):
            state.metrics.key_reads_local += 1
            state.metrics.pulls_local += 1
            recorder = client._trace
            if recorder is not None:
                recorder.local_read(key, self.ps.sim._now)
            return state.read_local(key)
        return None

    def clock(self, client: WorkerClient) -> Generator:
        """Advance ``client``'s clock; no synchronization by default."""
        client._clock += 1
        client.state.metrics.clock_advances += 1
        return
        yield  # pragma: no cover - makes this function a generator

    def fusion_guard(self, state: NodeState) -> Any:
        """Which resident keys workers on ``state``'s node may fuse.

        ``False``: none — local access has observers beyond storage, latches
        and metrics (see :class:`~repro.ps.base.FusedLocalSteps`).  ``None``:
        every resident key.  A callable ``key -> truthy``: every resident key
        it does not flag.
        """
        return False

    # ----------------------------------------------------------- server side
    def handle_read(
        self, state: NodeState, keys: Sequence[int], what: str = "asked for"
    ) -> np.ndarray:
        """Read managed keys on the server, naming the first missing key."""
        try:
            return state.read_local_many(keys)
        except StorageError:
            bad = first_missing(state, keys)
            if bad is None:
                raise
            raise self.not_owned(state, bad, what) from None

    def handle_write(
        self,
        state: NodeState,
        keys: Sequence[int],
        updates: np.ndarray,
        what: str = "asked to update",
    ) -> None:
        """Apply cumulative updates on the server, naming the first missing key."""
        try:
            state.write_local_many(keys, updates)
        except StorageError:
            bad = first_missing(state, keys)
            if bad is None:
                raise
            raise self.not_owned(state, bad, what) from None

    def not_owned(self, state: NodeState, key: int, what: str) -> ParameterServerError:
        """The error for a server message naming a ``key`` this node does not own."""
        return ParameterServerError(
            f"{self.ps.name} PS node {state.node_id} {what} key {key} it does not own"
        )

    # -------------------------------------------------------------- lifecycle
    def on_sync(self, state: NodeState, clock: Optional[int] = None) -> None:
        """Run one synchronization round (policies that keep replicas)."""

    # ------------------------------------------------------------- inspection
    def current_owner(self, key: int) -> int:
        """Node that currently owns ``key`` (static partition unless it moves)."""
        return self.ps.partitioner.node_of(key)

    def current_owners(self, keys: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`current_owner`: one node id per key."""
        return self.ps.partitioner.nodes_of(keys)

    def replica_holders(self, key: int) -> Tuple[int, ...]:
        """Nodes currently holding a replica of ``key`` (outside simulation)."""
        return ()

    def key_management(self, key: int) -> str:
        """Name of the technique that currently manages ``key``."""
        return self.name

    def key_guarantees(self, key: int) -> Dict[str, bool]:
        """Table-1 classification of ``key`` under this policy (see §3.4)."""
        return dict(self.guarantees)

    # -------------------------------------------------------------- interning
    def _remote(self, destination: int) -> Route:
        route = self._remote_routes.get(destination)
        if route is None:
            route = self._remote_routes[destination] = Route(ROUTE_REMOTE, destination)
        return route

    def _subscribe(self, destination: int) -> Route:
        route = self._subscribe_routes.get(destination)
        if route is None:
            route = self._subscribe_routes[destination] = Route(
                ROUTE_SUBSCRIBE, destination
            )
        return route


def consistency_classification(policy: ManagementPolicy) -> Dict[str, bool]:
    """Table-1 row (§3.4) retained by ``policy``, as a property → bool map."""
    return dict(policy.guarantees)
