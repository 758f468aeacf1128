"""Real multi-core execution backend: multiprocessing behind the PS API.

The simulated backend executes every worker and server as a generator on one
discrete-event kernel; this module executes them as *real* operating-system
processes on real cores, behind the same API:

* one **server process** per node runs a message loop over that node's
  command queue (a :class:`multiprocessing.Queue`), dispatching the same wire
  messages (:mod:`repro.ps.messages`) the simulator sends,
* one **worker process** per worker drives the trainer generator, performing
  compute yields as actual busy-wait CPU time and blocking on replies,
* dense parameter shards live in shared memory
  (:class:`repro.backend.shm.SharedDenseStorage`), so co-located workers
  access owned keys without a server round trip — the paper's shared-memory
  local access (§3.3) on actual shared pages,
* key ownership moves through a shared-memory location directory
  (:class:`repro.backend.shm.SharedDirectory`), the real-backend counterpart
  of the per-home-node location tables (§3.5).

The management policies run unchanged: :class:`~repro.ps.classic.StaticPolicy`
and :class:`~repro.ps.lapse.RelocationPolicy` make the same per-key routing
decisions against a :class:`RealNodeState`, which exposes the same storage,
latch, and metric surfaces as the simulated :class:`~repro.ps.base.NodeState`
(and adapts ``home_location`` to the shared directory).

Semantics vs the simulator — *statistical equivalence*: true concurrency
makes message interleavings nondeterministic, so runs are not bit-identical
to the simulation.  They are equivalent in the aggregate: pushes are
cumulative (additive updates commute), relocation chases keys through
``last_transfer`` forwarding so no update is ever lost, and access/relocation
counters that depend only on the access pattern (pulls/pushes, key reads and
writes, localize calls, relocations) match the simulator exactly for
barrier-synchronized workloads like blocked matrix factorization (§4.1).
Timing-dependent counters (server messages, cache hits/misses, queueing) may
differ and are excluded from equivalence checks.

Op-id routing: the wire messages carry no reply queue, so each worker encodes
its identity in the operation id (``op_id = worker_id * OP_STRIDE + seq``);
servers route replies to ``reply_queues[op_id // OP_STRIDE]``.

Directory maintenance differs from the simulator in *when* the owner record
changes: the simulator's home node updates its table when it processes the
localize request, while the real backend updates the directory when the new
owner **installs** the transfer.  Until then the directory names the old
owner, whose ``last_transfer`` record forwards stragglers — per-producer FIFO
of the command queues guarantees the transfer arrives at the new owner before
any message the old owner forwards after it.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
import traceback
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.shm import DirectoryHomeView, SharedDenseStorage, SharedDirectory
from repro.config import ClusterConfig, ParameterServerConfig, derive_seed, message_size
from repro.errors import (
    ParameterServerError,
    RelocationError,
    UnsupportedOperationError,
)
from repro.ps.base import (
    ROUTE_LOCAL,
    ROUTE_REMOTE,
    KeyRows,
    NodeState,
    WorkerClient,
    copy_rows,
    select_rows,
)
from repro.ps.classic import StaticPolicy
from repro.ps.lapse import RelocationPolicy
from repro.ps.messages import (
    LocalizeAck,
    LocalizeRequest,
    PullRequest,
    PullResponse,
    PushAck,
    PushRequest,
    RelocateInstruction,
    RelocationTransfer,
)
from repro.ps.metrics import PSMetrics
from repro.ps.partition import make_partitioner
from repro.ps.storage import LatchTable
from repro.simnet import NetworkStats, WallClock

__all__ = [
    "REAL_BACKEND_SYSTEMS",
    "RealNodeState",
    "RealParameterServer",
    "RealWorkerClient",
]

#: Op-id stride per worker: ids below the stride belong to worker 0, etc.
OP_STRIDE = 1 << 32

#: Post-run drain rounds.  Fire-and-forget pushes may still be in flight when
#: the workers exit, and a push can be forwarded up to twice (stale location →
#: home → owner, Figure 5d).  Each round is a full barrier over all server
#: processes, so three rounds cover the two forwarding hops plus the
#: cross-producer reordering window of the queue feeder threads.
DRAIN_ROUNDS = 3

#: Systems the real backend implements, as accepted by
#: :func:`repro.experiments.runner.make_parameter_server`.
REAL_BACKEND_SYSTEMS = ("classic", "classic_fast_local", "lapse")

#: system -> (report name, policy class, shared-memory local access).
#: Names match the simulated variants so reports line up across backends.
_SYSTEM_SPECS = {
    "classic": ("classic-ps-lite", StaticPolicy, False),
    "classic_fast_local": ("classic+sharedmem", StaticPolicy, True),
    "lapse": ("lapse", RelocationPolicy, True),
}


class _DrainProbe:
    """Flush marker circulated through the command queues after a run."""

    def __init__(self, round_number: int) -> None:
        self.round_number = round_number


class _Shutdown:
    """Sentinel that terminates a server process's message loop."""


def _busy_wait(seconds: float) -> None:
    """Burn ``seconds`` of CPU time (the real counterpart of a compute yield).

    Sleeping would free the core and overstate multi-process scaling; training
    compute occupies a core, so the backend does too.
    """
    if seconds <= 0.0:
        return
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _release_shared(storages: List[SharedDenseStorage], directory: SharedDirectory) -> None:
    """Detach every shared block (finalizer target; must not reference the PS)."""
    for storage in storages:
        storage.detach()
    directory.detach()


class _RealNetwork:
    """Traffic-counter holder mirroring ``ParameterServer.network.stats``."""

    def __init__(self) -> None:
        self.stats = NetworkStats()


class _CompletedHandle:
    """Operation handle of the real backend: always complete.

    Worker clients block until an operation finishes, so by the time user code
    sees the handle the values are already there.  The sync/async split of the
    API is preserved — ``pull_async`` still returns immediately *per the API
    contract* — but ``done`` is always True and waiting is free.
    """

    __slots__ = ("op_type", "keys", "_values")

    done = True

    def __init__(self, op_type: str, keys: Tuple[int, ...], values: Optional[np.ndarray]) -> None:
        self.op_type = op_type
        self.keys = keys
        self._values = values

    def values(self) -> np.ndarray:
        if self._values is None:
            raise ParameterServerError(f"{self.op_type} operations carry no values")
        return self._values

    def first_value(self) -> np.ndarray:
        return self.values()[0]

    @property
    def completion_event(self):
        raise ParameterServerError(
            "real-backend handles complete synchronously and have no event"
        )


class RealNodeState:
    """Per-node state of the real backend: shared storage, latches, metrics.

    Exposes the exact access surface of the simulated
    :class:`~repro.ps.base.NodeState` (storage/latches/metrics plus the
    ``read_local*``/``write_local*`` methods, which are reused verbatim), so
    the management policies and their ``handle_read``/``handle_write`` error
    contracts run unchanged.  After a fork, each process owns a private copy
    of this object whose ``storage`` still maps the shared blocks.
    """

    # The simulated implementations only touch self.storage / self.latches,
    # so they transplant directly.
    read_local = NodeState.read_local
    write_local = NodeState.write_local
    read_local_many = NodeState.read_local_many
    write_local_many = NodeState.write_local_many

    def __init__(self, ps: "RealParameterServer", node_id: int) -> None:
        self.ps = ps
        self.node_id = node_id
        # Tracing buffer (a repro.obs.NodeTrace), installed by the tracer when
        # tracing is enabled — same contract as the simulated NodeState.
        self.trace: Optional[Any] = None
        self.metrics = PSMetrics()
        self.latches = LatchTable(ps.ps_config.num_latches)
        self.storage = SharedDenseStorage(
            ps.ps_config.num_keys, ps.ps_config.value_length
        )
        policy = ps.management_policy
        policy.attach(self)
        if policy.supports_localize:
            # The home-node location table *is* the shared directory here.
            self.home_location = DirectoryHomeView(ps.directory, ps.partitioner, node_id)


class RealWorkerClient(WorkerClient):
    """PS client bound to one worker process.

    Reuses the simulated client's key checking, update coercion, chunking,
    and sync-over-async wrappers; the issue paths are reimplemented as
    blocking calls over the command/reply queues, with the same per-key
    routing (via the management policy) and the same metric accounting as the
    simulated clients.
    """

    def __init__(
        self,
        ps: "RealParameterServer",
        state: RealNodeState,
        worker_id: int,
        local_worker_id: int,
    ) -> None:
        self.ps = ps
        self.state = state
        self.worker_id = worker_id
        self.local_worker_id = local_worker_id
        self.node_id = state.node_id
        # Same stream derivation as Node.worker_rng, so data shuffles match
        # the simulator run for run-vs-run comparisons.
        self.rng = np.random.default_rng(
            derive_seed(ps.cluster.seed, state.node_id, local_worker_id + 1)
        )
        self._clock = 0
        self._op_counter = 0
        self._barrier = None  # installed by run_workers for the run's cohort
        self._reply_queue = ps.reply_queues[worker_id]
        self._net = NetworkStats()
        policy = ps.management_policy
        self._cache_locations = ps.ps_config.location_caches and policy.supports_localize

    # ------------------------------------------------------------------ helpers
    def _next_op_id(self) -> int:
        self._op_counter += 1
        return self.worker_id * OP_STRIDE + self._op_counter

    def _reply(self, op_id: int) -> Any:
        """Next reply for ``op_id`` (the client has one operation in flight)."""
        message = self._reply_queue.get()
        if message.op_id != op_id:
            raise ParameterServerError(
                f"worker {self.worker_id} received reply for op {message.op_id} "
                f"while waiting for op {op_id}"
            )
        return message

    def _note_responder(self, message: Any) -> None:
        """Location-cache learning, mirroring the simulator's van hook."""
        if not self._cache_locations:
            return
        responder = message.responder_node
        if responder == self.node_id:
            return
        cache = self.state.location_cache
        for key in message.keys:
            cache[key] = responder

    # --------------------------------------------------------------- async API
    def pull_async(self, keys: Sequence[int]) -> _CompletedHandle:
        trace = self._trace
        if trace is None:
            return self._pull_async_impl(keys)
        clock = self.ps.clock
        issued = clock.now
        handle = self._pull_async_impl(keys)
        self._record_op(trace, "pull", handle.keys, issued, clock.now)
        return handle

    def _pull_async_impl(self, keys: Sequence[int]) -> _CompletedHandle:
        keys = self._check_keys(keys)
        ps = self.ps
        state = self.state
        metrics = state.metrics
        policy = ps.management_policy
        local_items: List[Tuple[int, int]] = []
        remote_groups: Dict[int, List[int]] = defaultdict(list)
        pending_rows: Dict[int, List[int]] = defaultdict(list)
        for row, (key, route) in enumerate(zip(keys, policy.route_many(state, keys))):
            if route.kind == ROUTE_LOCAL:
                local_items.append((key, row))
            elif route.kind == ROUTE_REMOTE:
                remote_groups[route.destination].append(key)
                pending_rows[key].append(row)
            else:
                raise ParameterServerError(
                    f"real backend cannot route kind {route.kind!r} (key {key})"
                )
        # Same op-level and per-key accounting as the simulated clients: the
        # operation counts as remote iff routing found a remote destination.
        if local_items:
            metrics.key_reads_local += len(local_items)
        for dest_keys in remote_groups.values():
            metrics.key_reads_remote += len(dest_keys)
        if remote_groups:
            metrics.pulls_remote += 1
        else:
            metrics.pulls_local += 1
        values = np.empty((len(keys), self.value_length), dtype=np.float64)
        send_groups: Dict[int, List[int]] = dict(remote_groups)
        if local_items:
            if ps._shared_local:
                misses = self._pull_shared_local(local_items, values)
                for key, row in misses:
                    # Relocated away between routing and the locked read;
                    # re-route without extra counters (the simulator's
                    # mid-access reissue behaves identically).
                    send_groups.setdefault(policy.route_destination(state, key), []).append(key)
                    pending_rows[key].append(row)
            else:
                # PS-Lite-style IPC: local keys go through the local server.
                group = send_groups.setdefault(self.node_id, [])
                for key, row in local_items:
                    group.append(key)
                    pending_rows[key].append(row)
        outstanding = 0
        op_id = self._next_op_id()
        for destination, dest_keys in send_groups.items():
            for chunk in self._chunks(dest_keys):
                request = PullRequest(op_id, tuple(chunk), self.node_id, self.worker_id)
                ps._send_command(
                    self._net, self.node_id, destination, request, message_size(len(chunk), 0)
                )
                outstanding += len(chunk)
        while outstanding:
            message = self._reply(op_id)
            if not isinstance(message, PullResponse):
                raise ParameterServerError(
                    f"worker {self.worker_id} expected a PullResponse, got {message!r}"
                )
            self._note_responder(message)
            for index, key in enumerate(message.keys):
                values[pending_rows[key].pop(0)] = message.values[index]
                outstanding -= 1
        return _CompletedHandle("pull", keys, values)

    def _pull_shared_local(
        self, local_items: List[Tuple[int, int]], values: np.ndarray
    ) -> List[Tuple[int, int]]:
        """Read locally-routed keys through shared memory; return the misses."""
        state = self.state
        local_keys = [key for key, _ in local_items]
        with self.ps.node_locks[self.node_id]:
            flags = state.storage.contains_flags(local_keys)
            present_keys: List[int] = []
            present_rows: List[int] = []
            misses: List[Tuple[int, int]] = []
            for (key, row), resident in zip(local_items, flags):
                if resident:
                    present_keys.append(key)
                    present_rows.append(row)
                else:
                    misses.append((key, row))
            if present_keys:
                values[present_rows] = state.read_local_many(present_keys)
        return misses

    def push_async(
        self, keys: Sequence[int], updates: Any, needs_ack: bool = False
    ) -> _CompletedHandle:
        trace = self._trace
        if trace is None:
            return self._push_async_impl(keys, updates, needs_ack)
        clock = self.ps.clock
        issued = clock.now
        handle = self._push_async_impl(keys, updates, needs_ack)
        self._record_op(trace, "push", handle.keys, issued, clock.now)
        return handle

    def _push_async_impl(
        self, keys: Sequence[int], updates: Any, needs_ack: bool = False
    ) -> _CompletedHandle:
        keys = self._check_keys(keys)
        updates = self._prepare_updates(keys, updates)
        ps = self.ps
        state = self.state
        metrics = state.metrics
        policy = ps.management_policy
        local_items: List[Tuple[int, int]] = []
        send_groups: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for row, (key, route) in enumerate(
            zip(keys, policy.route_many(state, keys, write=True))
        ):
            if route.kind == ROUTE_LOCAL:
                local_items.append((key, row))
            elif route.kind == ROUTE_REMOTE:
                send_groups[route.destination].append((key, row))
            else:
                raise ParameterServerError(
                    f"real backend cannot route kind {route.kind!r} (key {key})"
                )
        if local_items:
            metrics.key_writes_local += len(local_items)
        for items in send_groups.values():
            metrics.key_writes_remote += len(items)
        if send_groups:
            metrics.pushes_remote += 1
        else:
            metrics.pushes_local += 1
        if local_items:
            if ps._shared_local:
                misses = self._push_shared_local(local_items, updates)
                for item in misses:
                    send_groups[policy.route_destination(state, item[0])].append(item)
            else:
                send_groups[self.node_id].extend(local_items)
        outstanding = 0
        op_id = self._next_op_id()
        for destination, items in send_groups.items():
            for chunk_items in self._chunks(items):
                chunk = [key for key, _ in chunk_items]
                chunk_updates = copy_rows(updates, [row for _, row in chunk_items])
                request = PushRequest(
                    op_id, tuple(chunk), chunk_updates, self.node_id, self.worker_id, needs_ack
                )
                ps._send_command(
                    self._net,
                    self.node_id,
                    destination,
                    request,
                    message_size(len(chunk), chunk_updates.size),
                )
                outstanding += len(chunk)
        if needs_ack:
            while outstanding:
                message = self._reply(op_id)
                if not isinstance(message, PushAck):
                    raise ParameterServerError(
                        f"worker {self.worker_id} expected a PushAck, got {message!r}"
                    )
                self._note_responder(message)
                outstanding -= len(message.keys)
        return _CompletedHandle("push", keys, None)

    def _push_shared_local(
        self, local_items: List[Tuple[int, int]], updates: np.ndarray
    ) -> List[Tuple[int, int]]:
        """Apply locally-routed updates through shared memory; return misses."""
        state = self.state
        local_keys = [key for key, _ in local_items]
        with self.ps.node_locks[self.node_id]:
            flags = state.storage.contains_flags(local_keys)
            present_keys: List[int] = []
            present_rows: List[int] = []
            misses: List[Tuple[int, int]] = []
            for (key, row), resident in zip(local_items, flags):
                if resident:
                    present_keys.append(key)
                    present_rows.append(row)
                else:
                    misses.append((key, row))
            if present_keys:
                state.write_local_many(present_keys, select_rows(updates, present_rows))
        return misses

    def localize_async(self, keys: Sequence[int]) -> _CompletedHandle:
        trace = self._trace
        if trace is None:
            return self._localize_async_impl(keys)
        clock = self.ps.clock
        issued = clock.now
        handle = self._localize_async_impl(keys)
        self._record_op(trace, "localize", handle.keys, issued, clock.now)
        return handle

    def _localize_async_impl(self, keys: Sequence[int]) -> _CompletedHandle:
        keys = self._check_keys(keys)
        ps = self.ps
        policy = ps.management_policy
        if not policy.supports_localize:
            raise UnsupportedOperationError(
                f"{type(ps).__name__} allocates parameters statically and does "
                "not support localize"
            )
        state = self.state
        metrics = state.metrics
        metrics.localize_calls += 1
        metrics.localized_keys += len(keys)
        started = time.monotonic()
        unique = list(dict.fromkeys(keys))
        with ps.node_locks[self.node_id]:
            flags = state.storage.contains_flags(unique)
        need = [key for key, resident in zip(unique, flags) if not resident]
        if not need:
            return _CompletedHandle("localize", keys, None)
        op_id = self._next_op_id()
        home_groups: Dict[int, List[int]] = defaultdict(list)
        for key in need:
            home_groups[ps.home_node(key)].append(key)
        pending = 0
        for home, home_keys in home_groups.items():
            if home == self.node_id:
                # The directory is shared memory: apply the home-side logic
                # directly, saving message 1 of the protocol (as the
                # simulator does for requests homed at the requester).
                pending += self._localize_at_home(op_id, home_keys)
            else:
                request = LocalizeRequest(op_id, tuple(home_keys), self.node_id)
                ps._send_command(
                    self._net, self.node_id, home, request, message_size(len(home_keys), 0)
                )
                pending += len(home_keys)
        acked = 0
        while acked < pending:
            message = self._reply(op_id)
            if not isinstance(message, LocalizeAck):
                raise ParameterServerError(
                    f"worker {self.worker_id} expected a LocalizeAck, got {message!r}"
                )
            acked += len(message.keys)
        if pending:
            # The simulator records per-key request-to-install times on the
            # installing server; here the worker observes completion, which
            # aggregates to the same per-key relocation latencies.
            elapsed = time.monotonic() - started
            for _ in range(pending):
                metrics.relocation_time.record(elapsed)
        return _CompletedHandle("localize", keys, None)

    def _localize_at_home(self, op_id: int, keys: List[int]) -> int:
        """Home-side half of a localize for keys homed at this worker's node.

        Returns the number of keys that actually need a transfer (keys the
        directory already places at this node complete without one).
        """
        ps = self.ps
        directory = ps.directory
        with directory.lock:
            owners = directory.owners_of(keys)
        owner_groups: Dict[int, List[int]] = defaultdict(list)
        pending = 0
        for key, owner in zip(keys, owners.tolist()):
            if owner == self.node_id:
                continue
            owner_groups[owner].append(key)
            pending += 1
        for owner, owner_keys in owner_groups.items():
            instruction = RelocateInstruction(
                op_id, tuple(owner_keys), self.node_id, self.node_id
            )
            ps._send_command(
                self._net, self.node_id, owner, instruction, message_size(len(owner_keys), 0)
            )
        return pending

    # --------------------------------------------------------------- tracing
    def _record_op(
        self, trace: Any, op_type: str, keys: Any, issued: float, completed: float
    ) -> None:
        """Record one wall-clock operation span plus its heatmap accesses.

        The wrapped ``*_async`` methods block, so issue and completion bracket
        the whole operation; timestamps come from the server's
        :class:`~repro.simnet.clock.WallClock` (seconds since construction,
        comparable across the forked worker processes).
        """
        trace.op(op_type, self.worker_id, issued, completed, len(keys))
        if trace.heat_interval is not None:
            for key in keys:
                trace.heat_key(int(key), issued)

    # ----------------------------------------------------------- local access
    def pull_if_local(self, key: int) -> Optional[np.ndarray]:
        key = int(self._check_keys([key])[0])
        state = self.state
        with self.ps.node_locks[self.node_id]:
            if state.storage.contains(key):
                state.metrics.key_reads_local += 1
                state.metrics.pulls_local += 1
                trace = self._trace
                if trace is not None:
                    trace.heat_key(key, self.ps.clock.now)
                return state.read_local(key)
        return None

    def fused_local_steps(self):
        """No fusion: real local accesses are already direct memory accesses.

        Fusion exists to skip simulation-kernel events; the real backend has
        no kernel to skip, so the trainers' slow path *is* the fast path.
        """
        return None

    # ------------------------------------------------------------ coordination
    def barrier(self) -> Generator:
        """Block until every worker of the current run reached this barrier."""
        barrier = self._barrier
        if barrier is None:
            raise ParameterServerError(
                "barrier() is only available inside run_workers on the real backend"
            )
        barrier.wait()
        return None
        yield  # pragma: no cover - makes this function a generator

    # ------------------------------------------------------------------ waiting
    def wait(self, handle: _CompletedHandle) -> Generator:
        """Wait for an operation (always already complete on this backend)."""
        return handle
        yield  # pragma: no cover - makes this function a generator

    def wait_all(self, handles) -> Generator:
        """Wait for all of ``handles`` (always already complete)."""
        for _ in handles:
            pass
        return None
        yield  # pragma: no cover - makes this function a generator


class RealParameterServer:
    """Parameter server executing on real processes and shared memory.

    Construction builds the shared state (storage shards, directory, queues)
    in the parent; :meth:`run_workers` forks one server process per node and
    one process per worker, waits for the workers, drains in-flight messages,
    and merges the children's metrics and traffic counters back into the
    parent's per-node states.  Between runs (epochs) the parent can read and
    write parameters directly — the shared blocks persist across runs.

    Use as a context manager (or call :meth:`shutdown`) to release the
    shared-memory blocks.
    """

    client_class = RealWorkerClient
    #: Matches the ``ParameterServer`` attribute; the elastic runtime and
    #: durability subsystem check these and are not supported here.
    membership = None
    durability = None
    #: Installed when a :class:`~repro.obs.TraceConfig` is passed (wall-clock
    #: time domain; see :mod:`repro.obs`).
    tracer = None

    def __init__(
        self,
        system: str,
        cluster: ClusterConfig,
        ps_config: Optional[ParameterServerConfig] = None,
        timeout: float = 300.0,
        trace: Optional[Any] = None,
    ) -> None:
        if system not in _SYSTEM_SPECS:
            raise ParameterServerError(
                f"the real backend does not implement system {system!r}; "
                f"choose one of {', '.join(REAL_BACKEND_SYSTEMS)}"
            )
        if "fork" not in mp.get_all_start_methods():
            raise ParameterServerError(
                "the real backend requires the fork start method (POSIX only)"
            )
        name, policy_class, shared_local = _SYSTEM_SPECS[system]
        self.system = system
        self.name = name
        self.policy_class = policy_class
        self._shared_local = shared_local
        self.cluster = cluster
        ps_config = ps_config or ParameterServerConfig()
        if not ps_config.dense_storage:
            raise ParameterServerError(
                "the real backend requires dense storage (fixed-layout "
                "shared-memory slabs)"
            )
        if ps_config.shared_memory_local_access != shared_local:
            import dataclasses

            ps_config = dataclasses.replace(
                ps_config, shared_memory_local_access=shared_local
            )
        self.ps_config = ps_config
        self.timeout = timeout
        self.clock = WallClock()
        self.partitioner = make_partitioner(
            "range", ps_config.num_keys, cluster.num_nodes
        )
        context = mp.get_context("fork")
        self._ctx = context
        self.node_locks = [context.Lock() for _ in range(cluster.num_nodes)]
        keys = np.arange(ps_config.num_keys, dtype=np.int64)
        self.directory = SharedDirectory(
            ps_config.num_keys, self.partitioner.nodes_of(keys), context.Lock()
        )
        self._management_policy = None
        self.states: List[RealNodeState] = [
            RealNodeState(self, node) for node in range(cluster.num_nodes)
        ]
        self.command_queues = [context.Queue() for _ in range(cluster.num_nodes)]
        self.reply_queues = [context.SimpleQueue() for _ in range(cluster.total_workers)]
        self.parent_queue = context.Queue()
        self.network = _RealNetwork()
        self._initialize_parameters()
        self._clients: Dict[Tuple[int, int], RealWorkerClient] = {}
        if trace is not None and trace.enabled:
            from repro.obs import Tracer

            # Wall-clock time domain: op spans are recorded by the worker
            # clients (server/network spans are simulator-only).
            self.tracer = Tracer(self, trace, time_domain="wall")
        self._finalizer = weakref.finalize(
            self, _release_shared, [state.storage for state in self.states], self.directory
        )

    def _initialize_parameters(self) -> None:
        num_keys = self.ps_config.num_keys
        keys = np.arange(num_keys, dtype=np.int64)
        owners = self.partitioner.nodes_of(keys)
        values = np.zeros((num_keys, self.ps_config.value_length), dtype=np.float64)
        for node in range(self.cluster.num_nodes):
            node_keys = keys[owners == node]
            if node_keys.size:
                self.states[node].storage.insert_many(node_keys, values[node_keys])

    # ------------------------------------------------------------------ policy
    @property
    def management_policy(self):
        if self._management_policy is None:
            self._management_policy = self.policy_class(self)
        return self._management_policy

    # ---------------------------------------------------------------- clients
    def client(self, node: int, local_worker: int) -> RealWorkerClient:
        """Return (and cache) the client for worker ``local_worker`` on ``node``."""
        key = (node, local_worker)
        if key not in self._clients:
            worker_id = self.cluster.worker_id(node, local_worker)
            client = self.client_class(
                self, self.states[node], worker_id, local_worker
            )
            tracer = self.tracer
            if tracer is not None and tracer.config.ops:
                client._trace = self.states[node].trace
            self._clients[key] = client
        return self._clients[key]

    def clients(self) -> List[RealWorkerClient]:
        """Return clients for every worker in the cluster, ordered by worker id."""
        result = []
        for node in range(self.cluster.num_nodes):
            for local_worker in range(self.cluster.workers_per_node):
                result.append(self.client(node, local_worker))
        return result

    # ------------------------------------------------------------------- runs
    def run_workers(
        self,
        worker_fn: Callable[[RealWorkerClient, int], Generator],
        until: Optional[float] = None,
        clients: Optional[Sequence[RealWorkerClient]] = None,
    ) -> List[Any]:
        """Run ``worker_fn`` as one OS process per worker; returns their values.

        Forks one server process per node plus the worker processes (fork, so
        ``worker_fn`` and its closure need not be picklable), waits for all
        workers, drains in-flight fire-and-forget messages, shuts the servers
        down, and merges all child metrics/traffic into the parent states.
        """
        if until is not None:
            raise ParameterServerError(
                "the real backend runs on wall-clock time and has no "
                "simulated-time cutoff"
            )
        client_list = list(clients) if clients is not None else self.clients()
        if not client_list:
            raise ParameterServerError("run_workers requires at least one client")
        barrier = self._ctx.Barrier(len(client_list))
        for client in client_list:
            client._barrier = barrier
        num_nodes = self.cluster.num_nodes
        processes: List[Any] = []
        try:
            for node in range(num_nodes):
                process = self._ctx.Process(
                    target=self._server_main, args=(node,), name=f"server-{node}", daemon=True
                )
                process.start()
                processes.append(process)
            for client in client_list:
                process = self._ctx.Process(
                    target=self._worker_main,
                    args=(client, worker_fn),
                    name=f"worker-{client.worker_id}",
                    daemon=True,
                )
                process.start()
                processes.append(process)
            deadline = time.monotonic() + self.timeout
            results: Dict[int, Any] = {}
            pending_workers = {client.worker_id for client in client_list}
            while pending_workers:
                report = self._collect(deadline, processes)
                if report[0] == "worker_done":
                    _, worker_id, value, metrics, net, spans = report
                    results[worker_id] = value
                    node = self.cluster.node_of_worker(worker_id)
                    self._merge_metrics(node, metrics)
                    self._merge_net(net)
                    if spans is not None:
                        self.states[node].trace.merge_from(spans)
                    pending_workers.discard(worker_id)
                else:
                    self._unexpected_report(report)
            for round_number in range(DRAIN_ROUNDS):
                for node in range(num_nodes):
                    self.command_queues[node].put(_DrainProbe(round_number))
                acked: set = set()
                while len(acked) < num_nodes:
                    report = self._collect(deadline, processes)
                    if report[0] == "drain" and report[2] == round_number:
                        acked.add(report[1])
                    else:
                        self._unexpected_report(report)
            for node in range(num_nodes):
                self.command_queues[node].put(_Shutdown())
            done_nodes: set = set()
            while len(done_nodes) < num_nodes:
                report = self._collect(deadline, processes)
                if report[0] == "server_done":
                    _, node, metrics, net = report
                    self._merge_metrics(node, metrics)
                    self._merge_net(net)
                    done_nodes.add(node)
                else:
                    self._unexpected_report(report)
            for process in processes:
                process.join(timeout=max(0.0, deadline - time.monotonic()) + 5.0)
        except BaseException:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            raise
        finally:
            for client in client_list:
                client._barrier = None
        return [results[client.worker_id] for client in client_list]

    def _collect(self, deadline: float, processes: List[Any]) -> Tuple:
        """Next child report, watching for died children and the deadline."""
        while True:
            try:
                return self.parent_queue.get(timeout=0.25)
            except queue_module.Empty:
                if time.monotonic() > deadline:
                    for process in processes:
                        if process.is_alive():
                            process.terminate()
                    raise ParameterServerError(
                        f"real backend timed out after {self.timeout:.0f}s "
                        "(deadlock or overload)"
                    )
                for process in processes:
                    if process.exitcode not in (None, 0):
                        raise ParameterServerError(
                            f"real backend process {process.name} died with "
                            f"exit code {process.exitcode}"
                        )

    def _unexpected_report(self, report: Tuple) -> None:
        if report[0] == "error":
            raise ParameterServerError(
                f"real backend process {report[1]} failed:\n{report[2]}"
            )
        raise ParameterServerError(f"unexpected child report {report[0]!r}")

    def _merge_metrics(self, node: int, metrics: PSMetrics) -> None:
        self.states[node].metrics = self.states[node].metrics.merge(metrics)

    def _merge_net(self, net: NetworkStats) -> None:
        stats = self.network.stats
        stats.messages_sent += net.messages_sent
        stats.remote_messages += net.remote_messages
        stats.local_messages += net.local_messages
        stats.bytes_sent += net.bytes_sent
        stats.delivery_events += net.delivery_events
        for channel, count in net.per_channel_messages.items():
            stats.per_channel_messages[channel] = (
                stats.per_channel_messages.get(channel, 0) + count
            )

    # -------------------------------------------------------------- messaging
    def _count_message(self, net: NetworkStats, src: int, dst: int, size: int) -> None:
        net.messages_sent += 1
        net.delivery_events += 1
        if src != dst:
            net.remote_messages += 1
            net.bytes_sent += size
            channel = net.per_channel_messages
            channel[(src, dst)] = channel.get((src, dst), 0) + 1
        else:
            net.local_messages += 1

    def _send_command(
        self, net: NetworkStats, src: int, dst: int, message: Any, size: int
    ) -> None:
        """Send ``message`` to the server process of node ``dst``."""
        self._count_message(net, src, dst, size)
        self.command_queues[dst].put(message)

    def _reply_to_worker(
        self, net: NetworkStats, src_node: int, op_id: int, message: Any, size: int
    ) -> None:
        """Route a reply to the worker encoded in ``op_id``."""
        worker_id = op_id // OP_STRIDE
        dst_node = self.cluster.node_of_worker(worker_id)
        self._count_message(net, src_node, dst_node, size)
        self.reply_queues[worker_id].put(message)

    # ---------------------------------------------------------- server process
    def _server_main(self, node_id: int) -> None:
        state = self.states[node_id]
        # The fork copied the parent's (already merged) metrics; this
        # process's contribution is shipped back and merged separately.
        state.metrics = PSMetrics()
        net = NetworkStats()
        commands = self.command_queues[node_id]
        try:
            while True:
                message = commands.get()
                if isinstance(message, _DrainProbe):
                    self.parent_queue.put(("drain", node_id, message.round_number))
                    continue
                if isinstance(message, _Shutdown):
                    self.parent_queue.put(("server_done", node_id, state.metrics, net))
                    return
                state.metrics.server_messages += 1
                if isinstance(message, PullRequest):
                    self._serve_access(state, net, message, is_pull=True)
                elif isinstance(message, PushRequest):
                    self._serve_access(state, net, message, is_pull=False)
                elif isinstance(message, LocalizeRequest):
                    self._serve_localize(state, net, message)
                elif isinstance(message, RelocateInstruction):
                    self._serve_instruction(state, net, message)
                elif isinstance(message, RelocationTransfer):
                    self._serve_transfer(state, net, message)
                else:
                    raise ParameterServerError(
                        f"{self.name} PS server on node {node_id} received "
                        f"unexpected message {message!r}"
                    )
        except BaseException:
            self.parent_queue.put(("error", f"server-{node_id}", traceback.format_exc()))

    def _serve_access(
        self, state: RealNodeState, net: NetworkStats, request: Any, is_pull: bool
    ) -> None:
        """Answer a pull/push; under relocation, forward keys that moved away."""
        policy = self.management_policy
        keys = request.keys
        if not policy.supports_localize:
            # Static allocation: this server must own every key (same error
            # contract as the simulated classic servers).
            with self.node_locks[state.node_id]:
                if is_pull:
                    values = policy.handle_read(state, keys, what="asked for")
                else:
                    policy.handle_write(
                        state, keys, request.updates, what="asked to update"
                    )
            if is_pull:
                response = PullResponse(request.op_id, tuple(keys), values, state.node_id)
                self._reply_to_worker(
                    net, state.node_id, request.op_id, response,
                    message_size(len(keys), values.size),
                )
            elif request.needs_ack:
                ack = PushAck(request.op_id, tuple(keys), state.node_id)
                self._reply_to_worker(
                    net, state.node_id, request.op_id, ack, message_size(len(keys), 0)
                )
            return
        with self.node_locks[state.node_id]:
            flags = state.storage.contains_flags(keys)
            owned = [key for key, resident in zip(keys, flags) if resident]
            if owned:
                if is_pull:
                    values = state.read_local_many(owned)
                else:
                    owned_rows = [row for row, resident in enumerate(flags) if resident]
                    state.write_local_many(
                        owned, select_rows(request.updates, owned_rows)
                    )
        if owned:
            if is_pull:
                response = PullResponse(request.op_id, tuple(owned), values, state.node_id)
                self._reply_to_worker(
                    net, state.node_id, request.op_id, response,
                    message_size(len(owned), values.size),
                )
            elif request.needs_ack:
                ack = PushAck(request.op_id, tuple(owned), state.node_id)
                self._reply_to_worker(
                    net, state.node_id, request.op_id, ack, message_size(len(owned), 0)
                )
        forward_groups: Dict[int, KeyRows] = defaultdict(KeyRows)
        for row, (key, resident) in enumerate(zip(keys, flags)):
            if not resident:
                forward_groups[self._forward_destination(state, key)].add(key, row)
        for destination, group in forward_groups.items():
            forward_keys = group.keys
            state.metrics.forwarded_ops += 1
            if request.hops > 0:
                state.metrics.cache_stale += 1
            if is_pull:
                forwarded: Any = PullRequest(
                    request.op_id,
                    tuple(forward_keys),
                    request.requester_node,
                    request.reply_to,
                    request.hops + 1,
                )
                size = message_size(len(forward_keys), 0)
            else:
                updates = copy_rows(request.updates, group.rows)
                forwarded = PushRequest(
                    request.op_id,
                    tuple(forward_keys),
                    updates,
                    request.requester_node,
                    request.reply_to,
                    request.needs_ack,
                    request.hops + 1,
                )
                size = message_size(len(forward_keys), updates.size)
            self._send_command(net, state.node_id, destination, forwarded, size)

    def _forward_destination(self, state: RealNodeState, key: int) -> int:
        """Best next hop for a key this node does not hold (Figure 5 routing).

        Mirrors the simulator: the home node forwards to the directory owner,
        other nodes forward to the home node — except that a key this node
        recently shipped away chases its transfer via ``last_transfer`` (the
        directory may not name the new owner until it installs).
        """
        last = state.last_transfer.get(key)
        if last is not None and last != state.node_id:
            return last
        home = self.home_node(key)
        if home != state.node_id:
            return home
        with self.directory.lock:
            owner = self.directory.owner_of(key)
        if owner == state.node_id:
            raise RelocationError(
                f"node {state.node_id} is the recorded owner of key {key} "
                "but does not hold it"
            )
        return owner

    def _serve_localize(
        self, state: RealNodeState, net: NetworkStats, request: LocalizeRequest
    ) -> None:
        """Home-node half of the relocation protocol (message 1 handling)."""
        requester = request.requester_node
        with self.directory.lock:
            owners = self.directory.owners_of(request.keys)
        ack_keys: List[int] = []
        owner_groups: Dict[int, List[int]] = defaultdict(list)
        for key, owner in zip(request.keys, owners.tolist()):
            home = self.home_node(key)
            if home != state.node_id:
                raise RelocationError(
                    f"node {state.node_id} received a localize request for "
                    f"key {key}, whose home is node {home}"
                )
            if owner == requester:
                ack_keys.append(key)
            else:
                owner_groups[owner].append(key)
        if ack_keys:
            ack = LocalizeAck(request.op_id, tuple(ack_keys))
            self._reply_to_worker(
                net, state.node_id, request.op_id, ack, message_size(len(ack_keys), 0)
            )
        for owner, owner_keys in owner_groups.items():
            instruction = RelocateInstruction(
                request.op_id, tuple(owner_keys), requester, state.node_id
            )
            if owner == state.node_id:
                self._serve_instruction(state, net, instruction)
            else:
                self._send_command(
                    net, state.node_id, owner, instruction, message_size(len(owner_keys), 0)
                )

    def _serve_instruction(
        self, state: RealNodeState, net: NetworkStats, instruction: RelocateInstruction
    ) -> None:
        """Old-owner half of the protocol (message 2 handling)."""
        with self.node_locks[state.node_id]:
            flags = state.storage.contains_flags(instruction.keys)
            transfer_keys = [key for key, resident in zip(instruction.keys, flags) if resident]
            if transfer_keys:
                values = state.storage.remove_many(transfer_keys)
                removed_at = time.monotonic()
        for key in transfer_keys:
            state.last_transfer[key] = instruction.new_owner
        if transfer_keys:
            transfer = RelocationTransfer(
                instruction.op_id,
                tuple(transfer_keys),
                values,
                state.node_id,
                removed_at,
            )
            size = message_size(len(transfer_keys), values.size)
            if instruction.new_owner == state.node_id:
                self._serve_transfer(state, net, transfer)
            else:
                self._send_command(net, state.node_id, instruction.new_owner, transfer, size)
        # Keys this node no longer holds: the instruction chases the key
        # along its transfer chain (the directory may lag behind).
        chase_groups: Dict[int, List[int]] = defaultdict(list)
        for key, resident in zip(instruction.keys, flags):
            if not resident:
                chase_groups[self._forward_destination(state, key)].append(key)
        for destination, chase_keys in chase_groups.items():
            chased = RelocateInstruction(
                instruction.op_id,
                tuple(chase_keys),
                instruction.new_owner,
                instruction.home_node,
            )
            self._send_command(
                net, state.node_id, destination, chased, message_size(len(chase_keys), 0)
            )

    def _serve_transfer(
        self, state: RealNodeState, net: NetworkStats, transfer: RelocationTransfer
    ) -> None:
        """New-owner half of the protocol (message 3 handling)."""
        keys = list(transfer.keys)
        with self.node_locks[state.node_id]:
            state.storage.insert_many(keys, transfer.values)
        with self.directory.lock:
            self.directory.set_owners(keys, state.node_id)
        for key in keys:
            # A record from this node's previous tenure as owner would
            # misroute future chases; the key lives here again.
            state.last_transfer.pop(key, None)
        metrics = state.metrics
        metrics.relocations += len(keys)
        now = time.monotonic()
        for _ in keys:
            metrics.blocking_time.record(now - transfer.removed_at)
        ack = LocalizeAck(transfer.op_id, transfer.keys)
        self._reply_to_worker(
            net, state.node_id, transfer.op_id, ack, message_size(len(keys), 0)
        )

    # ---------------------------------------------------------- worker process
    def _worker_main(self, client: RealWorkerClient, worker_fn: Callable) -> None:
        state = client.state
        state.metrics = PSMetrics()
        client._net = NetworkStats()
        trace = client._trace
        if trace is not None:
            # The forked copy still holds whatever the parent buffer held;
            # clear it so this child reports only its own span deltas.
            trace.reset()
        try:
            generator = worker_fn(client, client.worker_id)
            value = self._drive(generator)
            self.parent_queue.put(
                ("worker_done", client.worker_id, value, state.metrics, client._net, trace)
            )
        except BaseException:
            self.parent_queue.put(
                ("error", f"worker-{client.worker_id}", traceback.format_exc())
            )

    @staticmethod
    def _drive(generator: Generator) -> Any:
        """Run a trainer generator to completion, realizing compute yields.

        Operations block inside the client calls, so the only values a
        generator may yield on this backend are compute times (seconds),
        which become actual busy-wait CPU time.
        """
        if not hasattr(generator, "send"):
            return generator
        try:
            yielded = generator.send(None)
            while True:
                if isinstance(yielded, (int, float)):
                    _busy_wait(float(yielded))
                    yielded = generator.send(None)
                else:
                    raise ParameterServerError(
                        f"real backend worker yielded {yielded!r}; only "
                        "compute-time yields are supported (operations "
                        "complete synchronously)"
                    )
        except StopIteration as stop:
            return stop.value

    # ------------------------------------------------------------------ owners
    def home_node(self, key: int) -> int:
        """Home node of ``key`` (static, from the partitioner)."""
        return self.partitioner.node_of(key)

    def current_owner(self, key: int) -> int:
        """Node that currently owns ``key`` according to the directory."""
        return self.directory.owner_of(key)

    def current_owners(self, keys: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`current_owner` from the directory."""
        return self.directory.owners_of(keys)

    def parameter(self, key: int) -> np.ndarray:
        """Authoritative current value of ``key`` (between runs)."""
        return self.states[self.current_owner(key)].storage.get(key)

    def all_parameters(self) -> np.ndarray:
        """Full model as an array of shape (num_keys, value_length)."""
        num_keys = self.ps_config.num_keys
        keys = np.arange(num_keys, dtype=np.int64)
        owners = self.directory.snapshot()
        out = np.empty((num_keys, self.ps_config.value_length), dtype=np.float64)
        for node in range(self.cluster.num_nodes):
            node_keys = keys[owners == node]
            if node_keys.size:
                out[node_keys] = self.states[node].storage.get_many(node_keys)
        return out

    # ----------------------------------------------------------------- metrics
    def metrics(self) -> PSMetrics:
        """Cluster-wide aggregate of all per-node metrics."""
        return PSMetrics.aggregate(state.metrics for state in self.states)

    def node_metrics(self, node: int) -> PSMetrics:
        """Metrics of one node."""
        return self.states[node].metrics

    @property
    def simulated_time(self) -> float:
        """Wall-clock seconds since this server was created.

        The name matches the simulated backend so epoch timing code
        (``end - start`` around :meth:`run_workers`) works on both.
        """
        return self.clock.now

    # ----------------------------------------------------------------- cleanup
    def shutdown(self) -> None:
        """Release the shared-memory blocks (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "RealParameterServer":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.shutdown()
