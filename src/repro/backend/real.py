"""Real multi-core execution backend: the simulator's runtime on OS processes.

There is one parameter-server runtime in this repo (:mod:`repro.ps.base`) and
one implementation of every protocol (the management policies).  This module
runs them on real cores by replacing what they are built *on*:

* one **server process** per node *is* that node: it owns the ordinary
  :class:`~repro.ps.base.NodeState` (location tables, relocation queues,
  outstanding operations), dispatches protocol messages over the policy's
  ``server_handlers(state)`` table and
  :meth:`~repro.ps.base.ParameterServer._handle_van_message`, and issues its
  workers' operations through one plain :class:`~repro.ps.base.WorkerClient`
  per local worker — van, server thread and the workers' client side in one
  process, as in PS-Lite and Lapse;
* ``ps.sim`` is an :class:`_InlineKernel` (wall-clock ``now``; everything the
  runtime schedules runs, in order, right after the message being handled)
  and ``ps.network`` a :class:`_QueueNetwork` (one
  :class:`multiprocessing.Queue` per node carries the wire messages of
  :mod:`repro.ps.messages`).  That existing seam is the whole transport: no
  policy and no line of the runtime knows which backend it runs on;
* one **worker process** per worker drives the trainer generator (compute
  yields become busy-wait CPU time).  It owns exactly one lane, which takes
  an operation or a whole block visit: when every key named is resident in
  the node's :class:`~repro.backend.shm.SharedDenseStorage`, an operation is
  a read or write of shared memory under the node lock, and a block visit
  (:class:`_BlockVisits`) a read under one short hold, the kernel with the
  lock free, and a compare-and-swap write under a second — the paper's
  shared-memory local access (§3.3) on actual shared pages.  Every other
  operation is handed to the node's server, and the worker blocks.

Lifetime: the server processes are forked by the first ``run_workers`` —
set-up, and whatever the parent did to its state before, reaches them by
fork — and live until ``shutdown()``, as the server threads of §3.3 live for
the job.  A run ends with ``sync``, not ``stop``: every server sends home
what is new (metrics, traffic and trace deltas, location tables) and goes
back to its queue.  Between runs the parent may read anything and write
parameter *values* (the servers' stores are the shared blocks); where keys
live changes only inside runs.  Workers are one fork per run: the fork is
how an unpicklable ``worker_fn`` and the trainer's current state reach them.
Any failed run discards the whole group — locks, queues, reply channels —
and the next one starts afresh.  Spawning, waiting and tearing down are
:class:`~repro.backend.supervisor.ProcessGroup`'s.

Semantics vs the simulator — *statistical equivalence*: true concurrency
makes message interleavings nondeterministic, so runs are not bit-identical
to the simulation.  The protocol is the simulator's, message for message:
pushes are cumulative, operations on a relocating key queue at the requester
and drain on arrival (§3.2), so no update is ever lost, and the counters that
depend only on the access pattern (pulls/pushes, key reads and writes,
localize calls, relocations) match the simulator exactly for
barrier-synchronized workloads like blocked matrix factorization (§4.1).
What differs: operation handles block (they are complete when the client
call returns), simulated delays do not exist, and barriers go through a
:class:`multiprocessing.Barrier`, so traffic counters are the simulator's
minus the barrier messages.

Policies that re-arm themselves with ``call_later(interval)`` (replication,
bounded staleness) need wall-clock timers, which an inline kernel does not
have; :data:`REAL_BACKEND_SYSTEMS` lists what runs.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
import weakref
from collections import Counter, deque
from multiprocessing import heap, popen_fork, queues, synchronize  # noqa: F401  # not in run 1
from typing import Any, Callable, Deque, Generator, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.shm import SharedDenseStorage
from repro.backend.supervisor import ProcessGroup
from repro.config import ClusterConfig, ParameterServerConfig
from repro.errors import ParameterServerError
from repro.ps.base import ParameterServer, WorkerClient
from repro.ps.classic import StaticPolicy
from repro.ps.lapse import RelocationPolicy
from repro.ps.metrics import PSMetrics
from repro.simnet import NetworkStats, WallClock
from repro.simnet.events import Event

__all__ = [
    "REAL_BACKEND_SYSTEMS",
    "RealParameterServer",
    "RealWorkerClient",
]

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

#: Policy tables a server process sends home at the end of every run, so that
#: ``current_owner`` and the next run's workers see where the keys went.
_SHIPPED_TABLES = ("home_location", "location_cache")


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


def _release(servers: List[ProcessGroup], storages: Sequence[SharedDenseStorage] = ()) -> None:
    """Stop the server processes, if any, and detach the shared blocks named
    (finalizer target; must not reference the PS)."""
    while servers:
        servers.pop().close()
    for storage in storages:
        storage.detach()


def _fire(event: Event) -> None:
    """Process a triggered event the way the simulation kernel does."""
    callbacks = event._callbacks
    event._callbacks = None
    event._processed = True
    if callbacks:
        for callback in callbacks:
            callback(event)


class _InlineKernel:
    """``ps.sim`` of a real process: wall-clock ``now``, no simulated delays.

    Whatever the runtime schedules — a deferred client action, the completion
    of an operation handle, a message to this node itself — joins one FIFO
    that the server loop drains after each message it handles.  The delay
    argument is dropped: an access takes the time it takes.
    """

    def __init__(self) -> None:
        self._clock = WallClock()
        self.pending: Deque[Tuple[Callable[[Any], None], Any]] = deque()

    @property
    def now(self) -> float:
        """Wall-clock seconds since the server was created (the fork shares
        the origin, so stamps of different processes are comparable)."""
        return self._clock.now

    _now = now

    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        self.pending.append((fn, arg))

    def _enqueue(self, event: Event, delay: float) -> None:
        self.pending.append((_fire, event))

    def drain(self) -> None:
        """Run everything scheduled, including what that schedules in turn."""
        pending = self.pending
        while pending:
            fn, arg = pending.popleft()
            fn(arg)


class _QueueNetwork:
    """``ps.network`` of a real process: count the message, then put it on the
    destination node's command queue — or, for this node itself, on the
    kernel's FIFO (the same in-order, after-this-message delivery)."""

    def __init__(self, ps: "RealParameterServer") -> None:
        self.ps = ps
        self.stats = NetworkStats()

    def send(self, src_node: int, address: Hashable, payload: Any, size_bytes: int) -> None:
        ps = self.ps
        stats = self.stats
        kind, dst_node = address[0], address[1]
        stats.messages_sent += 1
        stats.delivery_events += 1
        if dst_node == src_node:
            stats.local_messages += 1
            ps.sim.call_later(0.0, ps._deliver, (kind, payload))
            return
        stats.remote_messages += 1
        stats.bytes_sent += size_bytes
        channels = stats.per_channel_messages
        channels[(src_node, dst_node)] = channels.get((src_node, dst_node), 0) + 1
        ps.command_queues[dst_node].put((kind, payload))


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


class RealWorkerClient(WorkerClient):
    """PS client bound to one worker process.

    The worker's own lane is shared memory: an operation whose keys are all
    resident on the node reads or writes them under the node lock and counts
    as a local access.  Anything else — a non-resident key, PS-Lite-style
    local access, every ``localize`` — is handed to the node's server process,
    which issues it through the simulator's client code.
    """

    #: Whether the server may not yet have issued an operation this worker
    #: handed over without waiting.  Until it has, the worker stays off its
    #: own lane: should the operation's key relocate in meanwhile, the lane
    #: would overtake it in the queue and the worker miss its own write
    #: (program order, §3.4).  Never set where keys do not move.
    _overtakable = False

    # --------------------------------------------------------------- async API
    def pull_async(self, keys: Sequence[int]) -> _CompletedHandle:
        return self._operate("pull", self._check_keys(keys))

    def push_async(
        self, keys: Sequence[int], updates: Any, needs_ack: bool = False
    ) -> _CompletedHandle:
        keys = self._check_keys(keys)
        return self._operate("push", keys, self._prepare_updates(keys, updates), needs_ack)

    def localize_async(self, keys: Sequence[int]) -> _CompletedHandle:
        keys = self._check_keys(keys)
        if not self.policy.supports_localize:
            # Static allocation: the policy's own refusal, raised in the
            # worker that asked instead of in its server.
            self.policy.issue_localize(self, None, keys)
        return self._operate("localize", keys)

    def _operate(
        self,
        op: str,
        keys: Tuple[int, ...],
        updates: Optional[np.ndarray] = None,
        wait: bool = True,
    ) -> _CompletedHandle:
        ps = self.ps
        state = self.state
        recorder = self._trace
        issued = ps.sim.now if recorder is not None else 0.0
        values = None
        resident = False
        if (
            op != "localize"
            and ps.ps_config.shared_memory_local_access
            and not self._overtakable
        ):
            with ps.node_locks[self.node_id]:
                resident = all(state.storage.contains_flags(keys))
                if resident and op == "pull":
                    values = state.read_local_many(keys)
                elif resident:
                    state.write_local_many(keys, updates)
        if not resident:
            values = self._hand_over(op, keys, updates, wait)
        elif op == "pull":
            state.metrics.key_reads_local += len(keys)
            state.metrics.pulls_local += 1
        else:
            state.metrics.key_writes_local += len(keys)
            state.metrics.pushes_local += 1
        if recorder is not None:
            # The call blocks, so issue and completion bracket the operation.
            recorder.span(op, keys, issued, ps.sim.now)
        return _CompletedHandle(op, keys, values)

    def _hand_over(
        self, op: str, keys: Tuple[int, ...], updates: Optional[np.ndarray], wait: bool
    ) -> Optional[np.ndarray]:
        """Have this node's server issue ``op``; with ``wait``, block for its
        completion (a pull's answer is its values)."""
        ps = self.ps
        if updates is not None:
            # ``Queue.put`` pickles in a feeder thread, after it returned: the
            # caller may already be reusing its update buffer by then.
            updates = updates.copy()
        ps.command_queues[self.node_id].put(("op", (self.worker_id, op, keys, updates, wait)))
        # Per-producer FIFO: an answer means everything handed over was issued.
        self._overtakable = not wait and self.policy.supports_localize
        return ps.reply_queues[self.worker_id].get() if wait else None

    # ----------------------------------------------------------- local access
    def pull_if_local(self, key: int) -> Optional[np.ndarray]:
        with self.ps.node_locks[self.node_id]:
            return super().pull_if_local(key)

    def fused_local_steps(self) -> Optional["_BlockVisits"]:
        """The lane's block-visit runner, where the lane exists and every resident
        key may fuse (a per-key guard reads ``state.subscribers``, which lives in
        the server process): a visit saves a Python step and two lock holds per entry."""
        lane = self.ps.ps_config.shared_memory_local_access
        guard = self.policy.fusion_guard(self.state)
        return _BlockVisits(self) if lane and guard is None else None

    # ------------------------------------------------------------ coordination
    def barrier(self) -> Generator:
        """Block until every worker of the current run reached this barrier.

        What this node pushed before the barrier is applied when it opens:
        the simulator's barrier orders them by taking three message latencies
        to a push's one, here the worker waits for the acknowledgements.
        """
        barrier = self.ps._barrier
        if barrier is None:
            raise ParameterServerError(
                "barrier() is only available inside run_workers on the real backend"
            )
        self._hand_over("flush", (), None, True)
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


class _BlockVisits:
    """The worker's lane applied to whole block visits: what the trainers get
    in place of a :class:`~repro.ps.base.FusedLocalSteps`.  Nothing is
    asserted: a visit reads and writes its block under two short holds of the
    node lock and runs the kernel between them, on its own copy, so the
    node's server keeps serving meanwhile; the write is a compare-and-swap on
    the block's values, and a visit that lost the race pushes what it
    computed as the cumulative update it is.  No interleaving loses an update."""

    def __init__(self, client: RealWorkerClient) -> None:
        self.client = client
        self.taken = 0  # entries run by a visit
        #: Entries (and steps) handed back to the caller, by reason.
        self.reasons: Counter = Counter()
        self.conflicts = 0  # visits whose compare-and-swap lost the race

    def visit(
        self, block_keys: Sequence[int], entry_keys: np.ndarray, compute_time: float,
        kernel: Callable[[np.ndarray], np.ndarray],
    ) -> Tuple[int, None]:
        """One single-key ``pull`` → update → ``push_async`` → compute step
        per entry of ``entry_keys``, all inside ``block_keys``, as one access
        replacing the block by ``kernel(values)``: returns how many entries
        it ran, all of them or (to fall back) none, and no hazard — a refused
        visit is refused for good, so the rest of the block takes the push
        path without retries.

        Refused, touching nothing, when a block key is not resident or the
        lane would overtake an operation this worker handed over.  The block
        is replaced only if every key is still resident and holds, bit for
        bit, what the kernel was given — the result is then the per-entry
        loop's; a block that was written to or left meanwhile (even one that
        came back) gets ``kernel(values) - values`` through the push path
        instead.  Counted as ``_operate`` counts the entries one by one,
        traced as one ``pull`` and one ``push`` of the block; kernel and
        compute run outside the lock (own core).
        """
        client = self.client
        count = len(entry_keys)
        sim = client.ps.sim
        storage = client.state.storage
        lock = client.ps.node_locks[client.node_id]
        issued = sim.now
        with lock:
            if client._overtakable:
                self.reasons["handed over"] += count
                return 0, None
            if not all(storage.contains_flags(block_keys)):
                self.reasons["not resident"] += count
                return 0, None
            before = storage.get_many(block_keys)
        read = sim.now
        values = kernel(before.copy())
        computed = sim.now
        with lock:
            swapped = all(storage.contains_flags(block_keys)) and np.array_equal(
                storage.get_many(block_keys).view(np.uint64), before.view(np.uint64)
            )
            if swapped:
                storage.set_many(block_keys, values)
        written = sim.now
        if not swapped:
            self.conflicts += 1
            client.push_async(block_keys, values - before, needs_ack=True)
        self.taken += count
        metrics = client.state.metrics
        metrics.key_reads_local += count
        metrics.pulls_local += count
        metrics.key_writes_local += count
        metrics.pushes_local += count
        recorder = client._trace
        if recorder is not None:
            recorder.span("pull", block_keys, issued, read)
            recorder.span("push", block_keys, computed, written)
        _busy_wait(count * compute_time)
        return count, None

    def step(self, keys: Sequence[int], compute_time: float, kernel: Callable) -> None:
        """Declines: the event horizon licensing a step has no wall-clock counterpart."""
        self.reasons["no horizon"] += 1

    def drain(self) -> None:
        """Nothing to yield: a visit's time has passed when it returns."""


class RealParameterServer(ParameterServer):
    """The parameter server on real processes and shared memory.

    Construction builds, in the parent, what :class:`ParameterServer` always
    builds — policy, node states, initial allocation — with the stores in
    shared memory.  The first :meth:`run_workers` forks one server process per
    node, and they live until :meth:`shutdown`; every run forks one process
    per worker, waits for the workers, waits until nothing is in flight and
    has the servers ``sync``: what the children report (metrics, traffic,
    traces, location tables) is merged into the parent's node states.
    Between runs (epochs) the parent reads everything and writes parameter
    *values* directly — the shared blocks are the servers' stores.  Where
    keys live is the servers' business from the first run on: allocation
    changes only inside runs.

    Use as a context manager (or call :meth:`shutdown`) to stop the servers
    and release the shared-memory blocks; dropping the last reference does
    the same.
    """

    client_class = RealWorkerClient
    #: Barrier of the current run's worker cohort (``None`` between runs).
    _barrier: Optional[Any] = None

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
        self.name, self.policy_class, shared_local = _SYSTEM_SPECS[system]
        self.config_overrides = {"shared_memory_local_access": shared_local}
        self.timeout = timeout
        self._ctx = mp.get_context("fork")
        super().__init__(cluster, ps_config)
        #: The live group of server processes: empty before the first run and
        #: after a failed one (a list so that the finalizer sees it change).
        self._servers: List[ProcessGroup] = []
        self._finalizer = weakref.finalize(
            self, _release, self._servers, [state.storage for state in self.states]
        )
        if trace is not None and trace.enabled:
            from repro.obs import Tracer

            # Wall-clock time domain: the workers record their operation
            # spans, the servers the relocations they install.
            self.tracer = Tracer(self, trace, time_domain="wall")

    # ------------------------------------------------------------ construction
    def _build_substrate(self) -> None:
        self.sim = _InlineKernel()
        self.network = _QueueNetwork(self)

    def _new_storage(self) -> SharedDenseStorage:
        return SharedDenseStorage(self.ps_config.num_keys, self.ps_config.value_length)

    def _start_threads(self) -> None:
        """Nothing to start yet: the server loops are processes, forked by
        the first run from whatever set-up has made of the parent by then."""

    def _server_group(self) -> ProcessGroup:
        """The server processes, forked now unless a group is alive.

        What the processes share besides the stores belongs to the group: a
        failed run discards it whole, and no held lock or stray message
        reaches the next one.
        """
        if not self._servers:
            ctx = self._ctx
            cluster = self.cluster
            nodes = range(cluster.num_nodes)
            self.node_locks = [ctx.Lock() for _ in nodes]
            self.command_queues = [ctx.Queue() for _ in nodes]
            self.reply_queues = [ctx.SimpleQueue() for _ in range(cluster.total_workers)]
            group = ProcessGroup(ctx, "real backend")
            self._servers.append(group)
            for node in nodes:
                group.spawn(f"server-{node}", self._serve, node)
        return self._servers[0]

    # ------------------------------------------------------------------- runs
    def run_workers(
        self,
        worker_fn: Callable[[RealWorkerClient, int], Generator],
        until: Optional[float] = None,
        clients: Optional[Sequence[RealWorkerClient]] = None,
    ) -> List[Any]:
        """Run ``worker_fn`` as one OS process per worker; returns their values.

        Forks the worker processes (fork, so ``worker_fn`` and its closure
        need not be picklable; the first run forks the servers too) and
        returns once the cluster is quiescent, every server has reported and
        every worker has exited.  A child that fails, dies or overruns
        ``timeout`` ends the run with a :class:`ParameterServerError` naming
        it, and no child survives: the next run starts new servers.
        """
        if until is not None:
            raise ParameterServerError(
                "the real backend runs on wall-clock time and has no "
                "simulated-time cutoff"
            )
        client_list = list(clients) if clients is not None else self.clients()
        if not client_list:
            raise ParameterServerError("run_workers requires at least one client")
        cluster = self.cluster
        deadline = time.monotonic() + self.timeout
        try:
            # On success every worker exits by itself; after a failure (or
            # for a worker that does not exit) none may outlive the run.
            with ProcessGroup(self._ctx, "real backend") as workers:
                group = self._server_group()
                servers = group.children
                self._barrier = self._ctx.Barrier(len(client_list))
                for client in client_list:
                    workers.spawn(
                        f"worker-{client.worker_id}", self._worker_main, client, worker_fn
                    )
                results = []
                reports = workers.gather(workers.children, deadline, watching=servers)
                for client, (value, metrics, trace) in zip(client_list, reports):
                    results.append(value)
                    self._absorb(cluster.node_of_worker(client.worker_id), metrics, trace)
                # Quiescence.  Every operation of every worker has a handle at
                # its server by now (each worker's last act is a round trip
                # through it), and a handle completes only after the last
                # message sent on its behalf was answered (simulated pushes
                # are always acknowledged) — so "no outstanding handle
                # anywhere" is "nothing in flight".  The message counts close
                # the one gap: an operation naming a key twice completes on
                # the first of its answers.
                while True:
                    self._tell_servers("idle")
                    sent, received = map(sum, zip(*group.gather(servers, deadline)))
                    if sent == received:
                        break
                self._tell_servers("sync")
                reports = group.gather(servers, deadline)
                for node, (metrics, trace, stats, tables) in enumerate(reports):
                    self._absorb(node, metrics, trace)
                    self.network.stats.absorb(stats)
                    vars(self.states[node]).update(tables)
        except BaseException:
            # Locks may have died held and queues hold strays: servers too.
            _release(self._servers)
            raise
        finally:
            self._barrier = None
        return results

    def _tell_servers(self, command: str) -> None:
        for commands in self.command_queues:
            commands.put((command, None))

    def _absorb(self, node: int, metrics: PSMetrics, trace: Optional[Any]) -> None:
        """Fold one child's metrics and trace deltas into its node's state."""
        state = self.states[node]
        state.metrics = state.metrics.merge(metrics)
        if trace is not None:
            state.trace.merge_from(trace)

    # ---------------------------------------------------------- server process
    def _serve(self, report: Callable[[Any], None], node_id: int) -> None:
        """The node: one loop over its command queue, for as long as it lives.

        The queue carries protocol messages from other nodes (``server`` and
        ``van`` addresses), the local workers' operations (``op``) and the
        parent's ``idle`` / ``sync``.  One item is handled, and everything it
        scheduled drained, under the node lock — the workers' shared-memory
        lane never observes half a relocation.
        """
        # ``Queue.put`` leaves pickling and sending to a feeder thread, which
        # needs the interpreter lock this loop holds while there is work: at
        # the default switch interval every message to another node would
        # wait 5 ms for it (4x the run time of MF on ``classic``).
        sys.setswitchinterval(1e-5)
        state = self._state = self.states[node_id]
        self._handlers = self.management_policy.server_handlers(state)
        cluster = self.cluster
        proxies = {}
        for local_worker in range(cluster.workers_per_node):
            worker_id = cluster.worker_id(node_id, local_worker)
            proxies[worker_id] = WorkerClient(self, state, worker_id, local_worker)
        commands = self.command_queues[node_id]
        lock = self.node_locks[node_id]
        drain = self.sim.drain
        #: Answers owed once no operation issued from this node is outstanding.
        when_idle: List[Callable[[], None]] = []
        while True:
            # The fork copied what the parent had merged so far, a ``sync``
            # sent this process's share home: it reports only what is new.
            state.metrics = PSMetrics()
            if state.trace is not None:
                state.trace.reset()
            stats = self.network.stats = NetworkStats()
            received = 0
            while True:
                item = commands.get()
                kind = item[0]
                if kind == "sync":
                    break
                with lock:
                    if kind == "op":
                        self._issue(proxies, when_idle, *item[1])
                    elif kind == "idle":
                        when_idle.append(lambda: report((stats.remote_messages, received)))
                    else:
                        received += 1
                        self._deliver(item)
                    drain()
                if when_idle and not state.outstanding:
                    for answer in when_idle:
                        answer()
                    when_idle.clear()
            relocating = getattr(state, "relocating_in", None)
            if state.outstanding or relocating:
                raise ParameterServerError(
                    f"told to sync with {len(state.outstanding)} operations outstanding "
                    f"and keys {sorted(relocating or ())} relocating in"
                )
            tables = {
                name: getattr(state, name) for name in _SHIPPED_TABLES if hasattr(state, name)
            }
            report((state.metrics, state.trace, stats, tables))

    def _deliver(self, item: Tuple[str, Any]) -> None:
        """Handle one protocol message addressed to this process's node."""
        kind, message = item
        state = self._state
        if kind == "van":
            self._handle_van_message(state, message)
            return
        entry = self._handlers.get(type(message))
        if entry is None:
            raise ParameterServerError(
                f"{self.name} PS server on node {state.node_id} received "
                f"unexpected message {message!r}"
            )
        state.metrics.server_messages += 1
        entry[1](state, message)

    def _issue(
        self,
        proxies: dict,
        when_idle: List[Callable[[], None]],
        worker_id: int,
        op: str,
        keys: Tuple[int, ...],
        updates: Optional[np.ndarray],
        wait: bool,
    ) -> None:
        """Issue a local worker's operation through its proxy client — the
        simulator's route, group, act — and answer once the handle completes."""
        answer = self.reply_queues[worker_id].put
        if op == "flush":
            when_idle.append(lambda: answer(None))
            return
        proxy = proxies[worker_id]
        if op == "pull":
            handle = proxy.pull_async(keys)
        elif op == "push":
            handle = proxy.push_async(keys, updates)
        else:
            handle = proxy.localize_async(keys)
        if wait:
            handle.completion_event.callbacks.append(
                lambda event: answer(handle.values() if op == "pull" else None)
            )

    # ---------------------------------------------------------- worker process
    def _worker_main(
        self, report: Callable[[Any], None], client: RealWorkerClient, worker_fn: Callable
    ) -> None:
        state = client.state
        state.metrics = PSMetrics()
        trace = None if client._trace is None else state.trace
        if trace is not None:
            # The forked copy still holds whatever the parent buffer held;
            # clear it so this child reports only its own span deltas.
            trace.reset()
        value = self._drive(worker_fn(client, client.worker_id))
        # Once this comes back, every operation this worker handed over
        # has a handle at its server — and, as it happens, has completed.
        client._hand_over("flush", (), None, True)
        report((value, state.metrics, trace))

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

    # ----------------------------------------------------------------- cleanup
    def shutdown(self) -> None:
        """Stop the servers and release the shared-memory blocks (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "RealParameterServer":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.shutdown()
