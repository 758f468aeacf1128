"""The parameter-server runtime: one server, one client, one node state.

Every system of this repo is the same machine; what differs is the
:class:`~repro.ps.policy.ManagementPolicy` it is parameterised by
(``policy_class``).  This module provides the machine:

* :class:`NodeState` — the per-node state shared (via "shared memory") by the
  node's server thread and its co-located worker threads: the local parameter
  store, latches, metrics, outstanding-operation and barrier bookkeeping, plus
  the tables the policy installs (see the class docstring),
* :class:`WorkerClient` — the application-facing API (Table 2 of the paper):
  ``pull`` / ``push`` / ``localize`` in synchronous and asynchronous flavours,
  plus ``barrier`` and ``clock``.  It routes every key through the policy,
  groups the keys by route kind and hands each group to the policy's action
  for that kind — written once, for all systems,
* :class:`ParameterServer` — builds the simulated cluster (one server thread +
  several worker threads per node, Figure 2), runs one generic message loop
  per node over the policy's handler table, demultiplexes responses, runs
  worker processes, and exposes metrics and the trained model.  It is also the
  transport the policies send through (``send_to_server``, ``send_request``,
  ``respond_pull``, ``ack_push``).

The named systems (:class:`~repro.ps.lapse.LapsePS`, ...) are declarations: a
report name, a policy class and, for the classic variants, fixed
configuration overrides.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.config import ClusterConfig, ParameterServerConfig, derive_seed, message_size
from repro.errors import ParameterServerError, StorageError, UnknownKeyError
from repro.ps.futures import OperationHandle
from repro.ps.messages import (
    BarrierArrive,
    BarrierRelease,
    PullRequest,
    PullResponse,
    PushAck,
    PushRequest,
)
from repro.ps.metrics import PSMetrics
from repro.ps.partition import KeyPartitioner, RangePartitioner
from repro.ps.storage import SMALL_BATCH as _SMALL_BATCH
from repro.ps.storage import DenseStorage, LatchTable
from repro.simnet import Network, Simulator
from repro.simnet.events import Event
from repro.simnet.node import coordinator_address, server_address, van_address

#: Route kinds returned by :meth:`repro.ps.policy.ManagementPolicy.route`: the
#: contract between the policies (which decide) and :class:`WorkerClient`
#: (which groups the keys of an operation by kind and acts per group).
ROUTE_LOCAL = "local"  #: owned parameter; access through shared memory/queues
ROUTE_REPLICA = "replica"  #: answered from a local replica copy
ROUTE_QUEUE = "queue"  #: key is in flight to this node; queue and drain
ROUTE_REMOTE = "remote"  #: send to the destination node's server thread
ROUTE_SUBSCRIBE = "subscribe"  #: install a replica: register at destination
ROUTE_BUFFER = "buffer"  #: buffer the write locally (stale PS; flush on clock)


@dataclass(frozen=True, slots=True)
class Route:
    """Where one key's access goes: a kind plus an optional destination node."""

    kind: str
    destination: int = -1


def select_rows(updates: np.ndarray, rows: List[int]) -> np.ndarray:
    """Rows of ``updates`` at ``rows`` — a view for one row, a copy otherwise.

    The single-row view avoids an allocation on the dominant one-key ops.
    Only for immediate read access (e.g. feeding ``add_many``); anything that
    outlives the call — in particular message payloads — must use
    :func:`copy_rows`, because the caller may mutate ``updates`` afterwards.
    """
    if len(rows) == 1:
        row = rows[0]
        return updates[row : row + 1]
    return updates[rows]


def copy_rows(updates: np.ndarray, rows: List[int]) -> np.ndarray:
    """Rows of ``updates`` at ``rows``, always as an owned copy.

    Used for message payloads: the update values must be snapshotted at send
    time (as the replaced per-key ``vstack`` did), since the caller is free to
    reuse its gradient buffer while the message is in flight.
    """
    if len(rows) == 1:
        row = rows[0]
        return updates[row : row + 1].copy()
    return updates[rows]


class KeyRows:
    """Keys of one group of an operation with their row positions in it.

    Update rows are always selected by *position*, never through a key → row
    map: a push may name a key more than once, and every occurrence carries a
    row of its own (duplicates accumulate, like ``add_many``).
    """

    __slots__ = ("keys", "rows")

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.rows: List[int] = []

    def add(self, key: int, row: int) -> None:
        self.keys.append(key)
        self.rows.append(row)


def first_missing(state: "NodeState", keys) -> Optional[int]:
    """First key of ``keys`` not resident in ``state``, or None (error paths only).

    Server handlers probe whole batches with ``read_local_many`` /
    ``write_local_many`` and only fall back to this per-key scan to name the
    offending key when the batch access raised.
    """
    for key, resident in zip(keys, state.storage.contains_flags(keys)):
        if not resident:
            return key
    return None


class QueuedOp:
    """An operation queued while its key is in flight.

    The relocation protocol (Lapse) and the replica-install protocol both
    leave a key temporarily unanswerable on the node that requested it; the
    runtime queues operations issued for such keys and drains them, in
    program order, once the key arrives (§3.2: relocation never produces
    wrong results).

    ``kind`` is ``"local_pull"`` / ``"local_push"`` for worker-issued
    operations (completed against ``handle``, a push with its ``update``)
    and ``"remote_pull"`` / ``"remote_push"`` / ``"register"`` / ``"flush"``
    for server-side requests that must be re-processed (``request``) once
    the key is resident; ``row`` is the position of ``key`` in ``request``
    (a request may repeat a key).
    """

    __slots__ = ("kind", "key", "handle", "update", "request", "row")

    def __init__(self, kind, key, handle=None, update=None, request=None, row=0) -> None:
        self.kind, self.key, self.handle = kind, key, handle
        self.update, self.request, self.row = update, request, row


def _run_action(action: Callable[[], None]) -> None:
    """Kernel-callback shim: invoke a zero-argument deferred action."""
    action()


def _run_handler(arg: Tuple[Callable, "NodeState", Any]) -> None:
    """Kernel-callback shim: run a scheduled server message handler."""
    handler, state, message = arg
    handler(state, message)


class NodeState:
    """State shared by the server thread and worker threads of one node.

    The runtime owns the store, latches, metrics and operation bookkeeping
    below.  Everything technique-specific is a *table the policy installs* in
    :meth:`~repro.ps.policy.ManagementPolicy.attach` — plain attributes, so
    they ship with the node through the parallel engine and can be inspected
    by the cluster runtime and by tests:

    * relocation (``lapse``): ``home_location`` (key -> owner, for the keys
      homed here), ``relocating_in`` (key ->
      :class:`~repro.ps.lapse.RelocatingKey`), ``location_cache``;
    * replication (``replica``): ``replicas`` (key -> value),
      ``pending_updates``, ``installing`` (key ->
      :class:`~repro.ps.replica.InstallingKey`), ``subscribers``,
      ``broadcast_buffer``, ``policy`` (the node's hot-key policy),
      ``sync_timer_pending``;
    * bounded staleness (``stale``): ``replicas`` (key -> [value, clock]),
      ``subscriptions``, ``flush_counts``, ``pending_flush_acks``.

    ``hybrid`` installs the relocation and the replication tables.
    """

    def __init__(self, ps: "ParameterServer", node_id: int) -> None:
        self.ps = ps
        self.node_id = node_id
        self._outstanding_cleanup = self._cleanup_outstanding  # pre-bound, hot
        #: Event-driven server bookkeeping: simulated time until which the
        #: server thread is busy handling already-arrived messages.
        self.server_busy_until = 0.0
        self.metrics = PSMetrics()
        self.latches = LatchTable()
        #: Parameters currently owned by this node.
        self.storage: DenseStorage = ps._new_storage()
        #: Tracing buffer (:class:`repro.obs.NodeTrace`), installed by the
        #: tracer when a :class:`~repro.obs.TraceConfig` is passed.  ``None``
        #: (the default) keeps every hook to one attribute check.
        self.trace: Optional[Any] = None
        #: Outstanding operations issued from this node, keyed by op id: the
        #: van finds the handle of every pull response, push ack and stale
        #: fetch response here.
        self.outstanding: Dict[int, OperationHandle] = {}
        #: Barrier waiters: generation -> list of events to release.
        self.barrier_waiters: Dict[int, List[Event]] = {}
        #: Clock of the worker whose pull is being routed.  Routing takes the
        #: node, not the worker; :class:`WorkerClient` publishes its clock here
        #: right before it routes, for policies whose read routes depend on it
        #: (bounded staleness).
        self.reader_clock = 0
        ps.management_policy.attach(self)

    # ------------------------------------------------------------------ access
    def read_local(self, key: int) -> np.ndarray:
        """Read an owned parameter (acquiring its latch)."""
        self.latches.acquire(key)
        return self.storage.get(key)

    def write_local(self, key: int, update: np.ndarray) -> None:
        """Apply a cumulative update to an owned parameter (acquiring its latch)."""
        self.latches.acquire(key)
        self.storage.add(key, update)

    def read_local_many(self, keys: Sequence[int]) -> np.ndarray:
        """Read a batch of owned parameters (one latch acquisition per key).

        The storage access runs first so that a non-resident key raises
        before any latch acquisition is recorded; callers use this to probe
        the whole batch and fall back to a per-key split only on the rare
        miss (e.g. a key relocated away mid-access).
        """
        if len(keys) == 1:
            key = keys[0]
            storage = self.storage
            if not 0 <= key < storage.num_keys:
                raise StorageError(f"key {key} out of range [0, {storage.num_keys})")
            if not storage.has_row(key):
                raise StorageError(f"key {key} is not resident in this store")
            value = storage.row_copy(key).reshape(1, -1)
            self.latches.acquisitions += 1
            return value
        values = self.storage.get_many(keys)
        self.latches.acquire_many(keys)
        return values

    def write_local_many(self, keys: Sequence[int], updates: np.ndarray) -> None:
        """Apply one cumulative update row per key (duplicate keys accumulate).

        ``add_many`` is check-then-apply, so a batch with a non-resident key
        raises before any update or latch accounting happens.
        """
        storage = self.storage
        if (
            len(keys) == 1
            and updates.__class__ is np.ndarray
            and updates.dtype == np.float64
            and updates.shape == (1, storage.value_length)
        ):
            # Single-key fast lane; anything not already a validated
            # (1, value_length) float64 batch falls through to add_many's
            # check-then-apply coercion.
            key = keys[0]
            if not 0 <= key < storage.num_keys:
                raise StorageError(f"key {key} out of range [0, {storage.num_keys})")
            if not storage.has_row(key):
                raise StorageError(f"key {key} is not resident in this store")
            storage.row_add(key, updates[0])
            self.latches.acquisitions += 1
            return
        storage.add_many(keys, updates)
        self.latches.acquire_many(keys)

    def register_handle(self, handle: OperationHandle) -> None:
        """Give ``handle`` its op id and track it until its responses arrive.

        Every pull, push and stale fetch request sent for the handle carries
        this id, and this node's van finds the handle under it.  Uses one
        pre-bound cleanup callback instead of a fresh closure per operation;
        the completion event carries the handle (see
        :class:`~repro.ps.futures.OperationHandle`), so the callback can find
        the table entry without captured state.
        """
        op_id = handle.op_id = self.ps.next_op_id()
        self.outstanding[op_id] = handle
        handle.completion_event.callbacks.append(self._outstanding_cleanup)

    def _cleanup_outstanding(self, event: Event) -> None:
        self.outstanding.pop(event._value.op_id, None)


class FusedLocalSteps:
    """Fused purely-local worker steps, run inline instead of event by event.

    On a shared-memory PS, one local training step costs the simulator a pull
    handle, two deferred actions, a timeout, and several generator resumes —
    all to model ``read, update, write`` on the worker's own node.  This
    runner performs the same storage reads/writes, latch accounting, and
    metric increments *immediately* and replays the simulated time the slow
    path would have taken.  It offers two lanes, which differ in why running
    inline is safe:

    **Asserted** (:meth:`visit` / :meth:`drain`; zero kernel events per
    step).  The caller guarantees that the block of keys it visits is
    **private to this worker** until the next drain — no other worker, server
    handler, or background synchronizer reads or writes it inside the
    deferred-time window — and yields the accumulated time in one piece at its
    next communication or synchronization boundary.  Parameter blocking
    (§4.1) provides exactly this guarantee for matrix factorization, which is
    why the MF trainer opts in.  Residency and guards are checked once per
    visit, the membership schedule and the next checkpoint cut it short;
    privacy is not checkable here and is enforced by the bit-identity test
    sweep.

    **Verified** (:meth:`step`; one kernel event per step).  For keys other
    workers share, the runner checks the kernel's event horizon instead: a
    multi-key pull → step → push runs inline only when every key is resident
    and unguarded and the write comes before the kernel's next event
    (:meth:`~repro.simnet.kernel.Simulator.horizon`), so no other event could
    have observed or reordered the read and the write.  Anything else
    declines and the caller takes the event path.  Both lanes read what may
    end a private run from one place, :meth:`horizon`.

    Both lanes write what the event path writes entry by entry at one
    instant: the step's or visit's own, or, for a visit on an unlogged
    store, the first resume of a worker with a visit pending
    (:meth:`commit`).  On a logged store (a
    :class:`~repro.durability.DurabilityConfig`) that is unobservable as
    long as no lazy checkpoint of the node falls due up to the write:
    checkpoints are per node and fire only on an append at or after their
    due time, so they see the same store either way.

    Only management policies whose local access has no side effects beyond
    storage/latch/metric accounting offer the runner, and they may hold
    individual keys back (:meth:`~repro.ps.policy.ManagementPolicy.fusion_guard`).
    Every step handed back is tallied under its reason in :attr:`reasons`.
    """

    __slots__ = (
        "sim", "storage", "latches", "metrics", "access_delay", "clock", "trace", "guard",
        "state", "policy", "recorder", "checkpoints", "elastic", "taken", "reasons", "pending",
        "commits", "committed",
    )

    def __init__(self, client: "WorkerClient", guard: Optional[Callable[[int], Any]]) -> None:
        state = client.state
        #: ``key -> truthy`` for resident keys that must stay on the
        #: event-by-event path (the policy's fusion guard), or ``None``.
        self.guard = guard
        self.sim = client.ps.sim
        self.storage = state.storage
        self.latches = state.latches
        self.metrics = state.metrics
        cost = client.ps.cluster.cost_model
        self.access_delay = cost.local_access_time(shared_memory=True)
        #: Span recorder of the owning worker (None when tracing is off or
        #: fused-step tracing is disabled); fused steps are replayed at the
        #: deferred clock, so their spans carry the exact slow-path times.
        recorder = client._trace
        self.trace = recorder if recorder is not None and recorder.fused_on else None
        #: The verified lane's collaborators: the node state it reads through,
        #: the policy whose owner-side write seam it uses, and the worker's
        #: span recorder (its steps report ordinary ``pull``/``push`` spans).
        self.state = state
        self.policy = client.ps.management_policy
        self.recorder = recorder
        #: Lazy-checkpoint due times (``node -> instant``) of the durability
        #: manager when a WAL is installed, else None.
        durability = client.ps.durability
        self.checkpoints = None if durability is None else durability._next_checkpoint_at
        #: The elastic runtime on an elastic cluster, else None.
        self.elastic = client.ps._elastic_driver
        #: Steps run inline, on either lane, and steps handed back to the
        #: event path by reason: ``"not resident"``, ``"guarded"``,
        #: ``"checkpoint"``, ``"membership event"``, ``"unsettled keys"``, and
        #: for :meth:`step` also ``"t3 < t2"`` and ``"not quiet"``.
        self.taken = 0
        self.reasons: Counter = Counter()
        #: The server's queue of visits whose numerics still have to run,
        #: shared by the runners of all its workers (:meth:`commit`).
        self.pending: List[Tuple] = client.ps.pending_visits
        #: Commits this runner made, and the visits they ran (several per
        #: commit where concurrent visits were pending together).
        self.commits = 0
        self.committed = 0
        #: Replayed worker clock: the simulated time this worker would have
        #: reached had every fused step gone through the kernel.  The deltas
        #: are added one at a time, in slow-path order, so the final resume
        #: timestamp is bit-identical to the event-by-event run (floating-
        #: point addition is not associative; summing first would drift in
        #: the last bits).  ``None`` while no time is deferred.
        self.clock: Optional[float] = None

    def horizon(self, keys: Sequence[int], verified: bool = False) -> Iterator[Tuple[float, str]]:
        """What may end a private run on ``keys``: one ``(instant, reason)``
        per hazard, in the order that names a decline.

        A run is private only before each hazard's instant.  The verified
        lane (:meth:`step`) starts with the kernel's next event, ``"not
        quiet"`` (:meth:`~repro.simnet.kernel.Simulator.horizon`).  On a
        logged store the node's next checkpoint due time follows,
        ``"checkpoint"``.  On an elastic cluster the asserted lane
        (:meth:`visit`) then gets the
        :meth:`~repro.cluster.runtime.ElasticCluster.fusion_horizon` of
        ``keys``: ``"membership event"``, or ``"unsettled keys"`` at ``-inf``
        while a rebalance still moves one of them.  Last comes a refusal at
        ``-inf``: a key is not resident, ``"not resident"``, or the policy's
        fusion guard holds one back, ``"guarded"``.  A hazard that is absent
        yields nothing, and each source is read only when the caller asks
        for the next hazard, so a step that meets an early one reads no later
        one.
        """
        if verified:
            yield self.sim.horizon(), "not quiet"
        checkpoints = self.checkpoints
        if checkpoints is not None:
            yield checkpoints.get(self.state.node_id, math.inf), "checkpoint"
        if not verified and self.elastic is not None:
            instant = self.elastic.fusion_horizon(keys)
            yield instant, "unsettled keys" if instant == -math.inf else "membership event"
        if not all(self.storage.contains_flags(keys)):
            yield -math.inf, "not resident"
        elif self.guard is not None and any(map(self.guard, keys)):
            yield -math.inf, "guarded"

    def visit(
        self,
        block_keys: Sequence[int],
        entry_keys: np.ndarray,
        compute_time: float,
        kernel: Callable[..., np.ndarray],
    ) -> Tuple[int, Optional[Tuple[float, str]]]:
        """Asserted fused run of one single-key ``pull`` → update →
        ``push_async`` → ``yield compute_time`` step per leading entry of
        ``entry_keys``, all inside the private block ``block_keys``: returns
        how many entries it ran and the hazard that cut the rest off, or None.
        The caller runs the rest on the event path after :meth:`drain`.

        A visit refused by the :meth:`horizon` of the block runs nothing and
        is refused for good.  Otherwise it runs every entry that the block's
        hazards let through: a checkpoint due time must come after the
        entry's push lands (``access_delay`` after its read), and a
        membership event must come after both that landing and the worker's
        resume.  The first hazard to reach an entry cuts the visit there; on
        a tie the checkpoint names the cut.  Entries left over count under
        the cut's reason until :meth:`passed` sees that hazard gone; the
        caller may then offer the entries it has not run yet as a new visit
        (``entry_keys`` is any suffix of a block's entries).  A visit that runs
        nothing leaves all state untouched.  One that runs ``n``
        entries accounts their operations, replays the worker clock with the
        event path's own additions in entry order (``+ access_delay`` for the
        pull, ``+ compute_time``; the asynchronous push costs the worker
        nothing), reports each step's spans at those instants, and replaces
        the block's values by ``kernel(values, deltas, n)``, which must leave
        them as the first ``n`` steps would have in entry order.

        On an unlogged store the numerics wait: the visit queues ``(store,
        block_keys, kernel, n)`` in :attr:`pending`, and :meth:`commit` runs
        them, with ``deltas`` None, when the first worker resumes from its
        :meth:`drain` — no later than this worker's own resume, where the
        block's privacy window ends, so no other event can tell.  On a logged
        store they run at the visit: the kernel sets row ``k`` of ``deltas``
        to the update entry ``k`` pushes, the block is written past the log,
        and the WAL takes one single-row ``delta`` record per entry, in entry
        order (:meth:`~repro.durability.wal.DeltaWAL.append_deltas`) — the
        records of the event path's writes, all appended before the due time.
        """
        count = len(entry_keys)
        if not count:
            return 0, None
        # A running sum adds left to right, one delay at a time, like the
        # worker it replays: entry k pulls from instants[2k] to instants[2k+1]
        # and resumes at instants[2k+2].
        instants = np.empty(2 * count + 1)
        instants[0] = self.sim._now if self.clock is None else self.clock
        instants[1::2] = self.access_delay
        instants[2::2] = compute_time
        instants = np.add.accumulate(instants)
        taken, cut = count, None
        for hazard in self.horizon(block_keys):
            instant, reason = hazard
            if reason in ("not resident", "guarded"):
                self.reasons[reason] += count
                return 0, None
            # Entry k's push lands access_delay after its read; a membership
            # event must also wait for the worker's resume.
            reach = instants[1::2] + self.access_delay
            if reason != "checkpoint":
                reach = np.maximum(reach, instants[2::2])
            reached = int(np.searchsorted(reach, instant))
            if reached < taken:
                taken, cut = reached, hazard
        if cut is not None:
            self.reasons[cut[1]] += count - taken
            if not taken:
                return 0, cut
        self.taken += taken
        metrics = self.metrics
        metrics.key_reads_local += taken
        metrics.pulls_local += taken
        metrics.key_writes_local += taken
        metrics.pushes_local += taken
        self.latches.acquisitions += 2 * taken
        self.clock = float(instants[2 * taken])
        trace = self.trace
        if trace is not None:
            instants = instants.tolist()
            for index, key in enumerate(entry_keys[:taken].tolist()):
                read_at = instants[2 * index + 1]
                trace.fused("pull", key, instants[2 * index], read_at)
                trace.fused("push", key, read_at, read_at)
        storage = self.storage
        if self.checkpoints is None:
            self.pending.append((storage, block_keys, kernel, taken))
            return taken, cut
        self.commits += 1
        self.committed += 1
        values = storage.get_many(block_keys)
        deltas = np.empty((taken, 1, storage.value_length))
        storage.inner.set_many(block_keys, kernel(values, deltas[:, 0], taken))
        storage.wal.append_deltas(entry_keys[:taken].tolist(), deltas)
        return taken, cut

    def passed(self, cut: Tuple[float, str], keys: Sequence[int], left: int) -> bool:
        """Whether the hazard ``cut`` that stopped a visit of ``keys`` is gone
        from their :meth:`horizon`: the node's checkpoint due time has moved
        on, the membership event has fired, or no rebalance moves a key any
        more.  If so, the ``left`` entries the caller offers again are taken
        off its tally, so every entry counts once, under the reason that sent
        it to the event path.
        """
        if cut in self.horizon(keys):
            return False
        self.reasons[cut[1]] -= left
        return True

    def step(
        self,
        keys: Sequence[int],
        compute_time: float,
        kernel: Callable[[np.ndarray], np.ndarray],
    ):
        """Verified fused ``pull(keys)`` → ``kernel`` → ``push_async(keys)`` →
        ``yield compute_time``: the event to yield, or None to fall back.

        With ``t`` the current instant and ``d`` the shared-memory delay of
        ``len(keys)`` values, the event path reads at ``t1 = t + d``, writes
        at ``t2 = t1 + d`` and resumes the worker at ``t3 = t1 +
        compute_time``.  The step runs inline — read, ``kernel(values)``,
        write, the counters and latches of both operations — iff ``t3 >=
        t2`` (the worker's own next step must not overtake its write) and
        ``t2`` comes before every hazard of the verified :meth:`horizon`: the
        kernel's next event (ties at ``t2`` take the event path, so nothing
        can run between the read and the write), the node's next checkpoint,
        and the refusals (in range is the caller's duty, as for
        :meth:`visit`).  The first test to fail names the decline.

        The instants are the slow path's own additions (``(t + d) + d``,
        ``(t + d) + compute_time``), so the resume lands on its exact bits;
        the write's WAL record takes the LSN the event path's would, as
        nothing else runs in between.  A declined step leaves all state
        untouched.  The calling process must
        be the last thing the event being processed resumes (a callback still
        to run at ``t`` is on no queue the horizon test could see); every
        resume of a worker process — wake-up, timeout, handle completion,
        barrier release — is an event of its own.
        """
        sim = self.sim
        now = sim._now
        count = len(keys)
        delay = self.access_delay * count
        read_at = now + delay
        write_at = read_at + delay
        resume_at = read_at + compute_time
        if resume_at < write_at:
            self.reasons["t3 < t2"] += 1
            return None
        for instant, reason in self.horizon(keys, verified=True):
            if write_at >= instant:
                self.reasons[reason] += 1
                return None
        self.taken += 1
        metrics = self.metrics
        metrics.key_reads_local += count
        metrics.pulls_local += 1
        metrics.key_writes_local += count
        metrics.pushes_local += 1
        recorder = self.recorder
        if recorder is not None:
            recorder.span("pull", keys, now, read_at)
            recorder.span("push", keys, read_at, write_at)
        state = self.state
        self.policy.write_owned(state, keys, kernel(state.read_local_many(keys)))
        return sim.wake_at(resume_at)

    def drain(self):
        """Event resuming the worker at the replayed clock, or None if caught up.

        The trainer must ``yield`` the returned event before any non-fused
        operation, synchronization, or the end of its block — that closes the
        privacy window and realigns the worker with the kernel clock.  While
        visits are pending, the event commits them (:meth:`commit`) before
        it resumes the worker; a worker already caught up commits at once.
        """
        clock = self.clock
        if clock is None:
            return None
        self.clock = None
        if clock == self.sim._now:
            self.commit()
            return None
        wake = self.sim.wake_at(clock)
        if self.pending:
            wake.callbacks.append(self.commit)
        return wake

    def commit(self, wake: Optional[Event] = None) -> None:
        """Run the numerics of every pending visit (the drain ``wake``'s
        first callback).  Visits whose kernels share a ``batch`` run as one
        ``batch([(kernel, values, None, count), ...])`` call, which replaces
        each ``values`` in place; any other kernel runs alone."""
        merged = commit_visits(self.pending)
        if merged:
            self.commits += 1
            self.committed += merged


def commit_visits(pending: List[Tuple]) -> int:
    """Commit and empty a queue of pending block visits (see
    :meth:`FusedLocalSteps.commit`); returns how many it held."""
    batches: Dict[Any, List[Tuple]] = {}
    writes = []
    for storage, keys, kernel, count in pending:
        values = storage.get_many(keys)
        batch = getattr(kernel, "batch", None)
        if batch is None:
            values = kernel(values, None, count)
        else:
            batches.setdefault(batch, []).append((kernel, values, None, count))
        writes.append((storage, keys, values))
    pending.clear()
    for batch, visits in batches.items():
        batch(visits)
    for storage, keys, values in writes:
        storage.set_many(keys, values)
    return len(writes)


class WorkerClient:
    """Application-facing PS client bound to one worker thread.

    The client exposes the primitives of Table 2.  Synchronous variants are
    generators (to be used with ``yield from`` inside simulation processes);
    asynchronous variants return an :class:`OperationHandle` immediately.

    There is one client class for all systems: :meth:`_issue_pull` and
    :meth:`_issue_push` route every key through the server's
    :class:`~repro.ps.policy.ManagementPolicy`, group the keys by route kind
    and call the policy's action for each group.
    """

    #: Span recorder (:class:`repro.obs.core._OpRecorder`), attached by
    #: :meth:`ParameterServer.client` when tracing is on.  A class attribute,
    #: so untraced clients carry no extra instance state (and ship nothing
    #: extra through the parallel engine's result payloads).
    _trace: Optional[Any] = None

    def __init__(
        self,
        ps: "ParameterServer",
        state: NodeState,
        worker_id: int,
        local_worker_id: int,
    ) -> None:
        self.ps = ps
        self.state = state
        self.worker_id = worker_id
        self.local_worker_id = local_worker_id
        self.node_id = state.node_id
        self.rng = np.random.default_rng(
            derive_seed(ps.cluster.seed, state.node_id, local_worker_id + 1)
        )
        self._barrier_generation = 0
        self._clock = 0
        ps.management_policy.attach_client(self)

    # ------------------------------------------------------------- conveniences
    @property
    def sim(self) -> Simulator:
        """The cluster's simulator (exposed for custom worker logic)."""
        return self.ps.sim

    @property
    def policy(self):
        """The server's :class:`~repro.ps.policy.ManagementPolicy`."""
        return self.ps.management_policy

    @property
    def value_length(self) -> int:
        """Number of scalar entries stored per key."""
        return self.ps.ps_config.value_length

    @property
    def num_keys(self) -> int:
        """Size of the key space."""
        return self.ps.ps_config.num_keys

    def _check_keys(self, keys: Sequence[int]) -> Tuple[int, ...]:
        num_keys = self.ps.ps_config.num_keys
        cls = keys.__class__
        if (cls is list or cls is tuple) and len(keys) == 1:
            # Single-key fast lane: the dominant shape on the training hot
            # path (per-entry pulls/pushes).
            key = keys[0]
            if key.__class__ is int:
                if 0 <= key < num_keys:
                    return (key,)
                raise UnknownKeyError(key)
        if not hasattr(keys, "__len__"):
            keys = list(keys)  # accept iterators/generators, as before batching
        if type(keys) is not np.ndarray and len(keys) <= _SMALL_BATCH:
            checked = []
            for key in keys:
                key = int(key)
                if not 0 <= key < num_keys:
                    raise UnknownKeyError(key)
                checked.append(key)
            if not checked:
                raise ParameterServerError("operation requires at least one key")
            return tuple(checked)
        arr = np.asarray(keys, dtype=np.int64)
        if arr.ndim != 1:
            raise ParameterServerError(
                f"keys must be a one-dimensional sequence, got shape {arr.shape}"
            )
        if arr.size == 0:
            raise ParameterServerError("operation requires at least one key")
        out_of_range = (arr < 0) | (arr >= num_keys)
        if out_of_range.any():
            raise UnknownKeyError(int(arr[int(np.argmax(out_of_range))]))
        return tuple(arr.tolist())

    def _prepare_updates(self, keys: Tuple[int, ...], updates: Any) -> np.ndarray:
        updates = np.asarray(updates, dtype=np.float64)
        if updates.ndim == 1:
            updates = updates.reshape(1, -1)
        expected = (len(keys), self.ps.ps_config.value_length)
        if updates.shape != expected:
            raise ParameterServerError(
                f"updates have shape {updates.shape}, expected {expected}"
            )
        return updates

    # ---------------------------------------------------------------- sync API
    def pull(self, keys: Sequence[int]) -> Generator:
        """Synchronously pull ``keys``; returns an array with one row per key."""
        handle = self.pull_async(keys)
        if not handle.done:
            yield handle.completion_event
        return handle.values()

    def push(self, keys: Sequence[int], updates: Any) -> Generator:
        """Synchronously push cumulative ``updates`` for ``keys``."""
        handle = self.push_async(keys, updates, needs_ack=True)
        if not handle.done:
            yield handle.completion_event
        return handle

    def localize(self, keys: Sequence[int]) -> Generator:
        """Synchronously localize ``keys`` to this node (relocating policies only)."""
        handle = self.localize_async(keys)
        if not handle.done:
            yield handle.completion_event
        return handle

    # --------------------------------------------------------------- async API
    def pull_async(self, keys: Sequence[int]) -> OperationHandle:
        """Asynchronously pull ``keys``; returns a handle to wait on."""
        keys = self._check_keys(keys)
        handle = OperationHandle(self.sim, "pull", keys, self.value_length)
        recorder = self._trace
        if recorder is not None:
            recorder.issue(handle)
        self.state.register_handle(handle)
        self._issue_pull(handle, keys)
        return handle

    def push_async(
        self, keys: Sequence[int], updates: Any, needs_ack: bool = False
    ) -> OperationHandle:
        """Asynchronously push ``updates`` for ``keys``.

        Only the real backend honours ``needs_ack``.  In the simulator a
        remote push always asks for an ack and completes when it arrives,
        as with ``needs_ack=True``; honouring it would move the golden digests.
        """
        keys = self._check_keys(keys)
        updates = self._prepare_updates(keys, updates)
        handle = OperationHandle(self.sim, "push", keys, self.value_length)
        recorder = self._trace
        if recorder is not None:
            recorder.issue(handle)
        self.state.register_handle(handle)
        self._issue_push(handle, keys, updates)
        return handle

    def localize_async(self, keys: Sequence[int]) -> OperationHandle:
        """Asynchronously request local allocation of ``keys`` (relocating policies only)."""
        keys = self._check_keys(keys)
        handle = OperationHandle(self.sim, "localize", keys, self.value_length)
        recorder = self._trace
        if recorder is not None:
            recorder.issue(handle)
        self.state.register_handle(handle)
        self.ps.management_policy.issue_localize(self, handle, keys)
        return handle

    def fused_local_steps(self) -> Optional[FusedLocalSteps]:
        """Return a :class:`FusedLocalSteps` runner, or None if unsupported.

        Fusion needs shared-memory local access and a policy whose local
        access has no observers
        (:meth:`~repro.ps.policy.ManagementPolicy.fusion_guard`).  Elastic
        clusters and logged stores get a runner too: its lanes stop short of
        where a membership change or a checkpoint could observe them.
        """
        ps = self.ps
        if not ps.ps_config.shared_memory_local_access:
            return None
        guard = ps.management_policy.fusion_guard(self.state)
        if guard is False:
            return None
        return FusedLocalSteps(self, guard)

    def pull_if_local(self, key: int) -> Optional[np.ndarray]:
        """Return the value of ``key`` if it is stored locally, else ``None``.

        This is the primitive used by the word-vector latency-hiding scheme
        (Appendix A): negative samples whose parameters are not local are
        skipped and re-sampled rather than fetched remotely.
        """
        key = int(self._check_keys([key])[0])
        return self.ps.management_policy.pull_if_local(self, key)

    # ------------------------------------------------------------------ waiting
    def wait(self, handle: OperationHandle) -> Generator:
        """Wait for one outstanding operation."""
        if not handle.done:
            yield handle.completion_event
        return handle

    def wait_all(self, handles: Iterable[OperationHandle]) -> Generator:
        """Wait for all of ``handles``."""
        for handle in handles:
            if not handle.done:
                yield handle.completion_event
        return None

    # ----------------------------------------------------------- coordination
    def barrier(self) -> Generator:
        """Block until every worker in the cluster reached this barrier."""
        generation = self._barrier_generation
        self._barrier_generation += 1
        release = Event(self.sim)
        self.state.barrier_waiters.setdefault(generation, []).append(release)
        arrive = BarrierArrive(node=self.node_id, generation=generation)
        self.ps.network.send(
            self.node_id, coordinator_address(), arrive, message_size(0, 0)
        )
        yield release
        return None

    def clock(self) -> Generator:
        """Advance this worker's clock.

        What a clock advance synchronizes is the policy's business: nothing
        under static allocation and relocation (so algorithms written against
        the stale PS run everywhere), a flush of buffered writes under
        bounded staleness, a synchronization round under clock-triggered
        replication.
        """
        return self.policy.clock(self)

    # ----------------------------------------------------- route, group, act
    def _issue_pull(self, handle: OperationHandle, keys: Tuple[int, ...]) -> None:
        state = self.state
        policy = self.ps.management_policy
        metrics = state.metrics
        state.reader_clock = self._clock
        if len(keys) == 1:
            # Single-key lane: no grouping containers for the per-entry
            # training pattern.
            route = policy.route(state, keys[0])
            kind = route.kind
            if kind == ROUTE_LOCAL:
                metrics.key_reads_local += 1
                metrics.pulls_local += 1
                policy.pull_local(self, handle, keys, policy.resident_is_local)
                return
            if kind == ROUTE_REMOTE:
                metrics.key_reads_remote += 1
                metrics.pulls_remote += 1
                policy.pull_remote(self, handle, route.destination, keys)
                return
            routes: Sequence[Route] = (route,)
        elif policy.resident_is_local and all(state.storage.contains_flags(keys)):
            # Whole-batch lane: every key is resident, one shared-memory
            # access answers the operation in one piece.
            metrics.key_reads_local += len(keys)
            metrics.pulls_local += 1
            policy.pull_local(self, handle, keys, True)
            return
        else:
            routes = policy.route_many(state, keys)
        local: List[int] = []
        replica: List[int] = []
        subscribe: Dict[int, List[int]] = {}
        remote: Dict[int, List[int]] = {}
        for key, route in zip(keys, routes):
            kind = route.kind
            if kind == ROUTE_LOCAL:
                local.append(key)
            elif kind == ROUTE_REMOTE:
                remote.setdefault(route.destination, []).append(key)
            elif kind == ROUTE_QUEUE:
                # Answered locally once the key arrives (§3.2).
                metrics.queued_ops += 1
                metrics.key_reads_local += 1
                policy.enqueue(state, key, QueuedOp("local_pull", key, handle))
            elif kind == ROUTE_REPLICA:
                replica.append(key)
            elif kind == ROUTE_SUBSCRIBE:
                subscribe.setdefault(route.destination, []).append(key)
            else:
                raise ParameterServerError(f"cannot pull key {key} through a {kind!r} route")
        if local:
            metrics.key_reads_local += len(local)
            policy.pull_local(self, handle, local, False)
        if replica:
            metrics.key_reads_local += len(replica)
            metrics.replica_reads += len(replica)
            policy.pull_replica(self, handle, replica)
        for destination, dest_keys in subscribe.items():
            metrics.key_reads_remote += len(dest_keys)
            policy.subscribe(self, handle, destination, dest_keys)
        for destination, dest_keys in remote.items():
            metrics.key_reads_remote += len(dest_keys)
            policy.pull_remote(self, handle, destination, dest_keys)
        if subscribe or remote:
            metrics.pulls_remote += 1
        else:
            metrics.pulls_local += 1

    def _issue_push(
        self, handle: OperationHandle, keys: Tuple[int, ...], updates: np.ndarray
    ) -> None:
        state = self.state
        policy = self.ps.management_policy
        metrics = state.metrics
        if policy.buffers_pushes:
            policy.buffer_push(self, handle, keys, updates)
            return
        if len(keys) == 1:
            route = policy.route(state, keys[0], write=True)
            kind = route.kind
            if kind == ROUTE_LOCAL:
                metrics.key_writes_local += 1
                metrics.pushes_local += 1
                policy.push_local(
                    self, handle, keys, updates, None if policy.resident_is_local else [0]
                )
                return
            if kind == ROUTE_REMOTE:
                metrics.key_writes_remote += 1
                metrics.pushes_remote += 1
                self.ps.send_request(
                    self.node_id, handle, route.destination, keys, False, updates, [0]
                )
                return
            routes: Sequence[Route] = (route,)
        elif policy.resident_is_local and all(state.storage.contains_flags(keys)):
            metrics.key_writes_local += len(keys)
            metrics.pushes_local += 1
            policy.push_local(self, handle, keys, updates, None)
            return
        else:
            routes = policy.route_many(state, keys, write=True)
        local = KeyRows()
        replica = KeyRows()
        remote: Dict[int, KeyRows] = {}
        for row, (key, route) in enumerate(zip(keys, routes)):
            kind = route.kind
            if kind == ROUTE_LOCAL:
                local.add(key, row)
            elif kind == ROUTE_QUEUE:
                metrics.queued_ops += 1
                metrics.key_writes_local += 1
                # Snapshot at issue time: the caller may reuse its update
                # buffer while the key is in flight (see copy_rows).
                policy.enqueue(
                    state, key, QueuedOp("local_push", key, handle, updates[row].copy())
                )
            elif kind == ROUTE_REPLICA:
                replica.add(key, row)
            else:
                # Replication is established on reads; a write to a key this
                # node neither owns nor replicates goes to its server.
                group = remote.get(route.destination)
                if group is None:
                    group = remote[route.destination] = KeyRows()
                group.add(key, row)
        if local.keys or replica.keys:
            metrics.key_writes_local += len(local.keys) + len(replica.keys)
            metrics.replica_writes += len(replica.keys)
            policy.push_resident(self, handle, local, replica, updates)
        for destination, group in remote.items():
            metrics.key_writes_remote += len(group.keys)
            self.ps.send_request(
                self.node_id, handle, destination, group.keys, False, updates, group.rows
            )
        if remote:
            metrics.pushes_remote += 1
        else:
            metrics.pushes_local += 1

    # --------------------------------------------------------------- internals
    def _complete_after(
        self, delay: float, action: Callable[[], None]
    ) -> None:
        """Run ``action`` after ``delay`` simulated seconds (without blocking)."""
        self.sim.call_later(delay, _run_action, action)


class ParameterServer:
    """The simulated parameter server, parameterised by its management policy.

    The runtime is generic: one event-driven server per node
    (:meth:`_server_receive`) dispatches over the handler table of the
    server's
    :class:`~repro.ps.policy.ManagementPolicy`, the van demultiplexes
    responses, and every per-key decision is the policy's.  A named system is
    a subclass that only *declares* ``name``, ``policy_class`` and
    ``config_overrides``.
    """

    #: The management policy this system runs (set by every named system).
    policy_class: Optional[type] = None
    #: Configuration fields the system fixes, applied over the caller's
    #: ``ps_config`` (the classic variants pin their local-access mode).
    config_overrides: Dict[str, Any] = {}
    #: Human-readable name used in reports.
    name: str = "base"
    #: Class of the clients :meth:`client` hands to worker functions.
    client_class = WorkerClient

    #: Cluster membership record, attached by the elastic cluster runtime
    #: (:class:`repro.cluster.ElasticCluster`).  ``None`` for static clusters.
    membership: Optional[Any] = None
    #: Simulation driver installed by the elastic runtime (fires scheduled
    #: membership events while the simulation runs).  ``None`` -> plain run.
    _elastic_driver: Optional[Any] = None
    #: Barrier quorum override (the elastic runtime shrinks/grows it with the
    #: participating worker set).  ``None`` -> all configured workers.
    _barrier_expected: Optional[int] = None
    #: Durability manager (WAL + checkpoints), installed only when a
    #: :class:`~repro.durability.DurabilityConfig` is passed and enabled.
    #: ``None`` -> the stores stay unwrapped and no durability code runs.
    durability: Optional[Any] = None
    #: Tracer (:class:`repro.obs.Tracer`), installed only when a
    #: :class:`~repro.obs.TraceConfig` is passed and enabled.  ``None`` ->
    #: every trace hook is a single attribute-load-and-``None`` check.
    tracer: Optional[Any] = None
    #: Shard count for the parallel simulation engine
    #: (:mod:`repro.simnet.parallel`).  ``1`` -> sequential engine.  Set via
    #: ``make_parameter_server(..., jobs=N)`` or directly.
    jobs: int = 1
    #: Outcome of the most recent :meth:`run_workers` engine selection: the
    #: fallback reason (``None`` when the parallel engine ran, or no parallel
    #: run was requested) and the effective shard count that executed.
    _last_fallback_reason: Optional[str] = None
    _last_effective_jobs: int = 1
    #: Per-epoch record of the parallel engine (:mod:`repro.simnet.parallel`):
    #: shard count, executed events and window rounds per shard, and skew.
    shard_load_history: Optional[List[dict]] = None

    def __init__(
        self,
        cluster: ClusterConfig,
        ps_config: Optional[ParameterServerConfig] = None,
        initial_values: Optional[Any] = None,
        partitioner: Optional[KeyPartitioner] = None,
        durability: Optional[Any] = None,
        trace: Optional[Any] = None,
    ) -> None:
        if self.policy_class is None:
            raise ParameterServerError(
                f"{type(self).__name__} declares no policy_class; instantiate a "
                "named system (ClassicPS, LapsePS, ...)"
            )
        self.cluster = cluster
        ps_config = ps_config or ParameterServerConfig()
        if self.config_overrides:
            ps_config = replace(ps_config, **self.config_overrides)
        self.ps_config = ps_config
        self._build_substrate()
        self.partitioner = partitioner or RangePartitioner(
            self.ps_config.num_keys, cluster.num_nodes
        )
        if self.partitioner.num_keys != self.ps_config.num_keys:
            raise ParameterServerError("partitioner key space does not match PS config")
        if self.partitioner.num_nodes != cluster.num_nodes:
            raise ParameterServerError("partitioner node count does not match cluster")
        self._op_counter = 0
        #: Interned per-node addresses (tuple construction is measurable on
        #: the per-message hot path).
        self._server_addresses = [server_address(i) for i in range(cluster.num_nodes)]
        self._van_addresses = [van_address(i) for i in range(cluster.num_nodes)]
        #: The one policy object of this server; it installs its per-node
        #: tables as the node states are built.
        self.management_policy = self.policy_class(self)
        self.states: List[NodeState] = [NodeState(self, i) for i in range(cluster.num_nodes)]
        if durability is not None and durability.enabled:
            # Wrap the (still empty) stores before the initial inserts so the
            # baseline state is itself logged; the manager then checkpoints.
            # Imported lazily: the fast path pays nothing when durability is
            # off, and the durability package may import repro.ps first.
            from repro.durability import DurabilityManager

            self.durability = DurabilityManager(self, durability)
        self._initialize_parameters(initial_values)
        #: Van handlers for the policy's own response types, and its observer
        #: of pull responses / push acks (``None`` when it has none).
        self._van_handlers = self.management_policy.van_handlers()
        self._response_observer = self.management_policy.response_observer()
        self._start_threads()
        self._clients: Dict[Tuple[int, int], WorkerClient] = {}
        #: Block visits of the asserted fused lane whose numerics have not
        #: run yet (:meth:`FusedLocalSteps.visit`); empty between runs.
        self.pending_visits: List[Tuple] = []
        if trace is not None and trace.enabled:
            # Observation only (no kernel events, no RNG draws), so traced
            # runs stay bit-identical to untraced ones.  Imported lazily for
            # the same reason as the durability manager above.
            from repro.obs import Tracer

            self.tracer = Tracer(self, trace)

    # ------------------------------------------------------------ construction
    # What a server is built *on*, one method each, so that an execution
    # backend (:mod:`repro.backend.real`) replaces the substrate and inherits
    # the runtime.
    def _build_substrate(self) -> None:
        """Create ``sim`` and ``network``: the two objects through which the
        runtime and the policies schedule work and reach other nodes."""
        self.sim = Simulator()
        self.network = Network(self.sim, self.cluster.cost_model)

    def _new_storage(self) -> DenseStorage:
        """A fresh, empty parameter store for one node."""
        return DenseStorage(self.ps_config.num_keys, self.ps_config.value_length)

    def _initialize_parameters(self, initial_values: Optional[Any]) -> None:
        num_keys = self.ps_config.num_keys
        length = self.ps_config.value_length
        if initial_values is None:
            values = np.zeros((num_keys, length), dtype=np.float64)
        elif callable(initial_values):
            values = np.vstack(
                [np.asarray(initial_values(key), dtype=np.float64) for key in range(num_keys)]
            )
        else:
            values = np.asarray(initial_values, dtype=np.float64)
        if values.shape != (num_keys, length):
            raise ParameterServerError(
                f"initial values have shape {values.shape}, expected {(num_keys, length)}"
            )
        # At start-up every key lives at its static partition (its home node).
        keys = np.arange(num_keys, dtype=np.int64)
        owners = self.partitioner.nodes_of(keys)
        for node in range(self.cluster.num_nodes):
            node_keys = keys[owners == node]
            if node_keys.size:
                self.states[node].storage.insert_many(node_keys, values[node_keys])

    def _start_threads(self) -> None:
        # Server thread + van (response demux) on every node, barrier
        # coordinator on node 0.
        for state in self.states:
            # Event-driven server: handler timing is fully determined by
            # ``handle_at = max(arrival, busy_until) + cost``, so each message
            # is one scheduled handler call.
            address = server_address(state.node_id)
            self.network.register(address, state.node_id)
            self.network.attach_sink(
                address,
                partial(
                    self._server_receive,
                    state,
                    self.management_policy.server_handlers(state),
                ),
            )
            # The van charges no processing cost and reacts immediately, so
            # its handler runs directly at the delivery instant.
            address = van_address(state.node_id)
            self.network.register(address, state.node_id)
            self.network.attach_sink(address, partial(self._handle_van_message, state))
        self._coordinator_inbox = self.network.register(coordinator_address(), 0)
        self.sim.process(self._coordinator_loop(), name="coordinator")

    # ---------------------------------------------------------------- clients
    def client(self, node: int, local_worker: int) -> WorkerClient:
        """Return (and cache) the client for worker ``local_worker`` on ``node``."""
        key = (node, local_worker)
        if key not in self._clients:
            worker_id = self.cluster.worker_id(node, local_worker)
            client = self.client_class(self, self.states[node], worker_id, local_worker)
            tracer = self.tracer
            if tracer is not None:
                recorder = tracer.recorder(self.states[node], worker_id)
                if recorder is not None:
                    client._trace = recorder
            self._clients[key] = client
        return self._clients[key]

    def clients(self) -> List[WorkerClient]:
        """Return clients for every worker in the cluster, ordered by worker id."""
        result = []
        for node in range(self.cluster.num_nodes):
            for local_worker in range(self.cluster.workers_per_node):
                result.append(self.client(node, local_worker))
        return result

    def run_workers(
        self,
        worker_fn: Callable[[WorkerClient, int], Generator],
        until: Optional[float] = None,
        clients: Optional[Sequence[WorkerClient]] = None,
    ) -> List[Any]:
        """Spawn one process per worker from ``worker_fn`` and run the simulation.

        Args:
            worker_fn: Called as ``worker_fn(client, worker_id)``; must return a
                generator (the worker's simulated behaviour).
            until: Optional simulated-time cutoff.
            clients: Optional subset of clients to run (elastic clusters run
                only the workers of currently active nodes); defaults to every
                worker in the cluster.

        Returns:
            The return values of all spawned workers, in ``clients`` order.
        """
        if clients is None:
            clients = self.clients()
        jobs = self.jobs
        self._last_fallback_reason = None
        self._last_effective_jobs = 1
        if jobs > 1:
            from repro.simnet.parallel import (
                parallel_fallback_reason,
                run_workers_parallel,
                warn_parallel_fallback,
            )

            reason = parallel_fallback_reason(self, until)
            if reason is None:
                self._last_effective_jobs = min(jobs, self.cluster.num_nodes)
                return run_workers_parallel(self, worker_fn, clients, jobs)
            self._last_fallback_reason = reason
            warn_parallel_fallback(reason)
            if self.tracer is not None:
                self.tracer.marker(
                    0, self.sim.now, "parallel:fallback", reason=reason, jobs=jobs
                )
        processes = []
        for client in clients:
            generator = worker_fn(client, client.worker_id)
            processes.append(
                self.sim.process(generator, name=f"worker-{client.worker_id}")
            )
        self._run_simulation(until=until, processes=processes)
        results = []
        for process in processes:
            if not process.processed:
                raise ParameterServerError(
                    f"worker process {process.name} did not finish "
                    "(deadlock or time limit reached)"
                )
            results.append(process.value)
        return results

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (used when worker processes were started manually)."""
        return self._run_simulation(until=until)

    def _run_simulation(
        self, until: Optional[float] = None, processes: Optional[List[Any]] = None
    ) -> float:
        """Advance the simulation; the elastic runtime hooks in here to fire
        scheduled membership events at their simulated times."""
        driver = self._elastic_driver
        if driver is None:
            return self.sim.run(until=until)
        return driver.drive(until=until, processes=processes)

    # -------------------------------------------------- inspection (by policy)
    def current_owner(self, key: int) -> int:
        """Node that currently owns ``key``."""
        return self.management_policy.current_owner(key)

    def current_owners(self, keys: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`current_owner`: one node id per key."""
        return self.management_policy.current_owners(keys)

    def replica_holders(self, key: int) -> Tuple[int, ...]:
        """Nodes currently holding a replica of ``key`` (outside simulation)."""
        return self.management_policy.replica_holders(key)

    def key_management(self, key: int) -> str:
        """Name of the technique that currently manages ``key``."""
        return self.management_policy.key_management(key)

    def key_guarantees(self, key: int) -> Dict[str, bool]:
        """Table-1 consistency classification of ``key`` (see §3.4)."""
        return self.management_policy.key_guarantees(key)

    def parameter(self, key: int) -> np.ndarray:
        """Return the authoritative current value of ``key`` (outside simulation)."""
        owner = self.current_owner(key)
        return self.states[owner].storage.get(key)

    def all_parameters(self) -> np.ndarray:
        """Return the full model as an array of shape (num_keys, value_length).

        Keys are gathered into per-owner groups so that every local store is
        read once with a batched ``get_many`` instead of once per key.
        """
        num_keys = self.ps_config.num_keys
        keys = np.arange(num_keys, dtype=np.int64)
        owners = self.current_owners(keys)
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

    @property
    def simulated_time(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    # ------------------------------------------------------------ server loops
    def _server_receive(self, state: NodeState, dispatch: Dict, message: Any) -> None:
        """Event-driven server thread: one scheduled handler call per message.

        The server handles one message at a time in arrival order, so a
        message arriving at ``a`` is handled at ``max(a, busy_until) + cost``
        (``busy_until`` is monotonic, which keeps the order FIFO); the
        handler is scheduled directly at that instant.
        """
        entry = dispatch.get(type(message))
        if entry is None:
            raise ParameterServerError(
                f"{self.name} PS server on node {state.node_id} received "
                f"unexpected message {message!r}"
            )
        state.metrics.server_messages += 1
        cost, handler = entry
        sim = self.sim
        now = sim._now
        busy = state.server_busy_until
        start = now if now > busy else busy
        handle_at = start + cost
        state.server_busy_until = handle_at
        trace = state.trace
        if trace is not None:
            trace.server_span(
                type(message).__name__, now, start, handle_at, state.metrics
            )
        sim.call_later(handle_at - now, _run_handler, (handler, state, message))

    def _handle_van_message(self, state: NodeState, message: Any) -> None:
        if isinstance(message, PullResponse):
            handle = state.outstanding.get(message.op_id)
            if handle is not None:
                handle.complete_keys(message.keys, message.values)
                observer = self._response_observer
                if observer is not None:
                    observer(state, message)
        elif isinstance(message, PushAck):
            handle = state.outstanding.get(message.op_id)
            if handle is not None:
                handle.complete_keys(message.keys)
                observer = self._response_observer
                if observer is not None:
                    observer(state, message)
        elif isinstance(message, BarrierRelease):
            waiters = state.barrier_waiters.pop(message.generation, [])
            for event in waiters:
                event.succeed(None)
        else:
            handler = self._van_handlers.get(type(message))
            if handler is None:
                raise ParameterServerError(
                    f"node {state.node_id} van received unexpected message {message!r}"
                )
            handler(state, message)

    # ------------------------------------------------- transport for policies
    def send_to_server(self, src_node: int, dst_node: int, payload: Any, size: int) -> None:
        """Send ``payload`` to the server thread of ``dst_node``."""
        self.network.send(src_node, self._server_addresses[dst_node], payload, size)

    def send_request(
        self,
        src_node: int,
        handle: OperationHandle,
        destination: int,
        chunk: Sequence[int],
        pull: bool,
        updates: Optional[np.ndarray] = None,
        rows: Optional[List[int]] = None,
    ) -> None:
        """Send one pull/push message for ``chunk`` — the keys of ``handle``
        that go to ``destination``, grouped into one message (§3.7) — from
        ``src_node``.  It carries the handle's op id, under which the van of
        ``src_node`` finds the handle again; ``rows`` names the rows of
        ``updates`` the chunk carries.  Pushes always request an ack."""
        op_id = handle.op_id
        reply_to = self._van_addresses[src_node]
        if pull:
            # Positional construction (keyword parsing is measurable here).
            request: Any = PullRequest(op_id, tuple(chunk), reply_to)
            size = message_size(len(chunk), 0)
        else:
            # One sliced copy instead of a per-key vstack.
            chunk_updates = copy_rows(updates, rows)
            request = PushRequest(op_id, tuple(chunk), chunk_updates, reply_to, True)
            size = message_size(len(chunk), chunk_updates.size)
        self.network.send(src_node, self._server_addresses[destination], request, size)

    def respond_pull(
        self, state: NodeState, request: Any, keys: Sequence[int], values: np.ndarray
    ) -> None:
        """Send a :class:`PullResponse` for ``keys`` back to the requester."""
        response = PullResponse(request.op_id, tuple(keys), values, state.node_id)
        size = message_size(len(keys), values.size)
        self.network.send(state.node_id, request.reply_to, response, size)

    def ack_push(self, state: NodeState, request: Any, keys: Sequence[int]) -> None:
        """Acknowledge an applied push (if the requester asked for an ack)."""
        if request.needs_ack:
            ack = PushAck(request.op_id, tuple(keys), state.node_id)
            self.network.send(
                state.node_id, request.reply_to, ack, message_size(len(keys), 0)
            )

    def next_op_id(self) -> int:
        """Return a fresh operation id (unique per node, which is what every
        table keyed by op ids — all of them per node — needs)."""
        self._op_counter += 1
        return self._op_counter

    # ------------------------------------------------------------- coordinator
    @property
    def barrier_size(self) -> int:
        """Workers that must arrive to release a barrier.

        Defaults to every configured worker; the elastic cluster runtime
        overrides it (via ``_barrier_expected``) to the participating worker
        set of the current epoch, so barriers keep working while nodes join
        and leave.
        """
        if self._barrier_expected is not None:
            return self._barrier_expected
        return self.cluster.total_workers

    def _coordinator_loop(self) -> Generator:
        arrivals: Dict[int, List[BarrierArrive]] = {}
        while True:
            message = yield self._coordinator_inbox.get()
            if not isinstance(message, BarrierArrive):
                raise ParameterServerError(
                    f"coordinator received unexpected message {message!r}"
                )
            generation_list = arrivals.setdefault(message.generation, [])
            generation_list.append(message)
            if len(generation_list) == self.barrier_size:
                # Release every node that has waiters for this generation.
                nodes_to_release = sorted({arrive.node for arrive in generation_list})
                for node in nodes_to_release:
                    self.network.send(
                        0,
                        van_address(node),
                        BarrierRelease(generation=message.generation),
                        message_size(0, 0),
                    )
                del arrivals[message.generation]
