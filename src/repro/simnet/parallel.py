"""Conservative parallel discrete-event engine: shard nodes across cores.

The sequential kernel executes every simulated node's events on one Python
core.  This module forks the fully constructed simulation into ``P`` shard
processes at each driver epoch (``ParameterServer.run_workers``), gives each
shard a block of nodes, and synchronizes the shards with **conservative time
windows**:

* **Lookahead.**  Every cross-node message is charged at least
  ``CostModel.network_latency`` of delay (``message_time(size) = latency +
  size / bandwidth``), and the per-channel FIFO clocks only push deliveries
  *later*.  Therefore a message sent at simulated time ``t`` is delivered no
  earlier than ``t + L`` with ``L = network_latency`` — the classic
  lookahead bound of a conservative parallel DES.
* **Windows.**  Each round, every shard announces ``lo_i = min(`` earliest
  pending local event, earliest delivery of the records it just shipped
  ``)`` and all shards agree on the global horizon ``G = min_i lo_i``.
  Events in ``[G, G + L)`` cannot be influenced by any not-yet-exchanged
  message (those arrive at ``>= G + L``), so each shard processes its own
  events below ``G + L`` without coordination, then exchanges the newly
  generated cross-shard records and repeats.  ``G == inf`` on every shard
  means global quiescence: the epoch is done.
* **Membership barriers** (elastic clusters).  A scheduled membership event
  at time ``T`` splits the epoch: windows are clipped to ``T``, and once
  the global horizon shows that every event and in-flight delivery at or
  below ``T`` is accounted for, the shards drain *through* ``T``
  (``run_window(T, inclusive=True)`` — safe once ``G + L > T``), exchange
  rebalance-progress and control-plane state, and every shard executes the
  identical event apply against identical merged state under the replicated
  scheduling stream (:meth:`Simulator.begin_apply`).  The apply's
  cross-node sends re-enter the ordinary window exchange, so the epoch
  resumes seamlessly and stays bit-identical to ``jobs=1``.
* **Durable windows** (durability subsystem).  Inside a shard, WAL appends
  draw *provisional* LSNs from the forked clock and capture a global order
  key (:meth:`Simulator.wal_order_key` — the two-level (window, shard,
  local) order).  At epoch merge the parent sorts all shards' post-fork
  records by that key, rewrites provisional LSNs into the cluster total
  order, and stitches records and checkpoints back into the per-node logs,
  so later recovery replays identically to a sequential run.
* **Shard plan.**  Every epoch forks from contiguous node blocks
  (:func:`make_shard_plan`).  Results are plan-independent (lineage keys
  reproduce the sequential order under any partition), so the plan only
  decides wall-clock load; each epoch records its per-shard executed
  events and their skew on ``ps.shard_load_history``.
* **Determinism.**  Every shard-mode event is keyed by its *lineage*: the
  flat tuple ``(sched_time,) + parent_lineage + (shard, seq)`` with
  ``(-inf,)`` as the root's parent, a prefix-free serialization of the
  recursive (scheduling instant, parent, shard, seq) order (see the
  :mod:`repro.simnet.kernel` module docstring).  Cross-shard records merge
  into the receiver's heap under the sender's lineage, which reproduces the
  sequential engine's global sequence order.
  The identity sweep in ``tests/experiments/test_parallel_identity.py``
  holds the result to the same bit-identity bar as every prior engine
  change.

Shards are forked with :mod:`multiprocessing`'s ``fork`` start method, so
each child inherits the whole object graph (parameter server, trainers,
numpy state) copy-on-write.  At the end of the epoch each child ships the
mutated state of *its* nodes back through a pipe — node storage and policy
tables, worker RNGs and clocks, channel clocks of the channels it owns,
traffic-counter deltas, WAL segments, and membership outcomes — and the
parent merges them so the next epoch forks from an up-to-date image.  The
children run under a :class:`~repro.backend.supervisor.ProcessGroup`: one
that fails or dies ends the epoch at once, named, and none survives it.

Workloads the window protocol cannot shard (pending failure recovery,
WAL truncation, single-node clusters, zero network latency, simulated-time
cutoffs) are detected by :func:`parallel_fallback_reason` and fall back to
the sequential engine with a once-per-reason warning.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.backend.supervisor import ProcessGroup
from repro.errors import ParameterServerError, SimulationError
from repro.simnet.network import NetworkStats, _ChannelClock

#: Op-id namespace stride: shard ``r`` draws operation ids above
#: ``(r + 1) << 48``, so concurrently issued ops never collide.  Op ids are
#: transient (handles complete within the epoch) and never enter message
#: sizes, so the namespacing is unobservable in simulation results.
_OP_ID_STRIDE = 1 << 48

#: Seconds a shard waits for a peer's exchange message (or the parent for a
#: shard's result) before declaring the window barrier deadlocked.
DEFAULT_BARRIER_TIMEOUT = 120.0

#: NodeState attributes that must not be shipped between processes: object
#: graph backlinks (`ps`, `node`, the bound cleanup method) stay the
#: parent's, and the in-flight tables (`outstanding`, `barrier_waiters`)
#: hold kernel events — they are asserted empty at epoch quiescence instead.
_STATE_SKIP = frozenset({"ps", "node", "_outstanding_cleanup", "outstanding", "barrier_waiters"})

#: WorkerClient attributes that must not be shipped (backlinks).
_CLIENT_SKIP = frozenset({"ps", "state"})


@dataclass(frozen=True)
class ShardPlan:
    """The node partition and synchronization constants of one parallel run."""

    num_shards: int
    #: node id -> shard rank.  :func:`make_shard_plan` assigns contiguous
    #: blocks; the engine is correct under any assignment.
    node_ranks: Dict[int, int]
    #: shard rank -> list of owned node ids.
    shard_nodes: List[List[int]]
    #: Conservative lookahead: minimum cross-node delivery latency.
    lookahead: float


def make_shard_plan(num_nodes: int, jobs: int, lookahead: float) -> ShardPlan:
    """Partition ``num_nodes`` nodes into ``min(jobs, num_nodes)`` contiguous shards."""
    num_shards = min(jobs, num_nodes)
    node_ranks: Dict[int, int] = {}
    shard_nodes: List[List[int]] = [[] for _ in range(num_shards)]
    for node in range(num_nodes):
        # Even contiguous blocks: shard r owns nodes [r*N/P, (r+1)*N/P).
        rank = node * num_shards // num_nodes
        node_ranks[node] = rank
        shard_nodes[rank].append(node)
    return ShardPlan(
        num_shards=num_shards,
        node_ranks=node_ranks,
        shard_nodes=shard_nodes,
        lookahead=lookahead,
    )


def parallel_fallback_reason(ps: Any, until: Optional[float] = None) -> Optional[str]:
    """Why this run cannot use the parallel engine (None when it can).

    The gate is conservative: anything the window-barrier protocol cannot
    replay deterministically falls back to the sequential engine.  Elastic
    membership changes (join/drain/rejoin) and durability logging shard
    fine since the membership-barrier and LSN-stitching machinery; failure
    *recovery* (a pending fail event) and WAL truncation do not.
    """
    if until is not None:
        return "a simulated-time cutoff was requested"
    driver = ps._elastic_driver
    if driver is None and ps.membership is not None:
        return "membership is attached without an elastic driver"
    if driver is not None:
        from repro.cluster.schedule import FAIL

        if any(event.kind == FAIL for event in driver._pending):
            return "a fail event is scheduled (failure recovery runs sequentially)"
        if driver._pending and driver._pending[0].time <= ps.sim.now:
            return "a membership event is already due at the epoch boundary"
    if ps.network.failed_nodes:
        return "cluster has failed nodes (failure recovery runs sequentially)"
    durability = getattr(ps, "durability", None)
    if durability is not None and durability.config.truncate_on_checkpoint:
        return "WAL truncation on checkpoint defeats shard LSN stitching"
    if ps.cluster.num_nodes < 2:
        return "cluster has a single node"
    if ps.cluster.cost_model.network_latency <= 0.0:
        return "cost model has no cross-node latency (zero lookahead)"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the platform does not support the fork start method"
    if multiprocessing.current_process().daemon:
        return "already inside a daemonic worker process"
    return None


# --------------------------------------------------------------------- child
def _strip_relocating(table: Dict[int, Any]) -> Dict[int, Any]:
    """Handle-free copy of a ``relocating_in`` table (for pickling).

    ``RelocatingKey`` entries carry localize handles and queued operations
    whose object graphs reach the simulator (generators — unpicklable).
    The barrier apply only reads an entry's existence and appends fresh
    handles, and an entry still pending at epoch quiescence can never
    complete (its transfer was dropped), so shipping the routing facts
    without the in-flight attachments is exact.
    """
    if not table:
        return {}
    cls = next(iter(table.values())).__class__
    return {
        key: cls(
            key=entry.key,
            requested_at=entry.requested_at,
            pending_new_owner=entry.pending_new_owner,
        )
        for key, entry in table.items()
    }


def _capture_barrier_state(ps: Any, plan: ShardPlan, rank: int) -> Dict[int, Dict]:
    """Control-plane state of this shard's nodes, for the barrier sync.

    The replicated membership-event apply reads three per-node structures
    that ordinary (owner-shard-only) message processing mutates: the
    parameter store (key residency), the home-location table, and the
    relocation-in-flight table.  Each shard ships its *owned* nodes' copies
    so every shard holds the identical merged image before the apply.
    """
    blob: Dict[int, Dict] = {}
    for node_id in plan.shard_nodes[rank]:
        state = ps.states[node_id]
        storage = state.storage
        entry: Dict[str, Any] = {"storage": getattr(storage, "inner", storage)}
        home = getattr(state, "home_location", None)
        if home is not None:
            entry["home_location"] = dict(home)
        relocating = getattr(state, "relocating_in", None)
        if relocating is not None:
            entry["relocating_in"] = _strip_relocating(relocating)
        blob[node_id] = entry
    return blob


def _install_barrier_state(ps: Any, blob: Dict[int, Dict]) -> None:
    """Install a peer shard's node state (foreign nodes only, by construction)."""
    durability = ps.durability
    for node_id, entry in blob.items():
        state = ps.states[node_id]
        storage = entry["storage"]
        if durability is not None:
            # Re-wrap in this process's WAL proxy to keep the durable-store
            # invariant; the epoch-end assertion verifies no foreign-node
            # append ever fires (the apply never mutates storage).
            storage = durability.wrap_fresh_storage(node_id, storage)
        state.storage = storage
        if "home_location" in entry:
            state.home_location = entry["home_location"]
        if "relocating_in" in entry:
            state.relocating_in = entry["relocating_in"]


def _shard_barrier(
    ps: Any,
    driver: Any,
    plan: ShardPlan,
    rank: int,
    conns: Dict[int, Any],
    timeout: float,
    barrier_time: float,
) -> None:
    """Fire the membership event(s) due at ``barrier_time`` on every shard.

    Reached once the global horizon proves every event and in-flight
    delivery at or below the barrier time has been processed.  All shards:
    advance the clock to the barrier instant, all-to-all exchange rebalance
    progress and control-plane state, finish globally completed rebalance
    operations (in completion-time order — the callbacks the sequential
    engine would already have fired), then execute the identical event
    apply against the identical merged state.
    """
    sim = ps.sim
    if sim._now < barrier_time:
        sim._now = barrier_time
    progress = driver.shard_op_progress()
    blob = _capture_barrier_state(ps, plan, rank)
    peers = [j for j in range(plan.num_shards) if j != rank]
    for j in peers:
        conns[j].send((progress, blob))
    progress_rows: List[Any] = [None] * plan.num_shards
    progress_rows[rank] = progress
    for j in peers:
        if not conns[j].poll(timeout):
            raise SimulationError(
                f"shard {rank}: no barrier-sync message from shard {j} "
                f"within {timeout}s (deadlocked membership barrier?)"
            )
        progress_j, blob_j = conns[j].recv()
        progress_rows[j] = progress_j
        _install_barrier_state(ps, blob_j)
    driver.finish_shard_ops(progress_rows)
    driver.apply_in_shard()


def _run_shard(
    ps: Any,
    rank: int,
    plan: ShardPlan,
    worker_fn: Callable[[Any, int], Generator],
    owned_clients: Sequence[Tuple[int, Any]],
    conns: Dict[int, Any],
    timeout: float,
) -> Dict[str, Any]:
    """Shard body: window loop plus the end-of-epoch state payload."""
    sim = ps.sim
    network = ps.network
    driver = ps._elastic_driver
    durability = ps.durability
    # Counts only what this shard sends; the parent adds it to its own.
    network.stats = NetworkStats()
    sim.enter_shard_mode(rank)
    network.enable_shard_mode(plan.node_ranks, rank)
    ps._op_counter = (rank + 1) * _OP_ID_STRIDE

    if durability is not None:
        wal_base: Dict[int, int] = {}
        checkpoint_base: Dict[int, int] = {}
        for node_id, wal in durability.wals.items():
            wal_base[node_id] = len(wal.records)
            checkpoint_base[node_id] = len(durability.checkpoints[node_id].checkpoints)
            wal.enable_shard_capture(sim.wal_order_key)
        lsn_base = durability.clock.last

    processes = []
    for index, client in owned_clients:
        generator = worker_fn(client, client.worker_id)
        processes.append(
            (index, sim.process(generator, name=f"worker-{client.worker_id}"))
        )

    peers = [j for j in range(plan.num_shards) if j != rank]
    node_ranks = plan.node_ranks
    lookahead = plan.lookahead
    infinity = float("inf")
    #: Latched barrier: once the global horizon reaches the next membership
    #: event's time, the shards commit to firing it and drain toward it.
    fire_at: Optional[float] = None
    #: Window exchanges so far (identical on every shard: rounds are framed).
    window_rounds = 0
    while True:
        window_rounds += 1
        records = network.take_shard_outbox()
        per_peer: Dict[int, list] = {j: [] for j in peers}
        lo = infinity
        for record in records:
            # record = (deliver_at, lineage, dst_node, dst_address, payload)
            if record[0] < lo:
                lo = record[0]
            per_peer[node_ranks[record[2]]].append(record)
        next_local = sim.peek_time()
        if next_local is not None and next_local < lo:
            lo = next_local
        local_done = all(process.processed for _, process in processes)
        for j in peers:
            conns[j].send((per_peer[j], lo, local_done))
        horizon = lo
        all_done = local_done
        for j in peers:
            if not conns[j].poll(timeout):
                raise SimulationError(
                    f"shard {rank}: no window-exchange message from shard {j} "
                    f"within {timeout}s (deadlocked shard barrier?)"
                )
            records_j, lo_j, done_j = conns[j].recv()
            if lo_j < horizon:
                horizon = lo_j
            if not done_j:
                all_done = False
            for deliver_at, lineage, _dst_node, dst_address, payload in records_j:
                sim.schedule_foreign(
                    deliver_at, lineage, network.shard_put(dst_address), payload
                )
        # All latch/fire decisions below depend only on (horizon, all_done,
        # barrier_at), which are identical on every shard — so every shard
        # takes the same branch each round and the exchange stays framed.
        barrier_at = driver.shard_barrier_time() if driver is not None else None
        if fire_at is None and barrier_at is not None and horizon >= barrier_at:
            if horizon == infinity and all_done:
                # Workers finished and the cluster is quiescent: the epoch is
                # over and the event stays pending for a later epoch, exactly
                # as the sequential driver leaves it.
                break
            fire_at = barrier_at
        if fire_at is None:
            if horizon == infinity:
                break
            bound = horizon + lookahead
            if barrier_at is not None and barrier_at < bound:
                # Clip the window at the scheduled event: events at or past
                # its time must wait for the barrier apply.
                bound = barrier_at
            sim.run_window(bound)
            continue
        if horizon > fire_at:
            # Nothing anywhere is pending at or below the barrier time (the
            # horizon covers both local peeks and in-flight deliveries):
            # fire the membership event(s) on the synchronized state.
            _shard_barrier(ps, driver, plan, rank, conns, timeout, fire_at)
            fire_at = None
            continue
        if horizon + lookahead > fire_at:
            # The remaining work at or below the barrier time can no longer
            # generate deliveries at or below it (they would land past
            # horizon + lookahead): drain through the barrier instant
            # inclusively, as the sequential engine exhausts same-instant
            # work before firing the event.
            sim.run_window(fire_at, inclusive=True)
        else:
            sim.run_window(horizon + lookahead)

    unfinished = [process.name for _, process in processes if not process.processed]
    states: Dict[int, Dict[str, Any]] = {}
    for node_id in plan.shard_nodes[rank]:
        state = ps.states[node_id]
        if state.outstanding or state.barrier_waiters:
            raise SimulationError(
                f"shard {rank}: node {node_id} still has in-flight operations "
                "at epoch quiescence"
            )
        data = {
            name: value for name, value in vars(state).items() if name not in _STATE_SKIP
        }
        if durability is not None:
            # Ship the raw store: the WAL proxy's object graph reaches the
            # simulator (unpicklable) and the parent re-wraps on merge; the
            # log itself travels through the payload's durability section.
            data["storage"] = getattr(data["storage"], "inner", data["storage"])
        relocating = data.get("relocating_in")
        if relocating:
            data["relocating_in"] = _strip_relocating(relocating)
        states[node_id] = data
    payload = {
        "rank": rank,
        "now": sim._now,
        "sequence": sim._sequence,
        "states": states,
        "node_rngs": {node_id: ps.nodes[node_id].rng for node_id in plan.shard_nodes[rank]},
        "clients": {
            index: {
                name: value
                for name, value in vars(client).items()
                if name not in _CLIENT_SKIP
            }
            for index, client in owned_clients
        },
        "channel_clocks": {
            channel: clock.last
            for channel, clock in network._channel_clock.items()
            if node_ranks[channel[0]] == rank
        },
        "stats_delta": network.stats,
        "worker_results": {index: process.value for index, process in processes},
        "unfinished": unfinished,
        "executed_events": sim.executed_events,
        "window_rounds": window_rounds,
    }
    if driver is not None:
        payload["elastic"] = driver.shard_epoch_summary(rank)
    if durability is not None:
        owned: Set[int] = set(plan.shard_nodes[rank])
        for node_id, wal in durability.wals.items():
            if node_id not in owned and len(wal.records) != wal_base[node_id]:
                raise SimulationError(
                    f"shard {rank}: the WAL of non-owned node {node_id} grew "
                    "during the epoch (appends must be owner-shard-local)"
                )
        payload["durability"] = {
            "lsn_base": lsn_base,
            "records": {
                node_id: (
                    durability.wals[node_id].records[wal_base[node_id]:],
                    durability.wals[node_id].shard_keys,
                )
                for node_id in plan.shard_nodes[rank]
            },
            "checkpoints": {
                node_id: durability.checkpoints[node_id].checkpoints[
                    checkpoint_base[node_id]:
                ]
                for node_id in plan.shard_nodes[rank]
            },
            "next_checkpoint_at": {
                node_id: durability._next_checkpoint_at[node_id]
                for node_id in plan.shard_nodes[rank]
                if node_id in durability._next_checkpoint_at
            },
        }
    return payload


def _shard_main(
    report: Callable[[Dict[str, Any]], None],
    ps: Any,
    rank: int,
    plan: ShardPlan,
    worker_fn: Callable[[Any, int], Generator],
    owned_clients: Sequence[Tuple[int, Any]],
    conns: List[Dict[int, Any]],
    timeout: float,
) -> None:
    # The fork copied every shard's pipe ends; holding on to a peer's would
    # keep its pipes open after its death, and nobody would see an EOF.
    for peer, ends in enumerate(conns):
        if peer != rank:
            for conn in ends.values():
                conn.close()
    report(_run_shard(ps, rank, plan, worker_fn, owned_clients, conns[rank], timeout))


# -------------------------------------------------------------------- parent
def _apply_payload(ps: Any, clients: Sequence[Any], payload: Dict) -> None:
    """Merge one shard's end-of-epoch state into the parent image."""
    network = ps.network
    for node_id, data in payload["states"].items():
        # In-place update: sinks, clients, and lanes hold references to the
        # original NodeState object, which must stay identical.
        state = ps.states[node_id]
        vars(state).update(data)
        if ps.durability is not None:
            state.storage = ps.durability.wrap_fresh_storage(node_id, state.storage)
            # The shipped payload replaced the metrics object the node's WAL
            # was constructed with; re-point it so later appends (parent-side
            # or in next epoch's children) keep counting on the live object.
            ps.durability.wals[node_id].metrics = state.metrics
    for node_id, rng in payload["node_rngs"].items():
        ps.nodes[node_id].rng = rng
    for index, data in payload["clients"].items():
        vars(clients[index]).update(data)
    for channel, last in payload["channel_clocks"].items():
        clock = network._channel_clock.get(channel)
        if clock is None:
            clock = network._channel_clock[channel] = _ChannelClock()
        clock.last = last
    network.stats.absorb(payload["stats_delta"])


def _merge_durability(ps: Any, payloads: Sequence[Dict]) -> None:
    """Stitch the shards' WAL segments into the cluster LSN total order.

    Each shard logged its owned nodes' mutations with provisional LSNs from
    its forked clock and captured one global order key per record.  Sorting
    every shard's post-fork records by that key reproduces the sequential
    engine's append interleaving; final LSNs are assigned in that order,
    shipped checkpoints are remapped through the per-shard provisional ->
    final table, and the cluster clock advances past the merged suffix.
    Per-node record order is preserved (a node's records come from exactly
    one shard, already in append order), so ``records_since`` bisection and
    replay behave identically to a sequential run.
    """
    manager = ps.durability
    lsn_base = manager.clock.last
    entries: List[Tuple[Tuple, int, int, Any]] = []
    for payload in payloads:
        segment = payload["durability"]
        if segment["lsn_base"] != lsn_base:
            raise SimulationError(
                "parallel engine: shard forked from a different LSN clock "
                f"({segment['lsn_base']} != {lsn_base})"
            )
        rank = payload["rank"]
        for node_id, (records, keys) in segment["records"].items():
            for record, key in zip(records, keys):
                entries.append((key, rank, node_id, record))
    entries.sort(key=lambda entry: entry[0])
    final_map: Dict[int, Dict[int, int]] = {payload["rank"]: {} for payload in payloads}
    lsn = lsn_base
    for key, rank, node_id, record in entries:
        lsn += 1
        final_map[rank][record.lsn] = lsn
        record.lsn = lsn
        wal = manager.wals[node_id]
        wal.records.append(record)
        wal._last_lsn = lsn
    manager.clock._last = lsn
    for payload in payloads:
        segment = payload["durability"]
        mapping = final_map[payload["rank"]]
        for node_id, checkpoints in segment["checkpoints"].items():
            store = manager.checkpoints[node_id]
            for checkpoint in checkpoints:
                if checkpoint.lsn > lsn_base:
                    checkpoint.lsn = mapping[checkpoint.lsn]
                store.add(checkpoint)
        manager._next_checkpoint_at.update(segment["next_checkpoint_at"])


def run_workers_parallel(
    ps: Any,
    worker_fn: Callable[[Any, int], Generator],
    clients: Sequence[Any],
    jobs: int,
    timeout: float = DEFAULT_BARRIER_TIMEOUT,
) -> List[Any]:
    """Run one driver epoch on the parallel engine (caller checked eligibility).

    Forks ``min(jobs, num_nodes)`` shard processes, runs the conservative
    window protocol (with membership barriers on elastic clusters) to
    quiescence, merges the shards' state — node tables, WAL segments,
    membership outcome — back into the parent, and returns the worker
    return values in ``clients`` order — exactly the contract of the
    sequential ``run_workers``.
    """
    sim = ps.sim
    # Drain everything scheduled at or below the current time (coordinator
    # bootstrap, stray zero-delay events) so the children fork a quiescent
    # image whose heap holds only future events.
    while sim._ring or (sim._queue and sim._queue[0][0] <= sim._now):
        sim.step()

    plan = make_shard_plan(
        ps.cluster.num_nodes, jobs, ps.cluster.cost_model.network_latency
    )
    owned: List[List[Tuple[int, Any]]] = [[] for _ in range(plan.num_shards)]
    for index, client in enumerate(clients):
        owned[plan.node_ranks[client.node_id]].append((index, client))

    ctx = multiprocessing.get_context("fork")
    # Pairwise duplex pipes for the window exchange: conns[i][j] is shard
    # i's connection to shard j.  Per-peer channels keep rounds framed (one
    # recv per peer per round) without any cross-round buffering.
    conns: List[Dict[int, Any]] = [{} for _ in range(plan.num_shards)]
    for i in range(plan.num_shards):
        for j in range(i + 1, plan.num_shards):
            end_i, end_j = ctx.Pipe(duplex=True)
            conns[i][j] = end_i
            conns[j][i] = end_j

    with ProcessGroup(ctx, "parallel engine") as group:
        for rank in range(plan.num_shards):
            group.spawn(
                f"sim-shard-{rank}", _shard_main,
                ps, rank, plan, worker_fn, owned[rank], conns, timeout,
            )
        # The parent's copies of the exchange fds are not used; close them so
        # that a dead shard is an EOF to its peers and repeated epochs do not
        # accumulate descriptors.
        for ends in conns:
            for conn in ends.values():
                conn.close()
        payloads = group.gather(group.children, time.monotonic() + timeout)

    unfinished = [name for p in payloads for name in p["unfinished"]]
    if unfinished:
        raise ParameterServerError(
            f"worker process {unfinished[0]} did not finish "
            "(deadlock or time limit reached)"
        )

    results: List[Any] = [None] * len(clients)
    final_now = sim._now
    final_sequence = sim._sequence
    for payload in payloads:
        _apply_payload(ps, clients, payload)
        for index, value in payload["worker_results"].items():
            results[index] = value
        if payload["now"] > final_now:
            final_now = payload["now"]
        if payload["sequence"] > final_sequence:
            final_sequence = payload["sequence"]
    sim._now = final_now
    sim._sequence = final_sequence
    if ps._elastic_driver is not None:
        ps._elastic_driver.merge_shard_epoch(
            [payload["elastic"] for payload in payloads]
        )
    if ps.durability is not None:
        _merge_durability(ps, payloads)

    # Executed-event skew (max shard / mean shard): how evenly the plan
    # spread this epoch's kernel work.
    shard_events = [payload["executed_events"] for payload in payloads]
    total = sum(shard_events)
    if ps.shard_load_history is None:
        ps.shard_load_history = []
    ps.shard_load_history.append(
        {
            "jobs": plan.num_shards,
            "shard_events": shard_events,
            "window_rounds": [payload["window_rounds"] for payload in payloads],
            "skew": max(shard_events) / (total / plan.num_shards) if total else 1.0,
        }
    )
    return results


#: Fallback reasons already warned about in this process (one warning per
#: distinct reason — a repeated-reason sweep stays quiet, a second distinct
#: reason still surfaces).
_warned_fallback_reasons: Set[str] = set()


def warn_parallel_fallback(reason: str) -> None:
    """Emit the fallback warning mandated by the engine contract.

    Deduplicated per *reason* per process: the first occurrence of each
    distinct reason warns, repeats stay silent.
    """
    if reason in _warned_fallback_reasons:
        return
    _warned_fallback_reasons.add(reason)
    warnings.warn(
        f"parallel engine: falling back to jobs=1 ({reason})",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_fallback_warnings() -> None:
    """Forget previously warned fallback reasons (test isolation)."""
    _warned_fallback_reasons.clear()
