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
tables, worker RNGs and clocks, channel clocks of the channels it owns, and
traffic-counter deltas — and the parent merges them so the next epoch forks
from an up-to-date image.  The children run under a
:class:`~repro.backend.supervisor.ProcessGroup`: one that fails or dies ends
the epoch at once, named, and none survives it.

The engine shards static clusters without durability only.  Everything else
(elastic clusters, durable stores, single-node clusters, zero network
latency, simulated-time cutoffs) is detected by
:func:`parallel_fallback_reason` and falls back to the sequential engine
with a once-per-reason warning.
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

#: Seconds a shard waits for a peer's exchange message (or the parent for a
#: shard's result) before declaring the window barrier deadlocked.
DEFAULT_BARRIER_TIMEOUT = 120.0

#: NodeState attributes that must not be shipped between processes: object
#: graph backlinks (`ps`, the bound cleanup method) stay the parent's, and
#: the in-flight tables (`outstanding`, `barrier_waiters`) hold kernel
#: events — they are asserted empty at epoch quiescence instead.
_STATE_SKIP = frozenset({"ps", "_outstanding_cleanup", "outstanding", "barrier_waiters"})

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

    The engine shards static clusters without durability: the window
    protocol replays their runs bit for bit, and nothing else is run on it.
    """
    if until is not None:
        return "a simulated-time cutoff was requested"
    if ps.membership is not None:
        return "elastic clusters run on the sequential engine"
    if ps.durability is not None:
        return "durable runs use the sequential engine"
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
    # Counts only what this shard sends; the parent adds it to its own.
    network.stats = NetworkStats()
    sim.enter_shard_mode(rank)
    network.enable_shard_mode(plan.node_ranks, rank)

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
        for j in peers:
            conns[j].send((per_peer[j], lo))
        horizon = lo
        for j in peers:
            if not conns[j].poll(timeout):
                raise SimulationError(
                    f"shard {rank}: no window-exchange message from shard {j} "
                    f"within {timeout}s (deadlocked shard barrier?)"
                )
            records_j, lo_j = conns[j].recv()
            if lo_j < horizon:
                horizon = lo_j
            for deliver_at, lineage, _dst_node, dst_address, payload in records_j:
                sim.schedule_foreign(
                    deliver_at, lineage, network.shard_put(dst_address), payload
                )
        # Every shard sees the same horizon, so all leave the loop in the
        # same round and the exchange stays framed.
        if horizon == infinity:
            break
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
        relocating = getattr(state, "relocating_in", None)
        if relocating:
            # Its entries hold handles and queued operations (unpicklable);
            # on a static run every transfer lands before quiescence.
            raise SimulationError(
                f"shard {rank}: node {node_id} still has key "
                f"{next(iter(relocating))} relocating in at epoch quiescence"
            )
        states[node_id] = {
            name: value for name, value in vars(state).items() if name not in _STATE_SKIP
        }
    payload = {
        "rank": rank,
        "now": sim._now,
        "sequence": sim._sequence,
        "states": states,
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
    for index, data in payload["clients"].items():
        vars(clients[index]).update(data)
    for channel, last in payload["channel_clocks"].items():
        clock = network._channel_clock.get(channel)
        if clock is None:
            clock = network._channel_clock[channel] = _ChannelClock()
        clock.last = last
    network.stats.absorb(payload["stats_delta"])


def run_workers_parallel(
    ps: Any,
    worker_fn: Callable[[Any, int], Generator],
    clients: Sequence[Any],
    jobs: int,
    timeout: float = DEFAULT_BARRIER_TIMEOUT,
) -> List[Any]:
    """Run one driver epoch on the parallel engine (caller checked eligibility).

    Forks ``min(jobs, num_nodes)`` shard processes, runs the conservative
    window protocol to quiescence, merges the shards' node tables back into
    the parent, and returns the worker
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
