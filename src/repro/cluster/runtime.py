"""The elastic cluster runtime: membership events driven into a running PS.

:class:`ElasticCluster` ties together a parameter server, a
:class:`~repro.cluster.membership.Membership` record, a scripted
:class:`~repro.cluster.schedule.ClusterSchedule`, and the
:class:`~repro.cluster.rebalancer.Rebalancer`.  It installs itself as the
server's simulation driver, so scheduled join and drain events fire at their
simulated times *while the workload runs* — a join mid-epoch migrates keys
concurrently with training, exactly the runtime adaptivity that dynamic
parameter allocation enables (PAPER.md §7).  Fail events are held until the
running workers finish (see :meth:`ElasticCluster.drive`): the simulator
cannot abort a worker generator mid-flight, so failures inject at epoch
boundaries.

Usage::

    ps = make_parameter_server("lapse", cluster, config, partitioner=elastic_partitioner)
    elastic = ElasticCluster(ps, initial_nodes=[0, 1])
    elastic.join_at(0.5, node=2)          # or pass a ClusterSchedule
    trainer = MatrixFactorizationTrainer(ps, matrix, mf_config)
    result = elastic.run_epoch(trainer, compute_loss=False)

Per epoch the runtime: applies due events, re-sweeps draining nodes, settles
in-flight protocol traffic, and hands the trainer the worker clients of the
currently active nodes (adjusting the barrier quorum).  With an **empty
schedule and a full initial node set the runtime is inert**: it neither sends
messages nor perturbs barriers, and simulated results are bit-identical to a
run without it.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Tuple

from repro.cluster.membership import ACTIVE, DRAINING, JOINING, Membership
from repro.cluster.rebalancer import RebalanceOperation, Rebalancer
from repro.cluster.schedule import DRAIN, FAIL, JOIN, REJOIN, ClusterEvent, ClusterSchedule
from repro.config import message_size
from repro.errors import ClusterError
from repro.ps.base import van_address
from repro.ps.messages import ReplicaRegisterRequest
from repro.ps.partition import ElasticPartitioner
from repro.ps.replica import InstallingKey


class ElasticCluster:
    """Runtime that makes a simulated PS cluster dynamic.

    It keeps the rebalance operations of the events fired since the last
    :meth:`settle`: fused MF block visits stop short of the next pending
    event and wait out only the keys those operations still move
    (:meth:`fusion_horizon`).

    Args:
        ps: The parameter server (any variant; ownership migration and
            failure recovery require a relocation-capable policy and an
            :class:`~repro.ps.partition.ElasticPartitioner`).
        initial_nodes: Initially active nodes (default: all).  Must contain
            node 0 and, if the PS uses an elastic partitioner, match its
            active set.
        schedule: Scripted membership events (may also be added later through
            :meth:`join_at` / :meth:`drain_at` / :meth:`fail_at`).
    """

    def __init__(
        self,
        ps: Any,
        initial_nodes: Optional[Sequence[int]] = None,
        schedule: Optional[ClusterSchedule] = None,
    ) -> None:
        self.ps = ps
        num_nodes = ps.cluster.num_nodes
        if initial_nodes is None:
            if isinstance(ps.partitioner, ElasticPartitioner):
                initial_nodes = ps.partitioner.active_nodes
            else:
                initial_nodes = list(range(num_nodes))
        self.membership = Membership(num_nodes, initial_nodes)
        if isinstance(ps.partitioner, ElasticPartitioner):
            if ps.partitioner.active_nodes != self.membership.active_nodes():
                raise ClusterError(
                    "initial_nodes does not match the elastic partitioner's "
                    f"active set: {self.membership.active_nodes()} vs "
                    f"{ps.partitioner.active_nodes}"
                )
        self.schedule = schedule if schedule is not None else ClusterSchedule()
        self.rebalancer = Rebalancer(ps, self.membership)
        #: Applied events with their rebalance operations (report material).
        self.operations: List[Tuple[ClusterEvent, RebalanceOperation]] = []
        self._pending: List[ClusterEvent] = list(self.schedule.events)
        # A full initial node set leaves nothing to adjust; a partial one
        # means barriers must be sized to the participating workers from the
        # first epoch on.
        self._dynamic = len(self.membership.active_nodes()) != num_nodes
        #: Operations of the events fired since the last :meth:`settle`
        #: (see :meth:`fusion_horizon`).
        self._unsettled: List[RebalanceOperation] = []
        ps.membership = self.membership
        ps._elastic_driver = self

    # ---------------------------------------------------------------- scripting
    def _add_event(self, event: ClusterEvent) -> ClusterEvent:
        self.schedule.add(event)
        self._pending.append(event)
        self._pending.sort(key=lambda e: e.time)
        return event

    def join_at(self, time: float, node: int) -> ClusterEvent:
        """Schedule ``node`` to join at simulated ``time``."""
        return self._add_event(ClusterEvent(time=time, kind=JOIN, node=node))

    def drain_at(self, time: float, node: int) -> ClusterEvent:
        """Schedule ``node`` to start draining at simulated ``time``."""
        return self._add_event(ClusterEvent(time=time, kind=DRAIN, node=node))

    def fail_at(self, time: float, node: int) -> ClusterEvent:
        """Schedule ``node`` to crash at simulated ``time``."""
        return self._add_event(ClusterEvent(time=time, kind=FAIL, node=node))

    def rejoin_at(self, time: float, node: int) -> ClusterEvent:
        """Schedule a failed ``node`` to restart (empty-handed) at ``time``.

        ``fail_at(t, n)`` followed by ``rejoin_at(t, n)`` models a
        crash-and-restart at one epoch boundary: the crash wipes the node's
        volatile state and triggers recovery, the restart re-admits the
        machine through the normal joining rebalance.
        """
        return self._add_event(ClusterEvent(time=time, kind=REJOIN, node=node))

    @property
    def pending_events(self) -> List[ClusterEvent]:
        """Scripted events that have not fired yet."""
        return list(self._pending)

    # -------------------------------------------------------------- sim driving
    def drive(
        self, until: Optional[float] = None, processes: Optional[List[Any]] = None
    ) -> float:
        """Run the simulation, firing scheduled events at their times.

        Drop-in replacement for ``Simulator.run``: processes the event queue
        to exhaustion (or ``until``), firing each scheduled membership event
        at exactly its time, once every simulation event due up to and
        including that instant has run — also during the post-worker settle
        tail.  Between membership instants the kernel runs its own loop
        (:meth:`~repro.simnet.kernel.Simulator.run_before`).  Events
        scheduled later than the end of the epoch (all ``processes`` finished
        and the queue drained) stay pending for a later epoch, and the clock
        stays at the epoch's last event; a queue that drains while workers
        still run fires the next event ahead of its time (a deadlock rescue).

        Joins and drains fire mid-epoch; a **fail** event is held until the
        running workers finish and applied at the next epoch boundary.  The
        simulator cannot abort a worker process mid-generator, so a crash
        while the failed node's workers are running would leave them counted
        in the barrier quorum with their messages blackholed — a deadlock,
        not a model of failure.  When ``processes`` is ``None`` (manually
        driven simulations, :meth:`ParameterServer.run`) the driver cannot
        see the workers at all, so fails are always held: apply them through
        the epoch API (:meth:`run_epoch` / :meth:`prepare_epoch`).  Events
        scheduled behind a held fail are held with it, preserving the script
        order.
        """
        sim = self.ps.sim
        processes = processes or []
        # An inclusive cutoff is an exclusive bound just past it.
        limit = math.inf if until is None else math.nextafter(until, math.inf)
        while True:
            running = [process for process in processes if not process.processed]
            event = self._pending[0] if self._pending else None
            if (
                event is None
                or event.time >= limit
                or (event.kind == FAIL and (running or not processes))
            ):
                # Nothing to fire by the cutoff, or a fail held while workers
                # run: run on, and look again once the next worker finished
                # (after the last one, a held fail may be due).
                stop = running[0] if running else None
                sim.run_before(limit, stop=stop)
                if stop is not None and stop.processed:
                    continue
                break
            if event.time > sim.now:
                sim.run_before(math.nextafter(event.time, math.inf))
                if sim.peek_time() is None and processes and all(
                    process.processed for process in processes
                ):
                    break
                sim.run(until=event.time)
            self._pending.pop(0)
            self._apply(event)
        if until is not None:
            sim.run(until=until)
        return sim.now

    def settle(self) -> float:
        """Drain all in-flight protocol traffic (no event firing).

        Rebalance relocations of the events fired so far are then complete,
        so no key they named holds fused block visits back any longer
        (:meth:`fusion_horizon`).
        """
        now = self.ps.sim.run()
        self._unsettled.clear()
        return now

    def fusion_horizon(self, keys: Sequence[int]) -> float:
        """The instant before which the runtime moves none of ``keys``.

        ``-inf`` while a key is still pending in the rebalance of an event
        fired since the last :meth:`settle`; otherwise the next pending
        event's time, but no earlier than now (a fail held past its time may
        fire at any moment), or ``inf`` if there is none.  Fused MF block
        visits (:meth:`~repro.ps.base.FusedLocalSteps.visit`) run only the
        entries done before it.  A rebalance issues every relocation it makes at the
        apply instant
        (:meth:`~repro.cluster.rebalancer.Rebalancer._relocate_to_homes`), and an
        application localize it piggybacks on joins the same handle, so its
        pending keys are all the runtime can move before the next event.
        """
        for operation in self._unsettled:
            handle = operation.handle
            if handle is not None and not handle._pending_keys.isdisjoint(keys):
                return -math.inf
        return max(self._pending[0].time, self.ps.sim.now) if self._pending else math.inf

    # ------------------------------------------------------------ event handling
    def _apply(self, event: ClusterEvent) -> RebalanceOperation:
        now = self.ps.sim.now
        if event.kind == JOIN:
            self.membership.begin_join(event.node, now)
            operation = self.rebalancer.rebalance_for_join(event.node, now)
        elif event.kind == DRAIN:
            self.membership.begin_drain(event.node, now)
            operation = self.rebalancer.rebalance_for_drain(event.node, now)
        elif event.kind == FAIL:
            self.membership.fail(event.node, now)
            # Order matters: blackhole the node (dropping in-flight messages
            # addressed to it — a crash loses what was on the wire), recover
            # its keys from replicas and/or the durable log (the recovery
            # read needs the *pre-crash* checkpoints and WAL), then wipe its
            # volatile state and seal its durable history.
            self.ps.network.fail_node(event.node)
            operation = self.rebalancer.recover_after_failure(event.node, now)
            self._wipe_volatile_state(event.node)
            if self.ps.durability is not None:
                self.ps.durability.reset_after_crash(event.node)
        elif event.kind == REJOIN:
            self.membership.rejoin(event.node, now)
            self.ps.network.restore_node(event.node)
            operation = self.rebalancer.rebalance_for_join(event.node, now)
        else:  # pragma: no cover - ClusterEvent validates kinds
            raise ClusterError(f"unknown event kind {event.kind!r}")
        self._dynamic = True
        self._unsettled.append(operation)
        self.operations.append((event, operation))
        tracer = self.ps.tracer
        if tracer is not None:
            tracer.marker(
                event.node,
                now,
                f"membership:{event.kind}",
                moved_keys=operation.moved_keys,
                recovered_keys=operation.recovered_keys,
                lost_keys=operation.lost_keys,
            )
        if operation.handle is None:
            self._finish_operation(event, operation, record_time=False)
        else:
            operation.handle.completion_event.callbacks.append(
                lambda _evt: self._finish_operation(event, operation)
            )
        return operation

    def _finish_operation(
        self, event: ClusterEvent, operation: RebalanceOperation, record_time: bool = True
    ) -> None:
        """Flip membership once an event's data movement has completed."""
        membership = self.membership
        node = event.node
        if record_time:
            self.ps.states[node].metrics.rebalance_time.record(
                self.ps.sim.now - operation.started_at
            )
        tracer = self.ps.tracer
        if tracer is not None:
            tracer.marker(
                node,
                self.ps.sim.now,
                f"rebalance:{event.kind}:complete",
                duration=self.ps.sim.now - operation.started_at,
                moved_keys=operation.moved_keys,
            )
        if event.kind in (JOIN, REJOIN) and membership.state_of(node) == JOINING:
            membership.complete_join(node, self.ps.sim.now)
        # Drains flip to "left" only at the next epoch boundary
        # (prepare_epoch): the drainee's workers may still be mid-epoch, and
        # applications can keep moving keys back until they stop.

    def _wipe_volatile_state(self, node: int) -> None:
        """Model the crash: the failed node's RAM is gone.

        The parameter store is replaced with a fresh empty one (re-wrapped
        in the node's WAL when durability is on — the log survives the
        crash), and every policy-attached volatile table is cleared.  The
        home-location table survives: it is cluster routing metadata that
        failure recovery consults to enumerate the dead node's keys, not
        data held in the dead node's RAM.
        """
        ps = self.ps
        state = ps.states[node]
        fresh = ps._new_storage()
        if ps.durability is not None:
            fresh = ps.durability.wrap_fresh_storage(node, fresh)
        state.storage = fresh
        for attr in (
            "relocating_in",
            "location_cache",
            "replicas",
            "pending_updates",
            "installing",
            "subscribers",
            "broadcast_buffer",
            "subscriptions",
            "flush_counts",
            "pending_flush_acks",
        ):
            table = getattr(state, attr, None)
            if table is not None:
                table.clear()

    def _complete_drain(self, node: int) -> None:
        """Finish a graceful departure: release replicas, flip to ``left``."""
        self._release_replicas(node)
        self.membership.complete_drain(node, self.ps.sim.now)

    def _release_replicas(self, node: int) -> None:
        """Tear down the replication state of a departing node.

        The leaving node first flushes its unsynchronized replica updates
        (graceful departure loses nothing), then drops its replica copies and
        is unsubscribed everywhere — so owners stop broadcasting to it and
        later failure recovery never counts a departed node as a surviving
        replica holder.
        """
        ps = self.ps
        if not self.rebalancer.supports_replica_recovery:
            return
        state = ps.states[node]
        if state.pending_updates:
            ps.management_policy.on_sync(state)
        state.replicas.clear()
        state.pending_updates.clear()
        state.installing.clear()
        for other in range(ps.cluster.num_nodes):
            if other == node:
                continue
            other_state = ps.states[other]
            for subscriber_set in other_state.subscribers.values():
                subscriber_set.discard(node)
            other_state.broadcast_buffer.pop(node, None)

    # ------------------------------------------------------------- epoch driving
    def participating_clients(self) -> List[Any]:
        """Worker clients of the currently active nodes (epoch participants)."""
        ps = self.ps
        return [
            ps.client(node, worker)
            for node in self.membership.worker_nodes()
            for worker in range(ps.cluster.workers_per_node)
        ]

    def prepare_epoch(self) -> List[Any]:
        """Run all boundary work and return the epoch's worker clients.

        Applies events that are already due, re-sweeps draining nodes,
        settles in-flight traffic, completes finished drains, and sizes the
        barrier quorum to the participating workers.  Inert (and free) while
        the cluster has never changed.
        """
        sim = self.ps.sim
        while self._pending and self._pending[0].time <= sim.now:
            self._apply(self._pending.pop(0))
        for node in self.membership.nodes_in(DRAINING):
            if self.rebalancer.supports_rebalance and self.rebalancer.owned_keys(node):
                event = ClusterEvent(time=sim.now, kind=DRAIN, node=node)
                operation = self.rebalancer.rebalance_for_drain(node, sim.now)
                self.operations.append((event, operation))
                if operation.handle is not None:
                    operation.handle.completion_event.callbacks.append(
                        lambda _evt, e=event, op=operation: self._finish_operation(e, op)
                    )
        self.settle()
        for node in self.membership.nodes_in(DRAINING):
            if self.rebalancer.supports_rebalance and not self.rebalancer.owned_keys(node):
                self._complete_drain(node)
        self.settle()  # deliver the departing nodes' final replica flushes
        clients = self.participating_clients()
        if self._dynamic:
            # Participants changed at some point: barriers must count exactly
            # the epoch's workers, and generations restart from a clean base
            # (all previous barriers have completed between epochs).
            for client in clients:
                client._barrier_generation = 0
            self.ps._barrier_expected = len(clients)
        return clients

    def run_epoch(self, trainer: Any, **kwargs: Any) -> Any:
        """Run one workload epoch under the current membership.

        ``trainer`` must expose ``run_epoch(..., clients=...)`` — currently
        the matrix-factorization trainer; the KGE and word-vector trainers do
        not take a client subset yet.  Scheduled joins and drains whose time
        falls inside the epoch fire mid-epoch; fails apply at the boundary.
        """
        clients = self.prepare_epoch()
        return trainer.run_epoch(clients=clients, **kwargs)

    # ------------------------------------------------------------- resilience
    def ensure_backups(self) -> int:
        """Provision one standby replica for every owned key that has none.

        Primary-backup fault tolerance built from the replication machinery:
        for each active node, the next active node (ring order) subscribes to
        all keys the owner currently holds without subscribers, so a
        subsequent failure loses nothing.  Requires a policy that maintains
        recoverable replicas (hybrid/replica); returns the number of replica
        installs requested (0 when unsupported or nothing to do).
        """
        ps = self.ps
        if not self.rebalancer.supports_replica_recovery:
            return 0
        actives = self.membership.nodes_in(ACTIVE)
        if len(actives) < 2:
            return 0
        requested = 0
        for position, owner in enumerate(actives):
            backup = actives[(position + 1) % len(actives)]
            owner_state = ps.states[owner]
            backup_state = ps.states[backup]
            group: List[int] = []
            for key in sorted(owner_state.storage.keys()):
                if owner_state.subscribers.get(key):
                    continue
                if key in backup_state.replicas or key in backup_state.installing:
                    continue
                backup_state.installing[key] = InstallingKey(key=key)
                group.append(key)
            if group:
                request = ReplicaRegisterRequest(
                    keys=tuple(group),
                    requester_node=backup,
                    reply_to=van_address(backup),
                )
                ps.send_to_server(
                    backup, owner, request, message_size(len(group), 0)
                )
                requested += len(group)
        if requested:
            self.settle()
        return requested

    # ----------------------------------------------------------------- report
    @property
    def recovered_keys(self) -> int:
        """Keys recovered from replicas across all failure events."""
        return sum(op.recovered_keys for _event, op in self.operations)

    @property
    def lost_keys(self) -> int:
        """Keys lost (re-initialized) across all failure events."""
        return sum(op.lost_keys for _event, op in self.operations)
