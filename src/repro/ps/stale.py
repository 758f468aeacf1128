"""Stale parameter server (Petuum-style) with bounded-staleness replicas.

The *stale* PS architecture (§2.1) keeps the static parameter allocation of a
classic PS but replicates previously-accessed parameters to the nodes that
accessed them and tolerates bounded staleness in those replicas.  Applications
drive synchronization with an explicit ``clock`` primitive.  The technique is
:class:`StaleReplicaPolicy`.

Two synchronization strategies are implemented, mirroring the two Petuum modes
compared in §4.5:

* **Client-based synchronization (SSP)** — replicas are refreshed lazily: a
  read may use a replica only if it was fetched at a clock within the
  staleness bound; otherwise the reading node synchronously fetches a fresh
  value from the owner.  The number of these synchronous fetches per clock is
  constant in the number of workers, which is why this mode does not scale.
* **Server-based synchronization (SSPPush)** — owners remember which nodes
  accessed each parameter (learned during a warm-up epoch) and proactively
  push fresh values to all subscribers after every clock advance.  This
  removes the read latency but causes unnecessary communication because *all*
  previously accessed parameters are pushed, not just the ones needed next.

Local parameters are accessed through the server thread (inter-thread
communication), which the paper reports to be several times slower than
Lapse's shared-memory access — this is captured by
``CostModel.interthread_access_latency``.

The stale PS provides only eventual consistency for reads of remote
parameters (Table 1): reads may return values that are up to ``staleness``
clocks old and writes of other workers become visible only after a flush.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import message_size
from repro.ps.base import (
    ROUTE_LOCAL,
    NodeState,
    ParameterServer,
    Route,
    WorkerClient,
    select_rows,
    van_address,
)
from repro.ps.futures import OperationHandle
from repro.ps.messages import (
    FlushAck,
    ReplicaFetchRequest,
    ReplicaFetchResponse,
    ReplicaPush,
    UpdateFlush,
)
from repro.ps.policy import BUFFER, LOCAL, REPLICA, Handlers, ManagementPolicy
from repro.ps.storage import gather_rows
from repro.simnet.events import Event


class StaleReplicaPolicy(ManagementPolicy):
    """Bounded-staleness replicas (Petuum-style stale PS, §2.1).

    Reads of remote keys may be served from a replica fetched within the
    staleness bound (relative to the issuing worker's clock); writes to
    remote keys are buffered and flushed at the next clock.  Remote reads
    therefore provide only eventual consistency (Table 1): a fresh-enough
    replica can still miss this worker's own unflushed remote writes.
    """

    name = "stale-replica"
    needs_clock = True
    buffers_pushes = True
    guarantees = {
        "eventual": True,
        "session": False,
        "causal": False,
        "sequential": False,
    }

    def attach(self, state: NodeState) -> None:
        #: Replicas of remote parameters: key -> [value, fetched_at_clock].
        state.replicas = {}
        #: Server side: nodes that accessed each locally-owned key (SSPPush).
        state.subscriptions = defaultdict(set)
        #: Server side: number of update flushes received per clock value.
        state.flush_counts = defaultdict(int)
        #: Pending flush acknowledgements: op id -> event.
        state.pending_flush_acks = {}

    def attach_client(self, client: WorkerClient) -> None:
        #: Updates accumulated since the last clock, keyed by parameter key.
        client._write_buffer = {}

    def server_handlers(self, state: NodeState) -> Handlers:
        cost = self.ps.cluster.cost_model.server_processing_time
        return {
            ReplicaFetchRequest: (cost, self._handle_fetch),
            UpdateFlush: (cost, self._handle_flush),
            ReplicaPush: (cost, self._handle_replica_push),
        }

    def van_handlers(self) -> Dict[type, Callable[[NodeState, Any], None]]:
        return {
            ReplicaFetchResponse: self._install_fetched,
            FlushAck: self._complete_flush,
        }

    # ---------------------------------------------------------------- routing
    def route_many(
        self, state: NodeState, keys: Sequence[int], *, write: bool = False
    ) -> List[Route]:
        owners = self.ps.partitioner.nodes_of_list(keys)
        # The reading worker's clock (published by its client before routing).
        fresh_after = state.reader_clock - self.ps.ps_config.staleness_bound
        replicas = state.replicas
        node_id = state.node_id
        routes = []
        for key, owner in zip(keys, owners):
            if owner == node_id:
                routes.append(LOCAL)
            elif write:
                routes.append(BUFFER)
            elif key in replicas and replicas[key][1] >= fresh_after:
                routes.append(REPLICA)
            else:
                routes.append(self._remote(owner))
        return routes

    def route(self, state: NodeState, key: int, *, write: bool = False) -> Route:
        return self.route_many(state, [key], write=write)[0]

    # --------------------------------------------- client side: route actions
    # Local parameters and replicas are read through the server thread
    # (inter-thread communication), not through shared memory.
    def pull_local(
        self, client: WorkerClient, handle: OperationHandle, keys: Sequence[int], whole: bool
    ) -> None:
        state = client.state
        keys = tuple(keys)
        delay = self.ps.cluster.cost_model.interthread_access_latency * len(keys)
        client._complete_after(
            delay, lambda: handle.complete_keys(keys, state.read_local_many(keys))
        )

    def pull_replica(
        self, client: WorkerClient, handle: OperationHandle, keys: List[int]
    ) -> None:
        state = client.state
        delay = self.ps.cluster.cost_model.interthread_access_latency * len(keys)

        def action() -> None:
            replicas = state.replicas
            values = np.empty((len(keys), client.value_length), dtype=np.float64)
            for index, key in enumerate(keys):
                values[index] = replicas[key][0]
            handle.complete_keys(keys, values)

        client._complete_after(delay, action)

    def pull_remote(
        self, client: WorkerClient, handle: OperationHandle, destination: int, keys: Sequence[int]
    ) -> None:
        """Fetch fresh replicas of ``keys`` from their owner, in one message
        answered under the handle's op id (see :meth:`_install_fetched`)."""
        request = ReplicaFetchRequest(
            op_id=handle.op_id,
            keys=tuple(keys),
            requester_node=client.node_id,
            reply_to=van_address(client.node_id),
            clock=client._clock,
        )
        self.ps.send_to_server(client.node_id, destination, request, message_size(len(keys), 0))

    def buffer_push(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        keys: Tuple[int, ...],
        updates: np.ndarray,
    ) -> None:
        """Issue a push.  Replaces the client's route-group-act: a stale push
        is one inter-thread hand-off that writes owned keys and *buffers* the
        rest until the next clock, so it is one event and always local."""
        state = client.state
        metrics = state.metrics
        write_buffer = client._write_buffer
        delay = self.ps.cluster.cost_model.interthread_access_latency * len(keys)
        routes = self.route_many(state, keys, write=True)
        local_keys = [
            key for key, route in zip(keys, routes) if route.kind == ROUTE_LOCAL
        ]
        local_rows = [
            index for index, route in enumerate(routes) if route.kind == ROUTE_LOCAL
        ]

        def action() -> None:
            if local_keys:
                state.write_local_many(local_keys, select_rows(updates, local_rows))
            for index, (key, route) in enumerate(zip(keys, routes)):
                if route.kind == ROUTE_LOCAL:
                    metrics.key_writes_local += 1
                    continue
                update = updates[index]
                buffered = write_buffer.get(key)
                if buffered is None:
                    write_buffer[key] = update.copy()
                else:
                    buffered += update
                # Make own writes visible locally within the staleness window.
                replica = state.replicas.get(key)
                if replica is not None:
                    replica[0] += update
                metrics.key_writes_local += 1
            handle.complete_keys(keys)

        metrics.pushes_local += 1
        client._complete_after(delay, action)

    def clock(self, client: WorkerClient) -> Generator:
        """Advance this worker's clock: flush buffered updates to their owners.

        One (possibly empty) flush message is sent to every other node so that
        owners can track clock progress; the call blocks until all flushes are
        acknowledged.  This per-clock synchronization cost is constant in the
        number of workers, reproducing why client-based synchronization does
        not scale (§4.5).
        """
        ps = self.ps
        state = client.state
        value_length = ps.ps_config.value_length
        client._clock += 1
        state.metrics.clock_advances += 1
        groups: Dict[int, Dict[int, np.ndarray]] = defaultdict(dict)
        write_buffer = client._write_buffer
        if write_buffer:
            buffer_keys = list(write_buffer.keys())
            owners = ps.partitioner.nodes_of_list(buffer_keys)
            for key, owner in zip(buffer_keys, owners):
                groups[owner][key] = write_buffer[key]
        client._write_buffer = {}
        ack_events: List[Event] = []
        for node in range(ps.cluster.num_nodes):
            if node == client.node_id:
                continue
            node_updates = groups.get(node, {})
            keys = tuple(sorted(node_updates.keys()))
            if keys:
                updates = gather_rows(node_updates, keys, value_length)
            else:
                updates = np.zeros((0, value_length))
            op_id = ps.next_op_id()
            event = Event(ps.sim)
            state.pending_flush_acks[op_id] = event
            ack_events.append(event)
            flush = UpdateFlush(
                op_id=op_id,
                keys=keys,
                updates=updates,
                clock=client._clock,
                reply_to=van_address(client.node_id),
            )
            ps.send_to_server(
                client.node_id, node, flush, message_size(len(keys), updates.size)
            )
        # The worker's own node needs no network flush, but its clock arrival
        # still counts toward the per-clock flush quota of the local server.
        self._record_clock_arrival(state, client._clock)
        for event in ack_events:
            yield event
        return None

    # ------------------------------------------------------------ server side
    def _handle_fetch(self, state: NodeState, request: ReplicaFetchRequest) -> None:
        values = self.handle_read(state, request.keys)
        ps = self.ps
        if ps.ps_config.stale_server_push:
            for key in request.keys:
                state.subscriptions[key].add(request.requester_node)
        response = ReplicaFetchResponse(
            op_id=request.op_id,
            keys=request.keys,
            values=values,
            clock=request.clock,
        )
        size = message_size(len(request.keys), len(request.keys) * ps.ps_config.value_length)
        ps.network.send(state.node_id, request.reply_to, response, size)

    def _handle_flush(self, state: NodeState, flush: UpdateFlush) -> None:
        if flush.keys:
            self.handle_write(
                state, flush.keys, flush.updates, what="received an update for"
            )
        ack = FlushAck(op_id=flush.op_id)
        self.ps.network.send(state.node_id, flush.reply_to, ack, message_size(0, 0))
        self._record_clock_arrival(state, flush.clock)

    def _record_clock_arrival(self, state: NodeState, clock: int) -> None:
        """Count a clock arrival (a flush, or a co-located worker's clock)."""
        state.flush_counts[clock] += 1
        if (
            state.flush_counts[clock] == self.ps.cluster.total_workers
            and self.ps.ps_config.stale_server_push
        ):
            self.on_sync(state, clock)

    def on_sync(self, state: NodeState, clock: Optional[int] = None) -> None:
        """SSPPush: send fresh values of all subscribed keys to every subscriber."""
        per_subscriber: Dict[int, List[int]] = defaultdict(list)
        for key, subscribers in state.subscriptions.items():
            for node in subscribers:
                if node != state.node_id:
                    per_subscriber[node].append(key)
        for node, keys in per_subscriber.items():
            keys = sorted(keys)
            values = state.read_local_many(keys)
            push = ReplicaPush(keys=tuple(keys), values=values, clock=clock)
            self.ps.send_to_server(
                state.node_id, node, push, message_size(len(keys), values.size)
            )

    def _handle_replica_push(self, state: NodeState, push: ReplicaPush) -> None:
        # One bulk copy; each replica row is a view into the node-owned buffer.
        values = np.array(push.values, dtype=np.float64)
        for index, key in enumerate(push.keys):
            state.replicas[key] = [values[index], push.clock]
        state.metrics.replica_refreshes += len(push.keys)

    # -------------------------------------------------------------------- van
    def _install_fetched(self, state: NodeState, message: ReplicaFetchResponse) -> None:
        handle = state.outstanding.get(message.op_id)
        if handle is None:
            return
        values = np.array(message.values, dtype=np.float64)
        for index, key in enumerate(message.keys):
            state.replicas[key] = [values[index], message.clock]
        handle.complete_keys(message.keys, message.values)

    def _complete_flush(self, state: NodeState, message: FlushAck) -> None:
        event = state.pending_flush_acks.pop(message.op_id, None)
        if event is not None:
            event.succeed(None)


class StalePS(ParameterServer):
    """Petuum-style stale parameter server with SSP / SSPPush synchronization."""

    policy_class = StaleReplicaPolicy
    name = "stale"
