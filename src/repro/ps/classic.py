"""Classic parameter server (PS-Lite style) with static parameter allocation.

Parameters are allocated to servers once, via a static partitioning of the key
space, and never move (§2.1): :class:`StaticPolicy`.  Every pull/push for a
key is answered by that key's server.  Two local-access modes are provided:

* ``shared_memory_local_access=False`` — the PS-Lite behaviour: even
  parameters stored on the *same* node are accessed through inter-process
  communication with the local server thread, which the paper measured to be
  71-91x slower than shared memory (§4.2),
* ``shared_memory_local_access=True`` — the "Classic PS with fast local
  access" variant used in the paper's ablation (§4.6): local parameters are
  read/written directly through shared memory, but allocation remains static.

``localize`` raises :class:`~repro.errors.UnsupportedOperationError`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ps.base import NodeState, ParameterServer, Route, WorkerClient
from repro.ps.futures import OperationHandle
from repro.ps.messages import PullRequest, PushRequest
from repro.ps.policy import LOCAL, Handlers, ManagementPolicy


class StaticPolicy(ManagementPolicy):
    """Static allocation (classic PS, §2.1): every key stays with its partition.

    Synchronous operations are answered by the key's single owner in arrival
    order, so all of Table 1's per-key properties hold — the price is that
    locality never improves (no relocation, no replication).
    """

    name = "static"

    def server_handlers(self, state: NodeState) -> Handlers:
        cost = self.ps.cluster.cost_model.server_processing_time
        return {
            PullRequest: (cost, self._serve_pull),
            PushRequest: (cost, self._serve_push),
        }

    def route(self, state: NodeState, key: int, *, write: bool = False) -> Route:
        owner = self.ps.partitioner.node_of(key)
        if owner == state.node_id:
            return LOCAL
        return self._remote(owner)

    def route_many(
        self, state: NodeState, keys: Sequence[int], *, write: bool = False
    ) -> List[Route]:
        owners = self.ps.partitioner.nodes_of_list(keys)
        node_id = state.node_id
        return [
            LOCAL if owner == node_id else self._remote(owner) for owner in owners
        ]

    # PS-Lite style: without shared memory even local keys go through the
    # server thread (counted as local accesses all the same).
    def pull_local(
        self, client: WorkerClient, handle: OperationHandle, keys: Sequence[int], whole: bool
    ) -> None:
        if self.ps.ps_config.shared_memory_local_access:
            super().pull_local(client, handle, keys, whole)
        else:
            self.ps.send_request(client.node_id, handle, client.node_id, keys, True)

    def push_local(
        self,
        client: WorkerClient,
        handle: OperationHandle,
        keys: Sequence[int],
        updates: np.ndarray,
        rows: Optional[List[int]],
    ) -> None:
        if self.ps.ps_config.shared_memory_local_access:
            super().push_local(client, handle, keys, updates, rows)
        else:
            self.ps.send_request(
                client.node_id, handle, client.node_id, keys, False, updates, rows
            )

    def fusion_guard(self, state: NodeState) -> None:
        """Static allocation keeps a key's residency constant and its local
        route has no side effects: a resident key is a key a worker may fuse."""
        return None

    def _serve_pull(self, state: NodeState, request: PullRequest) -> None:
        values = self.handle_read(state, request.keys, what="asked for")
        self.ps.respond_pull(state, request, request.keys, values)

    def _serve_push(self, state: NodeState, request: PushRequest) -> None:
        self.handle_write(state, request.keys, request.updates, what="asked to update")
        self.ps.ack_push(state, request, request.keys)


class ClassicPS(ParameterServer):
    """PS-Lite-style parameter server with static allocation."""

    policy_class = StaticPolicy
    name = "classic"


class ClassicSharedMemoryPS(ClassicPS):
    """"Classic PS with fast local access": static allocation + shared memory.

    This is the middle variant of the paper's ablation study (§4.6): it keeps
    the static allocation of the classic PS but accesses local parameters via
    shared memory, isolating the benefit of fast local access from the benefit
    of dynamic parameter allocation.
    """

    name = "classic+sharedmem"
    config_overrides = {"shared_memory_local_access": True}


class ClassicIPCPS(ClassicPS):
    """Classic PS with PS-Lite's inter-process local access (no shared memory)."""

    name = "classic-ps-lite"
    config_overrides = {"shared_memory_local_access": False}
