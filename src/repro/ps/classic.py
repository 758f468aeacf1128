"""Classic parameter server (PS-Lite style) with static parameter allocation.

Parameters are allocated to servers once, via a static partitioning of the key
space, and never move (§2.1) — routing is delegated to
:class:`~repro.ps.policy.StaticPolicy`.  Every pull/push for a key is answered
by that key's server.  Two local-access modes are provided:

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

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.ps.base import (
    FusedLocalSteps,
    KeyRows,
    NodeState,
    ParameterServer,
    WorkerClient,
    select_rows,
)
from repro.ps.futures import OperationHandle
from repro.ps.messages import PullRequest, PushRequest
from repro.ps.policy import ROUTE_LOCAL, StaticPolicy


class ClassicWorkerClient(WorkerClient):
    """Client for the classic PS: routes every key to its static server."""

    def fused_local_steps(self):
        """Fused local steps for the shared-memory classic variant.

        Static allocation keeps a key's residency constant, and the policy's
        local route has no side effects, so a resident key is exactly a key
        this client may fuse.  The PS-Lite (inter-process) variant must keep
        paying the server round trip and never fuses.
        """
        if self._fusion_safe() and type(self.policy) is StaticPolicy:
            return FusedLocalSteps(self)
        return None

    # ------------------------------------------------------------------- pull
    def _issue_pull(self, handle: OperationHandle, keys: Tuple[int, ...]) -> None:
        state = self.state
        metrics = state.metrics
        if len(keys) == 1:
            # Single-key lane: no grouping containers for the per-entry
            # training pattern.
            key = keys[0]
            route = self.policy.route(state, key)
            if route.kind == ROUTE_LOCAL:
                metrics.key_reads_local += 1
                metrics.pulls_local += 1
                if self.ps.ps_config.shared_memory_local_access:
                    self._local_pull_shared_memory(handle, [key])
                else:
                    self._send_chunk(handle, self.node_id, [key], True, None, None)
            else:
                metrics.key_reads_remote += 1
                metrics.pulls_remote += 1
                self._send_chunk(handle, route.destination, [key], True, None, None)
            return
        local, remote_groups = self._split_by_owner(keys)
        local_keys = local.keys
        if local_keys:
            metrics.key_reads_local += len(local_keys)
            if self.ps.ps_config.shared_memory_local_access:
                self._local_pull_shared_memory(handle, local_keys)
            else:
                # PS-Lite style: even local keys go through the server thread.
                self._send_remote(handle, self.node_id, local_keys, pull=True)
        for owner, group in remote_groups.items():
            metrics.key_reads_remote += len(group.keys)
            self._send_remote(handle, owner, group.keys, pull=True)
        if remote_groups:
            metrics.pulls_remote += 1
        else:
            metrics.pulls_local += 1

    # ------------------------------------------------------------------- push
    def _issue_push(
        self,
        handle: OperationHandle,
        keys: Tuple[int, ...],
        updates: np.ndarray,
        needs_ack: bool,
    ) -> None:
        state = self.state
        metrics = state.metrics
        if len(keys) == 1:
            key = keys[0]
            route = self.policy.route(state, key, write=True)
            if route.kind == ROUTE_LOCAL:
                metrics.key_writes_local += 1
                metrics.pushes_local += 1
                if self.ps.ps_config.shared_memory_local_access:
                    self._local_push_shared_memory(handle, [key], updates, [0])
                else:
                    self._send_chunk(handle, self.node_id, [key], False, updates, [0])
            else:
                metrics.key_writes_remote += 1
                metrics.pushes_remote += 1
                self._send_chunk(
                    handle, route.destination, [key], False, updates, [0]
                )
            return
        local, remote_groups = self._split_by_owner(keys)
        if local.keys:
            metrics.key_writes_local += len(local.keys)
            if self.ps.ps_config.shared_memory_local_access:
                self._local_push_shared_memory(handle, local.keys, updates, local.rows)
            else:
                self._send_remote(
                    handle, self.node_id, local.keys, pull=False,
                    updates=updates, rows=local.rows,
                )
        for owner, group in remote_groups.items():
            metrics.key_writes_remote += len(group.keys)
            self._send_remote(
                handle, owner, group.keys, pull=False, updates=updates, rows=group.rows
            )
        if remote_groups:
            metrics.pushes_remote += 1
        else:
            metrics.pushes_local += 1

    # -------------------------------------------------------------- local fast path
    def _local_pull_shared_memory(
        self, handle: OperationHandle, local_keys: List[int]
    ) -> None:
        cost = self.ps.cluster.cost_model
        delay = cost.local_access_time(shared_memory=True) * len(local_keys)
        state = self.state

        def action() -> None:
            handle.complete_keys(local_keys, state.read_local_many(local_keys))

        self._complete_after(delay, action)

    def _local_push_shared_memory(
        self,
        handle: OperationHandle,
        local_keys: List[int],
        updates: np.ndarray,
        local_rows: List[int],
    ) -> None:
        cost = self.ps.cluster.cost_model
        delay = cost.local_access_time(shared_memory=True) * len(local_keys)
        state = self.state

        def action() -> None:
            state.write_local_many(local_keys, select_rows(updates, local_rows))
            handle.complete_keys(local_keys)

        self._complete_after(delay, action)

    # --------------------------------------------------------------- routing
    def _split_by_owner(
        self, keys: Tuple[int, ...]
    ) -> Tuple[KeyRows, Dict[int, KeyRows]]:
        """Group a multi-key operation into local keys and per-owner groups."""
        local = KeyRows()
        remote_groups: Dict[int, KeyRows] = defaultdict(KeyRows)
        routes = self.policy.route_many(self.state, keys)
        for row, (key, route) in enumerate(zip(keys, routes)):
            if route.kind == ROUTE_LOCAL:
                local.add(key, row)
            else:
                remote_groups[route.destination].add(key, row)
        return local, dict(remote_groups)

    # Request sending is inherited from WorkerClient._send_remote (chunked
    # pull/push requests with op ids registered for the van).


class ClassicPS(ParameterServer):
    """PS-Lite-style parameter server with static allocation."""

    client_class = ClassicWorkerClient
    policy_class = StaticPolicy
    name = "classic"

    def _server_dispatch(self, state: NodeState):
        cost = self.cluster.cost_model.server_processing_time
        return {
            PullRequest: (cost, self._server_pull),
            PushRequest: (cost, self._server_push),
        }


class ClassicSharedMemoryPS(ClassicPS):
    """"Classic PS with fast local access": static allocation + shared memory.

    This is the middle variant of the paper's ablation study (§4.6): it keeps
    the static allocation of the classic PS but accesses local parameters via
    shared memory, isolating the benefit of fast local access from the benefit
    of dynamic parameter allocation.
    """

    name = "classic+sharedmem"

    def __init__(self, cluster, ps_config=None, **kwargs) -> None:
        from dataclasses import replace as dataclass_replace

        from repro.config import ParameterServerConfig

        ps_config = ps_config or ParameterServerConfig()
        ps_config = dataclass_replace(ps_config, shared_memory_local_access=True)
        super().__init__(cluster, ps_config, **kwargs)


class ClassicIPCPS(ClassicPS):
    """Classic PS with PS-Lite's inter-process local access (no shared memory)."""

    name = "classic-ps-lite"

    def __init__(self, cluster, ps_config=None, **kwargs) -> None:
        from dataclasses import replace as dataclass_replace

        from repro.config import ParameterServerConfig

        ps_config = ps_config or ParameterServerConfig()
        ps_config = dataclass_replace(ps_config, shared_memory_local_access=False)
        super().__init__(cluster, ps_config, **kwargs)
