"""Parameter-server implementations.

Three architectures from the paper, all running on the same simulated cluster
and exposing the same client API (Table 2):

* :class:`~repro.ps.classic.ClassicPS` (+ :class:`ClassicIPCPS` /
  :class:`ClassicSharedMemoryPS`) — static allocation, PS-Lite style,
* :class:`~repro.ps.stale.StalePS` — bounded staleness with replicas,
  Petuum style (SSP and SSPPush synchronization),
* :class:`~repro.ps.lapse.LapsePS` — dynamic parameter allocation (the
  paper's contribution): ``localize``, relocation protocol, home-node location
  management, optional location caches.

Two further architectures go beyond the paper's systems:

* :class:`~repro.ps.replica.ReplicaPS` — *replication*-based parameter
  management (the direction the paper's related work contrasts DPA with):
  eager replication of hot keys, local conflict-free writes, and a
  time- or clock-triggered synchronization loop,
* :class:`~repro.ps.hybrid.HybridPS` — the per-key *combination* the paper's
  outlook sketches (and NuPS formalizes): replicate hot keys, relocate the
  long tail.

All of them are the same machine — one
:class:`~repro.ps.base.ParameterServer`, one
:class:`~repro.ps.base.WorkerClient`, one :class:`~repro.ps.base.NodeState`
(:mod:`repro.ps.base`) — parameterised by a
:class:`~repro.ps.policy.ManagementPolicy`, the only place a technique lives
(:mod:`repro.ps.policy` for the interface; each technique's module for its
policy).  The named systems are declarations: name, policy, fixed
configuration overrides.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports
from repro.ps.base import NodeState, ParameterServer, QueuedOp, WorkerClient
from repro.ps.classic import ClassicIPCPS, ClassicPS, ClassicSharedMemoryPS, StaticPolicy
from repro.ps.futures import OperationHandle
from repro.ps.metrics import PSMetrics, RunningStat
from repro.ps.policy import ManagementPolicy, Route, consistency_classification
from repro.ps.partition import (
    AccessCountHotKeyPolicy,
    ElasticPartitioner,
    KeyPartitioner,
    RangePartitioner,
)
from repro.ps.storage import DenseStorage, LatchTable

if TYPE_CHECKING:
    from repro.ps.hybrid import HybridManagementPolicy, HybridPS
    from repro.ps.lapse import LapsePS, RelocationPolicy
    from repro.ps.replica import EagerReplicationPolicy, ReplicaPS
    from repro.ps.stale import StalePS, StaleReplicaPolicy

#: Every system but the classic one loads on first access.
__getattr__ = lazy_exports(__name__, {
    "repro.ps.hybrid": ("HybridManagementPolicy", "HybridPS"),
    "repro.ps.lapse": ("LapsePS", "RelocationPolicy"),
    "repro.ps.replica": ("EagerReplicationPolicy", "ReplicaPS"),
    "repro.ps.stale": ("StalePS", "StaleReplicaPolicy"),
})

__all__ = [
    "AccessCountHotKeyPolicy",
    "ClassicIPCPS",
    "ClassicPS",
    "ClassicSharedMemoryPS",
    "DenseStorage",
    "EagerReplicationPolicy",
    "ElasticPartitioner",
    "HybridManagementPolicy",
    "HybridPS",
    "KeyPartitioner",
    "LapsePS",
    "LatchTable",
    "ManagementPolicy",
    "NodeState",
    "OperationHandle",
    "ParameterServer",
    "PSMetrics",
    "QueuedOp",
    "RangePartitioner",
    "RelocationPolicy",
    "ReplicaPS",
    "Route",
    "RunningStat",
    "StalePS",
    "StaleReplicaPolicy",
    "StaticPolicy",
    "WorkerClient",
    "consistency_classification",
]
