"""Cluster and cost-model configuration.

The original Lapse evaluation ran on a physical cluster (8 nodes, 4 worker
threads per node, 10 GBit Ethernet).  This reproduction replaces the physical
cluster with a discrete-event simulation, and the :class:`CostModel` collects
every latency and throughput constant that the simulation charges for an
action.  The defaults are chosen to match the relative magnitudes reported in
the paper:

* shared-memory access to a local parameter is orders of magnitude cheaper
  than a network round trip (paper §3.3: up to 6x cheaper than local queues,
  71-91x cheaper than PS-Lite's inter-process access, §4.2),
* a network message costs a fixed latency plus a size-dependent transfer time
  (10 GBit Ethernet in the paper),
* server-side handling of a request costs a small processing time.

Absolute values are not meant to match the paper's testbed; the *ratios* are,
because they determine the shape of the scaling curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError

#: Bytes per float32 parameter entry used for message-size accounting.
BYTES_PER_VALUE = 4
#: Bytes per key identifier used for message-size accounting.
BYTES_PER_KEY = 8
#: Fixed per-message envelope overhead in bytes (headers, framing).
MESSAGE_OVERHEAD_BYTES = 64


@dataclass(frozen=True)
class CostModel:
    """Latency/throughput constants charged by the simulation.

    All times are in (simulated) seconds, sizes in bytes.

    Attributes:
        network_latency: One-way propagation + protocol latency per message.
        network_bandwidth: Link bandwidth in bytes per second; transfer time of
            a message is ``size / network_bandwidth`` on top of the latency.
        sharedmem_access_latency: Cost of accessing a local parameter directly
            through shared memory (Lapse-style fast local access).
        ipc_access_latency: Cost of accessing a *local* parameter through
            inter-process communication with the local server (PS-Lite style).
            The paper reports this to be 71-91x slower than shared memory.
        interthread_access_latency: Cost of accessing a local parameter through
            inter-thread queues (Petuum style); the paper reports shared-memory
            access to be up to 6x faster than this.
        server_processing_time: Time the server thread spends handling one
            request message (lookup, apply update, build response).
        latch_acquire_time: Cost of acquiring a latch for a local access.
        relocation_processing_time: Server-side handling cost for each step of
            the relocation protocol.
        localize_issue_time: Worker-side cost of issuing a localize call.
    """

    network_latency: float = 150e-6
    network_bandwidth: float = 10e9 / 8.0
    sharedmem_access_latency: float = 0.25e-6
    ipc_access_latency: float = 8e-6
    interthread_access_latency: float = 1.5e-6
    server_processing_time: float = 1.5e-6
    latch_acquire_time: float = 0.05e-6
    relocation_processing_time: float = 1.5e-6
    localize_issue_time: float = 0.5e-6

    def message_time(self, size_bytes: float) -> float:
        """Return the one-way time for a message of ``size_bytes`` bytes."""
        if size_bytes < 0:
            raise ExperimentError(f"message size must be non-negative, got {size_bytes}")
        return self.network_latency + size_bytes / self.network_bandwidth

    def local_access_time(self, *, shared_memory: bool) -> float:
        """Return the cost of one local parameter access."""
        if shared_memory:
            return self.sharedmem_access_latency + self.latch_acquire_time
        return self.ipc_access_latency


def message_size(num_keys: int, num_values: int) -> int:
    """Estimate the wire size of a PS message.

    Args:
        num_keys: Number of key identifiers carried by the message.
        num_values: Total number of scalar parameter values carried.

    Returns:
        Estimated size in bytes including the fixed envelope overhead.
    """
    if num_keys < 0 or num_values < 0:
        raise ExperimentError("message_size arguments must be non-negative")
    return MESSAGE_OVERHEAD_BYTES + num_keys * BYTES_PER_KEY + num_values * BYTES_PER_VALUE


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster.

    Attributes:
        num_nodes: Number of machines. The paper uses 1, 2, 4, and 8.
        workers_per_node: Worker threads per node. The paper uses 4.
        cost_model: The :class:`CostModel` used by the simulation.
        seed: Base random seed; every node/worker derives its own stream.
    """

    num_nodes: int = 1
    workers_per_node: int = 4
    cost_model: CostModel = field(default_factory=CostModel)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ExperimentError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.workers_per_node < 1:
            raise ExperimentError(
                f"workers_per_node must be >= 1, got {self.workers_per_node}"
            )

    @property
    def total_workers(self) -> int:
        """Total number of worker threads in the cluster."""
        return self.num_nodes * self.workers_per_node

    def worker_id(self, node: int, local_worker: int) -> int:
        """Return the global worker id of ``local_worker`` on ``node``."""
        self._check_node(node)
        if not 0 <= local_worker < self.workers_per_node:
            raise ExperimentError(
                f"local worker {local_worker} out of range [0, {self.workers_per_node})"
            )
        return node * self.workers_per_node + local_worker

    def node_of_worker(self, worker_id: int) -> int:
        """Return the node that hosts global worker ``worker_id``."""
        if not 0 <= worker_id < self.total_workers:
            raise ExperimentError(
                f"worker id {worker_id} out of range [0, {self.total_workers})"
            )
        return worker_id // self.workers_per_node

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ExperimentError(f"node {node} out of range [0, {self.num_nodes})")


@dataclass(frozen=True)
class ParameterServerConfig:
    """Configuration shared by every PS variant.

    Attributes:
        num_keys: Size of the key space (keys are ``0 .. num_keys - 1``).
        value_length: Number of float32 entries stored per key.
        shared_memory_local_access: Whether local parameter accesses bypass the
            server thread (Lapse-style fast local access).
        location_caches: Enable location caches (Lapse only).
        staleness_bound: Staleness bound for the stale PS (ignored elsewhere).
        stale_server_push: Use server-based synchronization (SSPPush) in the
            stale PS instead of client-based synchronization (SSP).
        replica_sync_trigger: When the replication-based PS propagates
            accumulated updates: ``"time"`` (a per-node timer fires every
            ``replica_sync_interval`` simulated seconds while there are
            unsynchronized updates) or ``"clock"`` (a node synchronizes
            whenever one of its workers advances its clock).
        replica_sync_interval: Period of the time-triggered synchronization
            loop in simulated seconds (replica PS only).
        hot_key_threshold: Access count at which a node replicates a key
            (replication-based PSs only; see
            :class:`repro.ps.partition.AccessCountHotKeyPolicy`).
    """

    num_keys: int = 1024
    value_length: int = 8
    shared_memory_local_access: bool = True
    location_caches: bool = False
    staleness_bound: int = 1
    stale_server_push: bool = False
    replica_sync_trigger: str = "time"
    replica_sync_interval: float = 500e-6
    hot_key_threshold: int = 1

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise ExperimentError(f"num_keys must be >= 1, got {self.num_keys}")
        if self.value_length < 1:
            raise ExperimentError(f"value_length must be >= 1, got {self.value_length}")
        if self.staleness_bound < 0:
            raise ExperimentError(
                f"staleness_bound must be >= 0, got {self.staleness_bound}"
            )
        if self.replica_sync_trigger not in ("time", "clock"):
            raise ExperimentError(
                "replica_sync_trigger must be 'time' or 'clock', "
                f"got {self.replica_sync_trigger!r}"
            )
        if self.replica_sync_interval <= 0:
            raise ExperimentError(
                f"replica_sync_interval must be > 0, got {self.replica_sync_interval}"
            )
        if self.hot_key_threshold < 1:
            raise ExperimentError(
                f"hot_key_threshold must be >= 1, got {self.hot_key_threshold}"
            )


#: The parallelism levels used throughout the paper's evaluation (nodes x 4 threads).
PAPER_PARALLELISM_LEVELS = (1, 2, 4, 8)


def derive_seed(base_seed: int, *components: int) -> int:
    """Derive a deterministic sub-seed from a base seed and integer components.

    This keeps every simulated node/worker on an independent but reproducible
    random stream.
    """
    seed = base_seed & 0xFFFFFFFF
    for component in components:
        seed = (seed * 1_000_003 + (component & 0xFFFFFFFF) + 0x9E3779B9) & 0xFFFFFFFF
    return seed
