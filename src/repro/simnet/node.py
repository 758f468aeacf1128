"""Node abstraction: a simulated machine hosting server and worker threads.

A :class:`Node` owns the addresses of its server thread and worker threads on
the shared :class:`~repro.simnet.network.Network`, plus a per-node random
number generator derived deterministically from the cluster seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Tuple

import numpy as np

from repro.config import ClusterConfig, derive_seed
from repro.errors import NetworkError
from repro.simnet.network import Network
from repro.simnet.queues import MessageQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.kernel import Simulator


def server_address(node: int) -> Tuple[str, int]:
    """Return the network address of the server thread on ``node``."""
    return ("server", node)


def worker_address(node: int, local_worker: int) -> Tuple[str, int, int]:
    """Return the network address of worker ``local_worker`` on ``node``."""
    return ("worker", node, local_worker)


class Node:
    """A simulated machine: one server thread plus several worker threads."""

    def __init__(
        self,
        sim: "Simulator",
        network: Network,
        node_id: int,
        config: ClusterConfig,
    ) -> None:
        if not 0 <= node_id < config.num_nodes:
            raise NetworkError(
                f"node id {node_id} out of range [0, {config.num_nodes})"
            )
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.config = config
        self.rng = np.random.default_rng(derive_seed(config.seed, node_id))
        #: Inbox of the server thread.
        self.server_inbox: MessageQueue = network.register(server_address(node_id), node_id)
        #: Inboxes of the worker threads, indexed by local worker id.
        self.worker_inboxes = [
            network.register(worker_address(node_id, w), node_id)
            for w in range(config.workers_per_node)
        ]

    @property
    def num_workers(self) -> int:
        """Number of worker threads on this node."""
        return self.config.workers_per_node

    # ------------------------------------------------------------ lifecycle
    @property
    def alive(self) -> bool:
        """Whether this node is still connected to the network."""
        return self.node_id not in self.network.failed_nodes

    def fail(self) -> None:
        """Crash this node: all its subsequent traffic is dropped."""
        self.network.fail_node(self.node_id)

    def worker_rng(self, local_worker: int) -> np.random.Generator:
        """Return a deterministic RNG for worker ``local_worker`` on this node."""
        if not 0 <= local_worker < self.num_workers:
            raise NetworkError(
                f"worker {local_worker} out of range [0, {self.num_workers})"
            )
        return np.random.default_rng(derive_seed(self.config.seed, self.node_id, local_worker + 1))

    def send_to_server(self, dst_node: int, payload, size_bytes: int) -> None:
        """Send a message from this node to the server thread of ``dst_node``."""
        self.network.send(self.node_id, server_address(dst_node), payload, size_bytes)

    def send(self, dst_address: Hashable, payload, size_bytes: int) -> None:
        """Send a message from this node to an arbitrary registered address."""
        self.network.send(self.node_id, dst_address, payload, size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Node {self.node_id} ({self.num_workers} workers)>"
