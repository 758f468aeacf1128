"""repro: a reproduction of "Dynamic Parameter Allocation in Parameter Servers".

The package implements, on a simulated cluster, the Lapse parameter server
with dynamic parameter allocation (Renz-Wieland et al., VLDB 2020) together
with the systems it is compared against (classic PS-Lite-style and stale
Petuum-style parameter servers), the parameter-access-locality techniques it
enables (data clustering, parameter blocking, latency hiding), and the three
ML tasks of the paper's evaluation (matrix factorization, knowledge-graph
embeddings, word vectors).

Quickstart::

    from repro import ClusterConfig, ParameterServerConfig, LapsePS

    cluster = ClusterConfig(num_nodes=4, workers_per_node=4)
    ps = LapsePS(cluster, ParameterServerConfig(num_keys=1000, value_length=8))

    def worker(client, worker_id):
        yield from client.localize([worker_id])     # relocate the key here
        values = yield from client.pull([worker_id])
        yield from client.push([worker_id], values * 0 + 1)
        return None

    ps.run_workers(worker)
    print(ps.metrics().relocations, "relocations in", ps.simulated_time, "sim-seconds")
"""

from repro.config import ClusterConfig, CostModel, ParameterServerConfig
from repro.ps import (
    ClassicIPCPS,
    ClassicPS,
    ClassicSharedMemoryPS,
    LapsePS,
    ReplicaPS,
    StalePS,
)

__version__ = "1.0.0"

__all__ = [
    "ClassicIPCPS",
    "ClassicPS",
    "ClassicSharedMemoryPS",
    "ClusterConfig",
    "CostModel",
    "LapsePS",
    "ParameterServerConfig",
    "ReplicaPS",
    "StalePS",
    "__version__",
]
