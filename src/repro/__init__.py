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

import importlib
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, Sequence


def lazy_exports(package: str, homes: Dict[str, Sequence[str]]) -> Callable[[str], Any]:
    """A module ``__getattr__`` (PEP 562) for ``package``: the first access to
    a name of ``homes`` (module -> names) imports its module and caches it.
    Defined above the imports, because the subpackages they load use it."""
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


from repro.config import ClusterConfig, CostModel, ParameterServerConfig
from repro.ps import ClassicIPCPS, ClassicPS, ClassicSharedMemoryPS

if TYPE_CHECKING:
    from repro.ps import LapsePS, ReplicaPS, StalePS

__getattr__ = lazy_exports(__name__, {"repro.ps": ("LapsePS", "ReplicaPS", "StalePS")})

__version__ = "0.4.0"

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
