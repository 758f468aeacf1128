"""Parameter access locality (PAL) techniques.

The three techniques of §2.2, implemented as reusable helpers that drive the
PS client API (``localize`` / ``pull`` / ``push``):

* :mod:`repro.pal.data_clustering` — exploit structure in the training data so
  that each worker mostly accesses a node-local subset of the parameters,
* :mod:`repro.pal.parameter_blocking` — divide parameters into blocks and
  restrict each worker to one block per subepoch (DSGD-style schedules),
* :mod:`repro.pal.latency_hiding` — prelocalize the parameters of upcoming
  data points so accesses are local by the time they happen.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.pal.data_clustering import access_counts_by_node
    from repro.pal.data_clustering import assign_parameters_by_frequency, clustering_localize_plan
    from repro.pal.latency_hiding import Prelocalizer
    from repro.pal.parameter_blocking import BlockSchedule, block_of_key, block_of_keys
    from repro.pal.parameter_blocking import keys_of_block

#: Each technique loads where the task that uses it does.
__getattr__ = lazy_exports(__name__, {
    "repro.pal.data_clustering": (
        "access_counts_by_node", "assign_parameters_by_frequency", "clustering_localize_plan"
    ),
    "repro.pal.latency_hiding": ("Prelocalizer",),
    "repro.pal.parameter_blocking": (
        "BlockSchedule", "block_of_key", "block_of_keys", "keys_of_block"
    ),
})

__all__ = [
    "BlockSchedule",
    "Prelocalizer",
    "access_counts_by_node",
    "assign_parameters_by_frequency",
    "block_of_key",
    "block_of_keys",
    "clustering_localize_plan",
    "keys_of_block",
]
