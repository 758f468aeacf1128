"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper on scaled-down
synthetic workloads (see "Scaled-down inputs" in docs/architecture.md).  The
benchmarks print the regenerated rows/series and assert the *shape* of the
paper's findings (who wins, roughly by how much, where crossovers lie) rather
than absolute numbers.

All benchmarks use 2 simulated worker threads per node (the paper uses 4) and
the parallelism levels 1, 2, 4 and 8 nodes, matching the paper's x-axes.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Worker threads per simulated node used by all benchmarks.
WORKERS_PER_NODE = 2

#: Node counts swept by the figure benchmarks (the paper uses 1, 2, 4, 8).
PARALLELISM = (1, 2, 4, 8)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

