"""Nested reference implementation of the shard-mode lineage key.

The kernel once keyed every shard-mode event by the nested tuple
``(sched_time, parent_lineage, shard_rank, seq, depth)``: ``parent_lineage``
is the (depth-trimmed) key of the event being processed when this one was
scheduled, ``()`` at the root; ``depth`` is bookkeeping for the trim and
never decides a comparison.  Plain tuple comparison of these keys *is* the
recursion that reproduces the sequential engine's order, which makes them
the oracle of the flat keys :mod:`repro.simnet.kernel` allocates today:
``flatten`` is the serialization the kernel claims to build incrementally,
and ``tests/simnet/test_lineage_order.py`` holds the kernel to it.
"""

import math
from typing import Tuple

#: Parent of a lineage scheduled at the root (no processing event).
ROOT: Tuple = ()

#: Ancestry depth kept when a chain is rebuilt.
LINEAGE_KEEP = 24

#: Depth at which a chain is trimmed back to ``LINEAGE_KEEP`` levels.
LINEAGE_REBUILD = 48


def trim(lineage: Tuple) -> Tuple:
    """The parent context a processed event hands its children.

    Unchanged below ``LINEAGE_REBUILD``; otherwise the top ``LINEAGE_KEEP``
    levels are rebuilt over a ``()`` root.
    """
    if lineage[4] < LINEAGE_REBUILD:
        return lineage
    chain = []
    node = lineage
    for _ in range(LINEAGE_KEEP):
        chain.append(node)
        node = node[1]
    ctx: Tuple = ()
    depth = 0
    for node in reversed(chain):
        ctx = (node[0], ctx, node[2], node[3], depth)
        depth += 1
    return ctx


def root(now: float, rank: int, seq: int) -> Tuple:
    """Key of an action scheduled at ``now`` outside any processed event."""
    return (now, ROOT, rank, seq, 0)


def child(now: float, parent: Tuple, rank: int, seq: int) -> Tuple:
    """Key of an action scheduled at ``now`` while ``parent`` is processed."""
    ctx = trim(parent)
    return (now, ctx, rank, seq, ctx[4] + 1)


def inherited(seq: int) -> Tuple:
    """Key of a heap entry the shard inherited at the fork (global ``seq``)."""
    return (-1.0, ROOT, -1, seq, 0)


def flatten(lineage: Tuple) -> Tuple:
    """The prefix-free flat serialization of a nested key.

    ``F(()) = (-inf,)`` and ``F((s, P, r, q, d)) = (s,) + F(P) + (r, q)``.
    """
    if lineage == ROOT:
        return (-math.inf,)
    sched_time, parent, rank, seq, _depth = lineage
    return (sched_time,) + flatten(parent) + (rank, seq)
