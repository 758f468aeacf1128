"""Helpers shared by the ML task trainers."""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Generator, Optional, Sequence, Tuple

import numpy as np

from repro.ps.base import FusedLocalSteps, ParameterServer


def supports_localize(ps: ParameterServer) -> bool:
    """Whether the PS supports ``localize`` (relocation-capable policies)."""
    return ps.management_policy.supports_localize


def needs_clock(ps: ParameterServer) -> bool:
    """Whether the PS requires explicit clock advances for synchronization."""
    return ps.management_policy.needs_clock


def maybe_localize(client, keys) -> Generator:
    """Localize ``keys`` if the PS supports it; otherwise do nothing."""
    if keys and supports_localize(client.ps):
        yield from client.localize(list(keys))
    return None


def subepoch_synchronization(client) -> Generator:
    """The synchronization every PS variant runs between subepochs.

    The paper runs a global barrier after each subepoch for all systems and,
    for the stale PS, additionally one clock advance (Appendix A).
    """
    if needs_clock(client.ps):
        yield from client.clock()
    yield from client.barrier()
    return None


def install_parameters(ps: ParameterServer, values: np.ndarray) -> None:
    """Set-up: overwrite the whole model with ``values`` (one row per key),
    one batched store write per owning node."""
    keys = np.arange(len(values), dtype=np.int64)
    owners = ps.current_owners(keys)
    for node, state in enumerate(ps.states):
        node_keys = keys[owners == node]
        if node_keys.size:
            state.storage.set_many(node_keys, values[node_keys])


def local_step(
    client,
    runner: Optional[FusedLocalSteps],
    keys: Sequence[int],
    compute_time: float,
    kernel: Callable[[np.ndarray], np.ndarray],
) -> Generator:
    """One training step: pull ``keys``, push ``kernel(values)``, compute.

    Takes the verified fused lane (:meth:`~repro.ps.base.FusedLocalSteps.step`)
    when ``runner`` offers it for this step and the event lane otherwise; both
    run the same ``kernel`` and land on the same simulated instants.
    """
    wake = runner.step(keys, compute_time, kernel) if runner is not None else None
    if wake is not None:
        yield wake
        return None
    pulled = yield from client.pull(keys)
    client.push_async(keys, kernel(pulled), needs_ack=False)
    if compute_time > 0:
        yield compute_time
    return None


class FusedLaneCounts:
    """What a trainer's fused runners decided, summed over workers and epochs.

    ``fused_steps`` ran inline; ``declined_steps`` went to the event path,
    tallied by reason in ``decline_reasons`` (see
    :class:`~repro.ps.base.FusedLocalSteps`); ``visit_conflicts`` counts the
    real backend's block visits whose compare-and-swap write lost a race.
    ``visit_commits`` counts the simulator's commits of block-visit numerics
    and ``committed_visits`` the visits they ran (see
    :meth:`~repro.ps.base.FusedLocalSteps.commit`).  All stay 0 where no
    runner is offered.  Kept off :class:`~repro.ps.metrics.PSMetrics`: they
    describe the engine, not the simulated system.
    """

    def __init__(self) -> None:
        self.fused_steps = 0
        self.declined_steps = 0
        self.decline_reasons: Counter = Counter()
        self.visit_conflicts = 0
        self.visit_commits = 0
        self.committed_visits = 0

    def count_lanes(self, counts: Tuple[int, Dict[str, int], int, int, int]) -> None:
        """Add what one worker's runner reported (:func:`lane_counts`)."""
        taken, reasons, conflicts, commits, committed = counts
        self.fused_steps += taken
        self.declined_steps += sum(reasons.values())
        self.decline_reasons.update(reasons)
        self.visit_conflicts += conflicts
        self.visit_commits += commits
        self.committed_visits += committed


def lane_counts(runner: Optional[Any]) -> Tuple[int, Dict[str, int], int, int, int]:
    """What a worker reports home of its fused runner (zeros without one)."""
    if runner is None:
        return 0, {}, 0, 0, 0
    extras = [getattr(runner, name, 0) for name in ("conflicts", "commits", "committed")]
    return (runner.taken, dict(runner.reasons), *extras)
