"""Helpers shared by the ML task trainers."""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

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
