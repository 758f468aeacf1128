"""Helpers shared by the ML task trainers."""

from __future__ import annotations

from typing import Generator

from repro.ps.base import ParameterServer


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
