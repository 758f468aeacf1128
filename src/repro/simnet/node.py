"""The network addresses of a simulated machine.

A node is a server thread, a client "van" that demultiplexes responses for
the node's workers, and — on node 0 — the cluster-wide barrier coordinator.
Each is one address on the shared :class:`~repro.simnet.network.Network`.
"""

from __future__ import annotations

from typing import Tuple


def server_address(node: int) -> Tuple[str, int]:
    """Return the network address of the server thread on ``node``."""
    return ("server", node)


def van_address(node: int) -> Tuple[str, int]:
    """Network address of the client "van" (response demultiplexer) on ``node``."""
    return ("van", node)


def coordinator_address() -> Tuple[str, int]:
    """Network address of the cluster-wide barrier coordinator (on node 0)."""
    return ("coordinator", 0)
