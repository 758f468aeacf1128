"""Discrete-event simulation substrate for the Lapse reproduction.

This package provides the "cluster" on which all parameter-server variants
run: a deterministic discrete-event simulator (:mod:`repro.simnet.kernel`),
generator-based processes (:mod:`repro.simnet.process`), FIFO message queues
(:mod:`repro.simnet.queues`), and a point-to-point network with per-channel
ordered delivery and a configurable latency/bandwidth cost model
(:mod:`repro.simnet.network`).

The substrate replaces the physical 8-node cluster used in the paper: worker
and server threads become simulation processes, network messages are charged
latency and transfer time from :class:`repro.config.CostModel`, and "run time"
is simulated time.
"""

from repro.simnet.clock import WallClock
from repro.simnet.events import AllOf, Event, Timeout
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network, NetworkStats
from repro.simnet.process import Process
from repro.simnet.queues import MessageQueue

__all__ = [
    "AllOf",
    "Event",
    "MessageQueue",
    "Network",
    "NetworkStats",
    "Process",
    "Simulator",
    "Timeout",
    "WallClock",
]
