"""Wall clock of the real execution backend.

Everything above the execution layer (trainers, experiment runners, reports)
measures epochs as ``end_time - start_time`` against a single ``.now``
property behind :attr:`ParameterServer.simulated_time`.  On the simulated
backend that property is the discrete-event kernel's virtual time
(:attr:`repro.simnet.kernel.Simulator.now`); on the real multiprocessing
backend it is :class:`WallClock` — monotonic wall time since construction.

``WallClock`` uses :func:`time.monotonic` (not ``perf_counter``): on Linux it
is CLOCK_MONOTONIC, whose epoch is shared across processes, so timestamps
stamped in one process (e.g. ``removed_at`` on a relocation transfer) can be
compared against readings in another.
"""

from __future__ import annotations

import time


class WallClock:
    """Monotonic wall-clock seconds elapsed since this clock was created."""

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._start

    def absolute(self) -> float:
        """Raw monotonic reading, comparable across processes on one host."""
        return time.monotonic()
