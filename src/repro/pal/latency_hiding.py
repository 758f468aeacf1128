"""Latency hiding by prelocalization (§2.2.3).

Instead of prefetching (replicating) a parameter — which hides latency but
loses sequential consistency and requires managing the prefetched copies —
Lapse *prelocalizes*: the parameter is relocated to the worker's node before
it is needed, so that the access is local by the time it happens, updates of
other workers remain visible, and local updates need not be written back.

:class:`Prelocalizer` implements the lookahead scheme the paper uses for the
knowledge-graph-embedding and word-vector experiments (Appendix A): while the
worker computes on data point ``i``, the parameters of data point ``i + k``
(``k`` = lookahead, 1 by default) are already being localized.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence

from repro.errors import ExperimentError
from repro.ps.base import WorkerClient
from repro.ps.futures import OperationHandle


class Prelocalizer:
    """Sliding-window prelocalization of upcoming parameter accesses.

    Usage pattern inside a worker process::

        prelocalizer = Prelocalizer(client, lookahead=1)
        prelocalizer.prime(keys_of(data[0]))
        for i, point in enumerate(data):
            if i + 1 < len(data):
                prelocalizer.announce(keys_of(data[i + 1]))
            yield from prelocalizer.ready()      # wait for point i's keys
            ...pull/push the keys of point i (now local)...

    ``announce`` issues asynchronous localize calls; ``ready`` waits for the
    localize of the *current* point, which normally completed while the
    previous point was being processed (so the wait is free).
    """

    def __init__(self, client: WorkerClient, lookahead: int = 1) -> None:
        if lookahead < 1:
            raise ExperimentError(f"lookahead must be >= 1, got {lookahead}")
        self.client = client
        self.lookahead = lookahead
        self._window: Deque[Optional[OperationHandle]] = deque()
        self.announced_keys = 0

    def prime(self, *key_sets: Sequence[int]) -> None:
        """Issue localizes for the first data point(s) before the loop starts."""
        for keys in key_sets:
            self.announce(keys)

    def announce(self, keys: Sequence[int]) -> None:
        """Asynchronously localize the keys of an upcoming data point."""
        keys = list(keys)
        if keys:
            handle = self.client.localize_async(keys)
            self.announced_keys += len(keys)
        else:
            handle = None
        self._window.append(handle)

    def ready(self):
        """Wait until the oldest announced localize has completed (generator)."""
        if not self._window:
            raise ExperimentError("ready() called before any announce()/prime()")
        handle = self._window.popleft()
        if handle is not None and not handle.done:
            yield handle.completion_event
        return handle

    @property
    def outstanding(self) -> int:
        """Number of announced-but-not-yet-consumed data points."""
        return len(self._window)

