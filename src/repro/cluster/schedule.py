"""Scripted cluster schedules: join/drain/fail events at simulated times.

A :class:`ClusterSchedule` is the test- and benchmark-facing way to drive an
elastic cluster: a list of :class:`ClusterEvent` entries, each naming a node,
an event kind, and the simulated time at which the control plane acts.  The
:class:`~repro.cluster.runtime.ElasticCluster` runtime consumes the schedule
in time order while the workload runs; join and drain events whose time
falls inside an epoch fire mid-epoch (the simulation driver interleaves them
with message processing), events at or before an epoch boundary fire before
the epoch's workers start, and fail events are always held to the next epoch
boundary (a crash cannot abort the node's running worker generators).

An **empty schedule is guaranteed inert**: no control-plane action is taken,
and the simulated results are bit-identical to a run without the elastic
runtime (asserted by ``tests/cluster/test_elastic.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from repro.errors import ClusterError

#: Event kinds.
JOIN = "join"
DRAIN = "drain"
FAIL = "fail"
REJOIN = "rejoin"

KINDS = (JOIN, DRAIN, FAIL, REJOIN)


@dataclass(frozen=True, slots=True)
class ClusterEvent:
    """One scripted membership event: ``kind`` on ``node`` at simulated ``time``."""

    time: float
    kind: str
    node: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ClusterError(f"event time must be non-negative, got {self.time}")
        if self.kind not in KINDS:
            raise ClusterError(f"unknown event kind {self.kind!r} (expected one of {KINDS})")
        if self.node < 0:
            raise ClusterError(f"event node must be non-negative, got {self.node}")


class ClusterSchedule:
    """An ordered script of membership events.

    Events may be passed at construction or added through the chainable
    builders::

        schedule = ClusterSchedule().join(0.5, node=2).drain(1.5, node=1)

    Iteration yields the events sorted by time (ties in insertion order).
    """

    def __init__(self, events: Iterable[ClusterEvent] = ()) -> None:
        self._events: List[Tuple[float, int, ClusterEvent]] = []
        self._sequence = 0
        for event in events:
            self.add(event)

    # ---------------------------------------------------------------- building
    def add(self, event: ClusterEvent) -> "ClusterSchedule":
        """Add one event (keeps the schedule sorted by time, then insertion)."""
        if not isinstance(event, ClusterEvent):
            raise ClusterError(f"expected a ClusterEvent, got {event!r}")
        self._events.append((event.time, self._sequence, event))
        self._sequence += 1
        self._events.sort(key=lambda item: (item[0], item[1]))
        return self

    def join(self, time: float, node: int) -> "ClusterSchedule":
        """Schedule ``node`` to join the cluster at ``time``."""
        return self.add(ClusterEvent(time=time, kind=JOIN, node=node))

    def drain(self, time: float, node: int) -> "ClusterSchedule":
        """Schedule ``node`` to start a graceful drain at ``time``."""
        return self.add(ClusterEvent(time=time, kind=DRAIN, node=node))

    def fail(self, time: float, node: int) -> "ClusterSchedule":
        """Schedule ``node`` to crash at ``time`` (failure injection)."""
        return self.add(ClusterEvent(time=time, kind=FAIL, node=node))

    def rejoin(self, time: float, node: int) -> "ClusterSchedule":
        """Schedule a previously failed ``node`` to come back at ``time``.

        The node rejoins empty-handed (its volatile state died with the
        crash) and goes through the normal joining rebalance.  Ordered after
        the matching ``fail`` — schedule sorting keeps ties in insertion
        order, so ``fail(t, n)`` followed by ``rejoin(t, n)`` models a
        crash-and-restart at one epoch boundary.
        """
        return self.add(ClusterEvent(time=time, kind=REJOIN, node=node))

    # ----------------------------------------------------------------- queries
    @property
    def events(self) -> List[ClusterEvent]:
        """The scripted events, sorted by time (ties in insertion order)."""
        return [event for _, _, event in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ClusterEvent]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        inner = ", ".join(
            f"{event.kind}({event.time:g}, node={event.node})" for event in self.events
        )
        return f"<ClusterSchedule [{inner}]>"
