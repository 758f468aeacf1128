"""FIFO message queues for communication between simulation processes.

:class:`MessageQueue` is the simulated analogue of an in-memory channel or a
thread-safe queue: producers :meth:`put` items (instantaneously), consumers
:meth:`get` an event that triggers as soon as an item is available.  Items are
delivered in FIFO order; if several consumers are waiting, they are served in
the order they asked.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from repro.simnet.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.kernel import Simulator


class MessageQueue:
    """An unbounded FIFO queue connecting simulation processes."""

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        """Number of items currently buffered (not yet handed to a getter)."""
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add ``item`` to the queue, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item.

        The event is pooled: ``get`` is called once per server/van loop
        iteration, making getter events one of the most allocated objects on
        the hot path.  Callers (the waiting process) do not retain the event
        past its processing, which is the pool-safety requirement.
        """
        event = self.sim.acquire_event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
