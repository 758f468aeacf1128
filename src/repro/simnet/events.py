"""Event primitives for the discrete-event simulator.

An :class:`Event` is a one-shot occurrence with an optional value.  Processes
wait on events by yielding them; the simulator resumes the process when the
event is processed.  :class:`Timeout` is an event that triggers after a fixed
simulated delay.  :class:`AllOf` waits for several events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.kernel import Simulator


class Event:
    """A one-shot simulation event.

    Events move through three stages: *pending* (created), *triggered*
    (scheduled on the event queue via :meth:`succeed` or :meth:`fail`), and
    *processed* (popped from the queue; callbacks have run).

    The callback list is allocated lazily: events that nobody listens to (a
    large fraction of the events on the simulator's hot path) never pay for a
    list allocation, and the kernel detaches the list on processing without
    allocating a replacement.
    """

    __slots__ = (
        "sim",
        "_callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_processed",
        "_pooled",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        #: Kernel-internal: recycled into the simulator's event pool after
        #: processing (set only by :meth:`Simulator.acquire_event`).
        self._pooled = False

    @property
    def callbacks(self) -> List[Callable[["Event"], None]]:
        """Callbacks invoked (with the event) when the event is processed.

        Allocated on first access; callbacks appended after the event was
        processed are never invoked (same contract as before laziness).
        """
        callbacks = self._callbacks
        if callbacks is None:
            callbacks = self._callbacks = []
        return callbacks

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled for processing."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event completed successfully (only valid once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed`."""
        if not self._triggered:
            raise SimulationError("event value accessed before the event was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception passed to :meth:`fail`, if any."""
        return self._exception

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` simulated seconds."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._triggered = True
        self._value = value
        self.sim._enqueue(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with a failure after ``delay`` simulated seconds."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._enqueue(self, delay)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(sim)
        self.delay = delay
        self.succeed(value=value, delay=delay)


class AllOf(Event):
    """Event that triggers when *all* child events have been processed.

    Its value is the list of child values in the order the children were given.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("all events of a condition must share a simulator")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(value=[])
            return
        for event in self.events:
            if event.processed:
                self._child_done(event)
            else:
                event.callbacks.append(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(value=[child.value for child in self.events])
