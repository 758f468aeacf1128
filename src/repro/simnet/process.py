"""Generator-based simulation processes.

A process wraps a Python generator.  The generator *yields* the things it
wants to wait for:

* an :class:`~repro.simnet.events.Event` — resume when the event is processed,
  receiving the event's value (or having its exception thrown in),
* a ``float``/``int`` — shorthand for a :class:`Timeout` of that many seconds,
* another :class:`Process` — resume when that process finishes.

A :class:`Process` is itself an event: it triggers with the generator's return
value when the generator completes, so processes can wait for each other.

Hot-path note: plain ``float``/``int`` yields — the dominant yield kind on the
simulator's hot path (server processing costs, compute times) — do not
allocate a :class:`Timeout` event at all; the resume is scheduled directly as
a kernel callback token (:meth:`Simulator.call_later`), which is
order-identical to the Timeout it replaces.  Exotic numerics (NumPy scalars)
keep the Timeout path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import ProcessError
from repro.simnet.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.kernel import Simulator


class Process(Event):
    """A running simulation process (and the event of its completion)."""

    __slots__ = ("name", "_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator, name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(
                "Process requires a generator; did you call the generator function?"
            )
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(None)

    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        if event._exception is None:
            self._step(event._value)
            return
        # Failure path (rare): throw the exception into the generator.
        self._waiting_on = None
        try:
            yielded = self._generator.throw(event._exception)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:
            if self._callbacks:
                self.fail(exc)
                return
            raise
        self._dispatch(yielded)

    def _step(self, value: Any) -> None:
        """Resume the generator with ``value`` (the hot success path)."""
        self._waiting_on = None
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:
            # Fail the completion event so that waiting processes see the
            # exception; if nobody is waiting, surface it immediately so bugs
            # in simulation code do not silently vanish.  (Reads the raw slot
            # to avoid allocating an empty callback list just to test it.)
            if self._callbacks:
                self.fail(exc)
                return
            raise
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        """Wait on whatever the generator yielded."""
        cls = yielded.__class__
        if cls is float or cls is int:
            # Timeout fast path: schedule the resume directly, no Event.
            self.sim.call_later(yielded, self._step, None)
            return
        if isinstance(yielded, Event):
            # Inlined _wait_on for the dominant event-yield case.
            if yielded.sim is not self.sim:
                raise ProcessError("process yielded an event from a different simulator")
            self._waiting_on = yielded
            if not yielded._processed:
                callbacks = yielded._callbacks
                if callbacks is None:
                    yielded._callbacks = [self._resume]
                else:
                    callbacks.append(self._resume)
                return
        self._wait_on(self._to_event(yielded))

    def _wait_on(self, target: Event) -> None:
        self._waiting_on = target
        if target._processed:
            # The target already happened (e.g. an immediately-available queue
            # item processed earlier this step); resume via a zero-delay event
            # to keep resumption ordering consistent.
            relay = self.sim.acquire_event()
            relay.callbacks.append(self._resume)
            if target.ok:
                relay.succeed(target.value)
            else:
                relay.fail(target.exception)  # type: ignore[arg-type]
        else:
            callbacks = target._callbacks
            if callbacks is None:
                target._callbacks = [self._resume]
            else:
                callbacks.append(self._resume)

    def _to_event(self, yielded: Any) -> Event:
        if isinstance(yielded, Event):
            if yielded.sim is not self.sim:
                raise ProcessError("process yielded an event from a different simulator")
            return yielded
        if isinstance(yielded, (int, float)) and not isinstance(yielded, bool):
            return Timeout(self.sim, float(yielded))
        raise ProcessError(
            f"process {self.name!r} yielded an unsupported object: {yielded!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "finished" if self.triggered else "running"
        return f"<Process {self.name!r} {state}>"
