"""Operation handles for synchronous and asynchronous PS primitives.

Every ``pull`` / ``push`` / ``localize`` call returns an
:class:`OperationHandle`.  Synchronous calls wait for the handle before
returning; asynchronous calls hand the handle to the application, which can
later wait on it (or on many at once) — exactly how PS-Lite and Lapse expose
asynchronous operation.

A handle may be split across several destination nodes (message grouping): it
completes when all of its sub-requests have been answered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterServerError
from repro.simnet.events import AllOf, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.kernel import Simulator


class OperationHandle:
    """Tracks the completion of one logical PS operation.

    Attributes:
        op_type: ``"pull"``, ``"push"`` or ``"localize"``.
        keys: The keys named by the operation, in application order.
        issued_at: Simulated time at which the operation was issued.
    """

    __slots__ = (
        "sim",
        "op_type",
        "keys",
        "value_length",
        "issued_at",
        "completed_at",
        "_event",
        "_pending_keys",
        "_values",
        "_batch",
        "op_id",
    )

    def __init__(
        self,
        sim: "Simulator",
        op_type: str,
        keys: Sequence[int],
        value_length: int,
    ) -> None:
        self.sim = sim
        self.op_type = op_type
        # Client callers pass the already-checked int tuple from _check_keys;
        # anything else is normalized here.
        if type(keys) is not tuple:
            keys = tuple(int(k) for k in keys)
        self.keys: Tuple[int, ...] = keys
        self.value_length = value_length
        self.issued_at = sim._now
        self.completed_at: Optional[float] = None
        self._event = Event(sim)
        # The completion event always carries the handle — pre-seeding the
        # value (succeed() overwrites it with the same object) lets cleanup
        # callbacks find the handle even when the operation *fails*, without
        # allocating a closure per registration.
        self._event._value = self
        self._pending_keys = set(keys)
        self._values: Dict[int, np.ndarray] = {}
        #: Response block of a pull answered in one piece (:meth:`complete_batch`).
        self._batch: Optional[np.ndarray] = None
        #: Key of the handle in its node's outstanding table, carried by every
        #: pull, push and stale fetch request sent for it (drawn by
        #: :meth:`~repro.ps.base.NodeState.register_handle`).
        self.op_id: Optional[int] = None

    # ------------------------------------------------------------------ state
    @property
    def done(self) -> bool:
        """Whether every key of the operation has been answered."""
        return self._event.triggered

    @property
    def completion_event(self) -> Event:
        """The simulation event that fires when the operation completes."""
        return self._event

    @property
    def latency(self) -> float:
        """Issue-to-completion latency (only valid once done)."""
        if self.completed_at is None:
            raise ParameterServerError("operation has not completed yet")
        return self.completed_at - self.issued_at

    # -------------------------------------------------------------- completion
    def complete_keys(
        self, keys: Sequence[int], values: Optional[np.ndarray] = None
    ) -> None:
        """Mark ``keys`` as answered, optionally recording pulled values."""
        pending = self._pending_keys
        if values is None:
            # Ack-style completion (pushes, localizes): no value bookkeeping.
            for key in keys:
                pending.discard(int(key))
            if not pending and not self._event._triggered:
                self.completed_at = self.sim._now
                self._event.succeed(self)
            return
        if values.__class__ is not np.ndarray or values.dtype != np.float64:
            values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values.reshape(1, -1)
        if values.shape[0] != len(keys):
            raise ParameterServerError(
                f"got {values.shape[0]} value rows for {len(keys)} keys"
            )
        recorded = self._values
        for index, key in enumerate(keys):
            key = int(key)
            if key not in pending:
                # Duplicate completion (e.g. a retried message); ignore the
                # repeat but keep the first value.
                continue
            pending.discard(key)
            recorded[key] = values[index]
        if not pending and not self._event._triggered:
            self.completed_at = self.sim._now
            self._event.succeed(self)

    def complete_batch(self, values: Optional[np.ndarray] = None) -> None:
        """Answer every key of the operation in one step.

        For operations whose keys are all served at the same instant (an
        all-resident local access).  ``values`` — pulls only — is the float64
        response block with one row per key of :attr:`keys`, in that order; it
        is kept as is, so :meth:`values` hands it out without the per-key
        dictionary round trip.  Ignored once the operation has completed.
        """
        if self._event._triggered:
            return
        self._pending_keys.clear()
        self._batch = values
        self.completed_at = self.sim._now
        self._event.succeed(self)

    def fail(self, exception: BaseException) -> None:
        """Fail the operation, propagating ``exception`` to waiters."""
        if not self._event.triggered:
            self.completed_at = self.sim.now
            self._event.fail(exception)

    # ------------------------------------------------------------------ result
    def values(self) -> np.ndarray:
        """Return pulled values as an array with one row per requested key.

        The array belongs to the caller's operation: a batch-completed pull
        returns its response block itself (every call the same array).
        """
        if not self.done:
            raise ParameterServerError("operation has not completed yet")
        if self.op_type != "pull":
            raise ParameterServerError(f"{self.op_type} operations carry no values")
        if self._batch is not None:
            return self._batch
        keys = self.keys
        recorded = self._values
        out = np.empty((len(keys), self.value_length), dtype=np.float64)
        if len(keys) == 1:
            row = recorded.get(keys[0])
            if row is None:
                raise ParameterServerError(f"no value recorded for key {keys[0]}")
            out[0] = row
            return out
        for index, key in enumerate(keys):
            row = recorded.get(key)
            if row is None:
                raise ParameterServerError(f"no value recorded for key {key}")
            out[index] = row
        return out

    def first_value(self) -> np.ndarray:
        """Read-only row view of the first key's pulled value (hot path).

        Unlike :meth:`values`, no output array is allocated; the returned row
        aliases the response buffer and must not be mutated by the caller.
        """
        if not self._event._triggered:
            raise ParameterServerError("operation has not completed yet")
        if self._batch is not None:
            return self._batch[0]
        row = self._values.get(self.keys[0])
        if row is None:
            raise ParameterServerError(f"no value recorded for key {self.keys[0]}")
        return row

    def value(self) -> np.ndarray:
        """Return the value of a single-key pull as a flat vector."""
        values = self.values()
        if values.shape[0] != 1:
            raise ParameterServerError(
                f"value() requires a single-key operation, got {values.shape[0]} keys"
            )
        return values[0]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "done" if self.done else f"pending({len(self._pending_keys)} keys)"
        return f"<OperationHandle {self.op_type} keys={list(self.keys)} {state}>"


def wait_all(sim: "Simulator", handles: Iterable[OperationHandle]) -> Event:
    """Return an event that triggers when all ``handles`` have completed."""
    events: List[Event] = [h.completion_event for h in handles]
    return AllOf(sim, events)
