"""Recording of client-observed operation histories.

The consistency properties studied in the paper (§3.4, Table 1) are per-key
properties over the pull/push operations of all workers.  To decide whether a
recorded execution satisfies them, every push must be identifiable from the
values that later pulls return.  Because PS pushes are *cumulative*, we use a
bit-encoding: the ``i``-th push writes the update value ``2**i``, so a pulled
value's binary representation reveals exactly the set of pushes that had been
applied when the read was served.

:class:`UpdateTagger` hands out those tagged updates, :class:`Operation`
records one completed pull/push, and :class:`History` collects the operations
of all workers for checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ConsistencyViolation


@dataclass(frozen=True)
class Operation:
    """One completed client operation on a single key.

    Attributes:
        worker_id: The worker that issued the operation.
        kind: ``"pull"`` or ``"push"``.
        key: The parameter key.
        sequence: Program-order index of the operation within its worker.
        invoked_at: Simulated time of issue.
        completed_at: Simulated time of completion.
        push_id: For pushes, the unique id assigned by :class:`UpdateTagger`.
        observed: For pulls, the set of push ids whose updates were visible.
    """

    worker_id: int
    kind: str
    key: int
    sequence: int
    invoked_at: float
    completed_at: float
    push_id: Optional[int] = None
    observed: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in ("pull", "push"):
            raise ConsistencyViolation(f"unknown operation kind {self.kind!r}")
        if self.kind == "push" and self.push_id is None:
            raise ConsistencyViolation("push operations require a push_id")


class UpdateTagger:
    """Hands out uniquely identifiable cumulative updates.

    Each push gets a distinct id ``i`` and writes the scalar ``2**i`` (into the
    first component of the value vector), so any later read can be decoded into
    the exact set of pushes it reflects.
    """

    def __init__(self, initial_value: float = 0.0) -> None:
        if initial_value != 0.0:
            raise ConsistencyViolation(
                "UpdateTagger requires the parameter to start at zero"
            )
        self._next_id = 0

    def next_update(self) -> Tuple[int, float]:
        """Return ``(push_id, update_value)`` for the next push."""
        push_id = self._next_id
        self._next_id += 1
        if push_id >= 60:
            raise ConsistencyViolation(
                "UpdateTagger supports at most 60 pushes per key (float64 precision)"
            )
        return push_id, float(2**push_id)

    @staticmethod
    def decode(value: float) -> FrozenSet[int]:
        """Decode a read value into the set of push ids it includes."""
        integer = int(round(value))
        if integer < 0 or abs(value - integer) > 1e-6:
            raise ConsistencyViolation(
                f"value {value} is not a valid sum of distinct powers of two"
            )
        observed = set()
        bit = 0
        while integer:
            if integer & 1:
                observed.add(bit)
            integer >>= 1
            bit += 1
        return frozenset(observed)


class History:
    """A per-key multi-worker operation history."""

    def __init__(self, key: int, num_pushes: Optional[int] = None) -> None:
        self.key = key
        self.operations: List[Operation] = []
        self._num_pushes = num_pushes

    def record(self, operation: Operation) -> None:
        """Append one completed operation."""
        if operation.key != self.key:
            raise ConsistencyViolation(
                f"operation for key {operation.key} recorded in history of key {self.key}"
            )
        self.operations.append(operation)

    def record_pull(
        self,
        worker_id: int,
        sequence: int,
        invoked_at: float,
        completed_at: float,
        value: float,
    ) -> Operation:
        """Record a completed pull, decoding the observed push set from ``value``."""
        operation = Operation(
            worker_id=worker_id,
            kind="pull",
            key=self.key,
            sequence=sequence,
            invoked_at=invoked_at,
            completed_at=completed_at,
            observed=UpdateTagger.decode(value),
        )
        self.record(operation)
        return operation

    def record_push(
        self,
        worker_id: int,
        sequence: int,
        invoked_at: float,
        completed_at: float,
        push_id: int,
    ) -> Operation:
        """Record a completed push."""
        operation = Operation(
            worker_id=worker_id,
            kind="push",
            key=self.key,
            sequence=sequence,
            invoked_at=invoked_at,
            completed_at=completed_at,
            push_id=push_id,
        )
        self.record(operation)
        return operation

    # -------------------------------------------------------------- accessors
    @property
    def pulls(self) -> List[Operation]:
        """All pull operations, in recording order."""
        return [op for op in self.operations if op.kind == "pull"]

    @property
    def pushes(self) -> List[Operation]:
        """All push operations, in recording order."""
        return [op for op in self.operations if op.kind == "push"]

    @property
    def push_ids(self) -> FrozenSet[int]:
        """Ids of all pushes in the history."""
        return frozenset(op.push_id for op in self.pushes)

    def by_worker(self) -> Dict[int, List[Operation]]:
        """Operations grouped by worker, each list sorted by program order."""
        grouped: Dict[int, List[Operation]] = {}
        for op in self.operations:
            grouped.setdefault(op.worker_id, []).append(op)
        for ops in grouped.values():
            ops.sort(key=lambda op: op.sequence)
        return grouped

    def __len__(self) -> int:
        return len(self.operations)
