"""Wire messages exchanged by parameter-server threads.

These classes are the payloads a :class:`repro.simnet.Network` carries.
They mirror the message types described in the paper:

* pull / push requests and their responses (Table 2),
* the three relocation-protocol messages of Figure 4 (*request relocation*,
  *instruct relocation*, *relocate*),
* forwarded requests used by the forward / double-forward routing strategies
  of Figure 5,
* stale-PS messages: replica fetches, update flushes, clock advances, and
  server-side replica pushes (SSPPush),
* replica-PS messages: subscription/snapshot installs, conflict-free update
  flushes, and delta broadcasts used by the replication-based variant,
* barrier coordination messages used between subepochs.

Messages are the most frequently allocated objects on the simulator's hot
path.  Each is a plain class with ``__slots__`` (no per-instance ``__dict__``)
and one ``__init__``; a dataclass would generate and compile methods at every
import that nothing calls.  Across messages, ``keys`` is a tuple of int keys
in request order, ``values`` / ``updates`` / ``deltas`` hold one row per key,
``reply_to`` is a van address, and ids, node ids and clocks are ints.
Messages are immutable by convention: once sent, a message is shared between
sender and receiver and must never be mutated; :func:`replace` builds a
changed copy.
"""

from __future__ import annotations

from typing import Any


def replace(message: Any, **changes: Any) -> Any:
    """A new message of ``message``'s type, with ``changes`` and its other fields."""
    fields = {name: getattr(message, name) for name in message.__slots__}
    return type(message)(**{**fields, **changes})


class PullRequest:
    """Request to read the current values of ``keys``.

    ``reply_to`` is the van address of the requesting node; ``hops`` counts
    forwarding steps for metric purposes (Figure 5 routing).
    """

    __slots__ = ("op_id", "keys", "reply_to", "hops")

    def __init__(self, op_id, keys, reply_to, hops=0) -> None:
        self.op_id, self.keys, self.reply_to, self.hops = op_id, keys, reply_to, hops


class PullResponse:
    """Values answering a :class:`PullRequest` (possibly a partial key subset)."""

    __slots__ = ("op_id", "keys", "values", "responder_node")

    def __init__(self, op_id, keys, values, responder_node) -> None:
        self.op_id, self.keys = op_id, keys
        self.values, self.responder_node = values, responder_node


class PushRequest:
    """Cumulative update for ``keys``; ``updates`` has one row per key."""

    __slots__ = ("op_id", "keys", "updates", "reply_to", "needs_ack", "hops")

    def __init__(self, op_id, keys, updates, reply_to, needs_ack=True, hops=0) -> None:
        self.op_id, self.keys, self.updates = op_id, keys, updates
        self.reply_to, self.needs_ack, self.hops = reply_to, needs_ack, hops


class PushAck:
    """Acknowledgement that a push (sub-)request was applied."""

    __slots__ = ("op_id", "keys", "responder_node")

    def __init__(self, op_id, keys, responder_node) -> None:
        self.op_id, self.keys, self.responder_node = op_id, keys, responder_node


class LocalizeRequest:
    """Message 1 of the relocation protocol: requester → home node.

    The three relocation messages carry no op id: the requester's localize
    handles wait in its per-key ``relocating_in`` entries.
    """

    __slots__ = ("keys", "requester_node")

    def __init__(self, keys, requester_node) -> None:
        self.keys, self.requester_node = keys, requester_node


class RelocateInstruction:
    """Message 2 of the relocation protocol: home node → current owner.

    ``incarnation`` is the new owner's restart count when the instruction was
    issued (elastic clusters; 0 otherwise).
    """

    __slots__ = ("keys", "new_owner", "incarnation")

    def __init__(self, keys, new_owner, incarnation=0) -> None:
        self.keys, self.new_owner, self.incarnation = keys, new_owner, incarnation


class RelocationTransfer:
    """Message 3 of the relocation protocol: old owner → new owner (with values).

    ``removed_at`` is the simulated time at which the old owner stopped
    answering operations for these keys; the new owner uses it to measure the
    blocking time of the relocation (§3.2).

    ``subscribers`` is used by the hybrid PS only: one tuple of subscriber
    node ids per transferred key, so that replica-broadcast duties move with
    the key.  Empty for pure relocation (Lapse).
    """

    __slots__ = ("keys", "values", "removed_at", "subscribers")

    def __init__(self, keys, values, removed_at=0.0, subscribers=()) -> None:
        self.keys, self.values = keys, values
        self.removed_at, self.subscribers = removed_at, subscribers


# --------------------------------------------------------------------------- stale PS
class ReplicaFetchRequest:
    """Stale PS: fetch fresh replica values for ``keys`` from their owner."""

    __slots__ = ("op_id", "keys", "requester_node", "reply_to", "clock")

    def __init__(self, op_id, keys, requester_node, reply_to, clock) -> None:
        self.op_id, self.keys, self.requester_node = op_id, keys, requester_node
        self.reply_to, self.clock = reply_to, clock


class ReplicaFetchResponse:
    """Stale PS: fresh values with the server clock at which they were read."""

    __slots__ = ("op_id", "keys", "values", "clock")

    def __init__(self, op_id, keys, values, clock) -> None:
        self.op_id, self.keys, self.values, self.clock = op_id, keys, values, clock


class UpdateFlush:
    """Stale PS: accumulated updates flushed from a node to a key's owner at a clock."""

    __slots__ = ("op_id", "keys", "updates", "clock", "reply_to")

    def __init__(self, op_id, keys, updates, clock, reply_to) -> None:
        self.op_id, self.keys, self.updates = op_id, keys, updates
        self.clock, self.reply_to = clock, reply_to


class FlushAck:
    """Stale PS: acknowledgement that an update flush was applied."""

    __slots__ = ("op_id",)

    def __init__(self, op_id) -> None:
        self.op_id = op_id


class ReplicaPush:
    """Stale PS (SSPPush): owner proactively pushes fresh values to a subscriber."""

    __slots__ = ("keys", "values", "clock")

    def __init__(self, keys, values, clock) -> None:
        self.keys, self.values, self.clock = keys, values, clock


# ---------------------------------------------------------------------- replica PS
class ReplicaRegisterRequest:
    """Replica PS: subscribe ``requester_node`` to ``keys`` and fetch a snapshot.

    The owner adds the requester to each key's subscriber set and answers with
    a :class:`ReplicaInstall` carrying the current values.  Replica messages
    carry no op id: installs are matched to the requester's per-key
    ``installing`` entries, and flushes/broadcasts are one-way.
    """

    __slots__ = ("keys", "requester_node", "reply_to")

    def __init__(self, keys, requester_node, reply_to) -> None:
        self.keys, self.requester_node, self.reply_to = keys, requester_node, reply_to


class ReplicaInstall:
    """Replica PS: owner → new replica holder, value snapshot at subscribe time."""

    __slots__ = ("keys", "values")

    def __init__(self, keys, values) -> None:
        self.keys, self.values = keys, values


class ReplicaSyncFlush:
    """Replica PS: accumulated local updates flushed from a replica holder to the owner.

    Updates are cumulative (additive), so aggregation is conflict-free: the
    owner simply adds them to its authoritative copy and forwards them to the
    *other* subscribers (the source already applied them locally).
    """

    __slots__ = ("keys", "updates", "source_node")

    def __init__(self, keys, updates, source_node) -> None:
        self.keys, self.updates, self.source_node = keys, updates, source_node


class ReplicaDeltaBroadcast:
    """Replica PS: owner → subscriber, aggregate of other nodes' updates.

    Carries, per key, the sum of all updates the owner applied since the last
    broadcast to this subscriber, excluding the subscriber's own contributions
    (which it already applied locally).  The subscriber adds the deltas to its
    replicas.
    """

    __slots__ = ("keys", "deltas")

    def __init__(self, keys, deltas) -> None:
        self.keys, self.deltas = keys, deltas


# ----------------------------------------------------------------- elastic cluster
class RecoveryInstall:
    """Elastic runtime: a surviving replica holder ships recovered keys to their new owner.

    When a node fails, the keys it owned are re-homed by the elastic
    rebalancer; for every key that some surviving node replicates, that holder
    sends the replica value to the key's new owner, which installs it as the
    authoritative copy.  ``subscribers`` lists, per key, the surviving nodes
    that still hold a replica (so the new owner takes over broadcast duties,
    exactly like the subscriber handoff of a relocation).
    """

    __slots__ = ("keys", "values", "subscribers")

    def __init__(self, keys, values, subscribers=()) -> None:
        self.keys, self.values, self.subscribers = keys, values, subscribers


# --------------------------------------------------------------------------- barrier
class BarrierArrive:
    """A worker on ``node`` announces it reached barrier ``generation``."""

    __slots__ = ("node", "generation")

    def __init__(self, node, generation) -> None:
        self.node, self.generation = node, generation


class BarrierRelease:
    """The coordinator releases all workers from barrier ``generation``."""

    __slots__ = ("generation",)

    def __init__(self, generation) -> None:
        self.generation = generation

