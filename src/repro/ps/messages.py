"""Wire messages exchanged by parameter-server threads.

These dataclasses are the payloads carried by :class:`repro.simnet.Network`
envelopes.  They mirror the message types described in the paper:

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

All message classes are slotted dataclasses: messages are the most frequently
allocated objects on the simulator's hot path, and ``__slots__`` removes the
per-instance ``__dict__`` allocation.  They are *not* frozen — a frozen
dataclass routes every field assignment in ``__init__`` through
``object.__setattr__``, which roughly triples construction cost — but they
are immutable by convention: a message, once sent, is shared between sender
and receiver and must never be mutated (build a new message instead, as the
forwarding helpers do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

import numpy as np


@dataclass(slots=True)
class PullRequest:
    """Request to read the current values of ``keys``.

    ``reply_to`` is the van address of the requesting node; ``hops`` counts
    forwarding steps for metric purposes (Figure 5 routing).
    """

    op_id: int
    keys: Tuple[int, ...]
    reply_to: Hashable
    hops: int = 0


@dataclass(slots=True)
class PullResponse:
    """Values answering a :class:`PullRequest` (possibly a partial key subset)."""

    op_id: int
    keys: Tuple[int, ...]
    values: np.ndarray
    responder_node: int


@dataclass(slots=True)
class PushRequest:
    """Cumulative update for ``keys``; ``updates`` has one row per key."""

    op_id: int
    keys: Tuple[int, ...]
    updates: np.ndarray
    reply_to: Hashable
    needs_ack: bool = True
    hops: int = 0


@dataclass(slots=True)
class PushAck:
    """Acknowledgement that a push (sub-)request was applied."""

    op_id: int
    keys: Tuple[int, ...]
    responder_node: int


@dataclass(slots=True)
class LocalizeRequest:
    """Message 1 of the relocation protocol: requester → home node.

    The three relocation messages carry no op id: the requester's localize
    handles wait in its per-key ``relocating_in`` entries.
    """

    keys: Tuple[int, ...]
    requester_node: int


@dataclass(slots=True)
class RelocateInstruction:
    """Message 2 of the relocation protocol: home node → current owner.

    ``incarnation`` is the new owner's restart count when the instruction was
    issued (elastic clusters; 0 otherwise).
    """

    keys: Tuple[int, ...]
    new_owner: int
    incarnation: int = 0


@dataclass(slots=True)
class RelocationTransfer:
    """Message 3 of the relocation protocol: old owner → new owner (with values).

    ``removed_at`` is the simulated time at which the old owner stopped
    answering operations for these keys; the new owner uses it to measure the
    blocking time of the relocation (§3.2).

    ``subscribers`` is used by the hybrid PS only: one tuple of subscriber
    node ids per transferred key, so that replica-broadcast duties move with
    the key.  Empty for pure relocation (Lapse).
    """

    keys: Tuple[int, ...]
    values: np.ndarray
    removed_at: float = 0.0
    subscribers: Tuple[Tuple[int, ...], ...] = ()


# --------------------------------------------------------------------------- stale PS
@dataclass(slots=True)
class ReplicaFetchRequest:
    """Stale PS: fetch fresh replica values for ``keys`` from their owner."""

    op_id: int
    keys: Tuple[int, ...]
    requester_node: int
    reply_to: Hashable
    clock: int


@dataclass(slots=True)
class ReplicaFetchResponse:
    """Stale PS: fresh values with the server clock at which they were read."""

    op_id: int
    keys: Tuple[int, ...]
    values: np.ndarray
    clock: int


@dataclass(slots=True)
class UpdateFlush:
    """Stale PS: accumulated updates flushed from a node to a key's owner at a clock."""

    op_id: int
    keys: Tuple[int, ...]
    updates: np.ndarray
    clock: int
    reply_to: Hashable


@dataclass(slots=True)
class FlushAck:
    """Stale PS: acknowledgement that an update flush was applied."""

    op_id: int


@dataclass(slots=True)
class ReplicaPush:
    """Stale PS (SSPPush): owner proactively pushes fresh values to a subscriber."""

    keys: Tuple[int, ...]
    values: np.ndarray
    clock: int


# ---------------------------------------------------------------------- replica PS
@dataclass(slots=True)
class ReplicaRegisterRequest:
    """Replica PS: subscribe ``requester_node`` to ``keys`` and fetch a snapshot.

    The owner adds the requester to each key's subscriber set and answers with
    a :class:`ReplicaInstall` carrying the current values.  Replica messages
    carry no op id: installs are matched to the requester's per-key
    ``installing`` entries, and flushes/broadcasts are one-way.
    """

    keys: Tuple[int, ...]
    requester_node: int
    reply_to: Hashable


@dataclass(slots=True)
class ReplicaInstall:
    """Replica PS: owner → new replica holder, value snapshot at subscribe time."""

    keys: Tuple[int, ...]
    values: np.ndarray


@dataclass(slots=True)
class ReplicaSyncFlush:
    """Replica PS: accumulated local updates flushed from a replica holder to the owner.

    Updates are cumulative (additive), so aggregation is conflict-free: the
    owner simply adds them to its authoritative copy and forwards them to the
    *other* subscribers (the source already applied them locally).
    """

    keys: Tuple[int, ...]
    updates: np.ndarray
    source_node: int


@dataclass(slots=True)
class ReplicaDeltaBroadcast:
    """Replica PS: owner → subscriber, aggregate of other nodes' updates.

    Carries, per key, the sum of all updates the owner applied since the last
    broadcast to this subscriber, excluding the subscriber's own contributions
    (which it already applied locally).  The subscriber adds the deltas to its
    replicas.
    """

    keys: Tuple[int, ...]
    deltas: np.ndarray


# ----------------------------------------------------------------- elastic cluster
@dataclass(slots=True)
class RecoveryInstall:
    """Elastic runtime: a surviving replica holder ships recovered keys to their new owner.

    When a node fails, the keys it owned are re-homed by the elastic
    rebalancer; for every key that some surviving node replicates, that holder
    sends the replica value to the key's new owner, which installs it as the
    authoritative copy.  ``subscribers`` lists, per key, the surviving nodes
    that still hold a replica (so the new owner takes over broadcast duties,
    exactly like the subscriber handoff of a relocation).
    """

    keys: Tuple[int, ...]
    values: np.ndarray
    subscribers: Tuple[Tuple[int, ...], ...] = ()


# --------------------------------------------------------------------------- barrier
@dataclass(slots=True)
class BarrierArrive:
    """A worker on ``node`` announces it reached barrier ``generation``."""

    node: int
    generation: int


@dataclass(slots=True)
class BarrierRelease:
    """The coordinator releases all workers from barrier ``generation``."""

    generation: int

