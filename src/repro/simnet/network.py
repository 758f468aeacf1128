"""Point-to-point network model with ordered delivery and a cost model.

The network connects *addresses* (arbitrary hashable identifiers, e.g.
``("server", 2)`` or ``("worker", 2, 1)``).  Each address is backed by a
:class:`~repro.simnet.queues.MessageQueue`.  Sending a message charges the
:class:`~repro.config.CostModel`:

* remote messages (different nodes): ``network_latency + size / bandwidth``,
* local messages (same node, e.g. a worker talking to its co-located server
  thread through inter-process communication): ``ipc_access_latency``.

Delivery on each directed node pair is FIFO — a message sent earlier is never
delivered after one sent later on the same channel.  This mirrors the paper's
assumption that the network layer (TCP in PS-Lite and Lapse) preserves message
order, which both consistency theorems rely on.

Hot-path design (docs/architecture.md, "Simulation engine performance"):

* **Per-lane state** — each (source node, destination address) pair resolves
  once to a :class:`_Lane` carrying the destination node, mailbox, channel
  key, and delivery clock, so a send performs a single dict lookup instead of
  separate address/node/clock lookups.
* **Message coalescing** — wire messages that would be *delivered* to the same
  address at the same simulated instant share one kernel delivery event; their
  payloads are handed to the mailbox in global send order, which is exactly
  the order the per-message delivery events would have produced (all same-time
  deliveries to one single-consumer mailbox are order-equivalent to their
  batched form).  Coalescing changes only the number of *kernel events*, never
  the number of simulated messages: :class:`NetworkStats` keeps counting one
  logical message per ``send`` call, and additionally reports
  ``delivery_events`` / ``coalesced_messages`` so the physical batching is
  observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

from repro.config import CostModel
from repro.errors import NetworkError
from repro.simnet.queues import MessageQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.kernel import Simulator


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic counters maintained by :class:`Network`.

    Attributes:
        messages_sent: Total number of messages (local + remote).
        remote_messages: Messages that crossed node boundaries.
        local_messages: Messages delivered within a node (IPC loopback).
        bytes_sent: Total payload bytes of remote messages.
        per_channel_messages: Remote message counts keyed by (src_node, dst_node).
        dropped_messages: Messages blackholed because their source or
            destination node had failed (elastic cluster runtime).
        delivery_events: Kernel delivery events scheduled (coalesced batches
            count once).  Equals ``messages_sent - coalesced_messages``
            (dropped messages are never counted in ``messages_sent``).
        coalesced_messages: Messages that shared a previously scheduled
            delivery event (same destination address and delivery instant).
    """

    messages_sent: int = 0
    remote_messages: int = 0
    local_messages: int = 0
    bytes_sent: int = 0
    per_channel_messages: Dict[Tuple[int, int], int] = field(default_factory=dict)
    dropped_messages: int = 0
    delivery_events: int = 0
    coalesced_messages: int = 0

    # Counters are updated inline by :meth:`Network.send` (the hot path).

    def absorb(self, other: "NetworkStats") -> None:
        """Add what ``other`` — a child process's own share — counted."""
        for spec in fields(self):
            if spec.name != "per_channel_messages":
                setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))
        channels = self.per_channel_messages
        for channel, count in other.per_channel_messages.items():
            channels[channel] = channels.get(channel, 0) + count


@dataclass(slots=True)
class Envelope:
    """A message in flight: payload plus routing metadata."""

    src_node: int
    dst_node: int
    dst_address: Hashable
    payload: Any
    size_bytes: int
    sent_at: float


class _Lane:
    """Resolved per-(source node, destination address) sending state."""

    __slots__ = ("dst_node", "put", "channel", "local")

    def __init__(self, dst_node: int, put, src_node: int) -> None:
        self.dst_node = dst_node
        #: Delivery target: the mailbox's ``put`` or an attached sink callable.
        self.put = put
        self.channel = (src_node, dst_node)
        self.local = src_node == dst_node


class _ChannelClock:
    """Mutable FIFO clock shared by all lanes of one directed node pair."""

    __slots__ = ("last",)

    def __init__(self) -> None:
        self.last = 0.0


class Network:
    """The simulated cluster interconnect.

    Addresses must be registered before they can receive messages.  The same
    network object is shared by all nodes of a cluster.
    """

    #: Observer (:class:`repro.obs.Tracer`) notified of every scheduled
    #: delivery, installed when tracing is on.  A class attribute so the
    #: untraced hot path pays one attribute check and no instance state.
    _tracer: Optional[Any] = None

    def __init__(self, sim: "Simulator", cost_model: Optional[CostModel] = None) -> None:
        self.sim = sim
        self.cost_model = cost_model or CostModel()
        self.stats = NetworkStats()
        self._mailboxes: Dict[Hashable, MessageQueue] = {}
        self._address_node: Dict[Hashable, int] = {}
        self._channel_clock: Dict[Tuple[int, int], _ChannelClock] = {}
        self._failed_nodes: set = set()
        #: Resolved lanes: (src_node, dst_address) -> (_Lane, _ChannelClock).
        self._lanes: Dict[Tuple[int, Hashable], Tuple[_Lane, _ChannelClock]] = {}
        #: Delivery sinks replacing a mailbox (reactive consumers, e.g. vans).
        self._sinks: Dict[Hashable, Any] = {}
        #: In-flight coalesced batches: (dst_address, deliver_at) -> payloads.
        self._pending_batches: Dict[Tuple[Hashable, float], List[Any]] = {}
        #: Parallel-engine shard state (``enable_shard_mode``): node -> shard
        #: rank, this process's rank, and outgoing cross-shard records.
        self._shard_ranks: Optional[Dict[int, int]] = None
        self._shard_rank: Optional[int] = None
        self._shard_outbox: List[Tuple[float, Tuple, int, Hashable, Any]] = []
        #: Per-destination-node delivery counts (shard mode only): the load
        #: signal adaptive shard rebalancing uses to weight the node->shard
        #: assignment.  Deliveries track where event processing happens, so
        #: they proxy per-node kernel load.
        self.node_load: Optional[Dict[int, int]] = None

    # ---------------------------------------------------------------- sharding
    def enable_shard_mode(self, node_ranks: Dict[int, int], rank: int) -> None:
        """Route cross-shard sends into the outbox (forked shard processes).

        After this call, :meth:`send` handles a message whose destination
        node belongs to another shard by recording
        ``(deliver_at, lineage, dst_node, dst_address, payload)`` in
        :attr:`_shard_outbox` instead of scheduling a local delivery —
        ``lineage`` is the scheduling key the delivery event would have
        carried locally (:meth:`Simulator.shard_lineage`), so the receiving
        shard merges the record into its heap at exactly the sequential
        engine's position.  All
        sender-side accounting (traffic counters, the FIFO channel clock of
        the directed node pair, which is owned by the sending shard) still
        happens here, so the counters aggregate across shards exactly as the
        sequential engine would have counted them.
        """
        self._shard_ranks = node_ranks
        self._shard_rank = rank
        self.node_load = {}

    def take_shard_outbox(self) -> List[Tuple[float, Tuple, int, Hashable, Any]]:
        """Return and reset the cross-shard records accumulated this window."""
        outbox = self._shard_outbox
        self._shard_outbox = []
        return outbox

    def shard_put(self, dst_address: Hashable):
        """Resolve the delivery callable for a cross-shard record (receiver)."""
        put = self._sinks.get(dst_address)
        if put is None:
            put = self._mailboxes[dst_address].put
        return put

    # ---------------------------------------------------------- node lifecycle
    @property
    def failed_nodes(self) -> frozenset:
        """Nodes whose links are down (messages to/from them are dropped)."""
        return frozenset(self._failed_nodes)

    def fail_node(self, node: int) -> None:
        """Take ``node`` off the network: its traffic is silently dropped.

        Models a crashed machine: messages already delivered stay delivered,
        but anything sent to or from the node afterwards is blackholed and
        counted in :attr:`NetworkStats.dropped_messages`.  Messages still *in
        flight* to the node vanish with it — a wire payload nobody received
        is gone, which is exactly the window the durability subsystem's
        fault-injection tests crash into.
        """
        self._failed_nodes.add(node)
        if self._pending_batches:
            address_node = self._address_node
            for (address, _deliver_at), batch in self._pending_batches.items():
                if batch and address_node.get(address) == node:
                    self.stats.dropped_messages += len(batch)
                    # Clear in place: the scheduled delivery callback shares
                    # this list and becomes a no-op.
                    batch.clear()

    def restore_node(self, node: int) -> None:
        """Reconnect a previously failed ``node`` (tests and re-join flows)."""
        self._failed_nodes.discard(node)

    # --------------------------------------------------------------- addresses
    def register(self, address: Hashable, node: int) -> MessageQueue:
        """Register ``address`` on ``node`` and return its inbox queue."""
        if address in self._mailboxes:
            raise NetworkError(f"address {address!r} is already registered")
        mailbox = MessageQueue(self.sim)
        self._mailboxes[address] = mailbox
        self._address_node[address] = node
        return mailbox

    def mailbox(self, address: Hashable) -> MessageQueue:
        """Return the inbox of ``address``."""
        try:
            return self._mailboxes[address]
        except KeyError:
            raise NetworkError(f"unknown address {address!r}") from None

    def node_of(self, address: Hashable) -> int:
        """Return the node hosting ``address``."""
        try:
            return self._address_node[address]
        except KeyError:
            raise NetworkError(f"unknown address {address!r}") from None

    def attach_sink(self, address: Hashable, consume) -> None:
        """Deliver ``address``'s messages to ``consume(payload)`` directly.

        For purely *reactive* consumers — handlers that charge no processing
        cost and run immediately on arrival (the client van, which only
        demultiplexes responses).  Bypassing the mailbox/process pair removes
        two kernel events per delivered message.  The handler runs at the
        exact delivery instant, which is when the consuming process would
        have been resumed.  Must be attached before the first send resolves a
        lane to ``address``.
        """
        if address not in self._mailboxes:
            raise NetworkError(f"unknown address {address!r}")
        if any(key[1] == address for key in self._lanes):
            raise NetworkError(
                f"cannot attach a sink to {address!r}: a sender already "
                "resolved a lane to its mailbox"
            )
        self._sinks[address] = consume

    # ----------------------------------------------------------------- sending
    def _lane(self, src_node: int, dst_address: Hashable) -> Tuple[_Lane, _ChannelClock]:
        key = (src_node, dst_address)
        entry = self._lanes.get(key)
        if entry is None:
            dst_node = self.node_of(dst_address)
            put = self._sinks.get(dst_address)
            if put is None:
                put = self._mailboxes[dst_address].put
            lane = _Lane(dst_node, put, src_node)
            clock = self._channel_clock.get(lane.channel)
            if clock is None:
                clock = self._channel_clock[lane.channel] = _ChannelClock()
            entry = self._lanes[key] = (lane, clock)
        return entry

    def send(
        self,
        src_node: int,
        dst_address: Hashable,
        payload: Any,
        size_bytes: int,
    ) -> Optional[Envelope]:
        """Send ``payload`` to ``dst_address``, charging the cost model.

        The message is delivered into the destination's mailbox after the
        appropriate simulated delay.  Delivery order per directed node pair is
        FIFO.

        Returns:
            ``None`` for a scheduled delivery.  For a message blackholed by a
            failed node, the :class:`Envelope` describing the dropped message
            (useful for tests and tracing); the routing metadata of delivered
            messages is no longer materialized on the hot path.
        """
        if size_bytes < 0:
            raise NetworkError(f"message size must be non-negative, got {size_bytes}")
        sim = self.sim
        if sim._apply_mode:
            return self.send_apply(src_node, dst_address, payload, size_bytes)
        lane, channel_clock = self._lane(src_node, dst_address)
        dst_node = lane.dst_node
        now = sim._now
        stats = self.stats
        if self._failed_nodes and (
            src_node in self._failed_nodes or dst_node in self._failed_nodes
        ):
            # A failed node neither sends nor receives; the message vanishes
            # without charging the cost model or the traffic counters.
            stats.dropped_messages += 1
            return Envelope(
                src_node=src_node,
                dst_node=dst_node,
                dst_address=dst_address,
                payload=payload,
                size_bytes=size_bytes,
                sent_at=now,
            )
        stats.messages_sent += 1
        cost = self.cost_model
        if lane.local:
            stats.local_messages += 1
            delay = cost.ipc_access_latency
        else:
            stats.remote_messages += 1
            stats.bytes_sent += size_bytes
            per_channel = stats.per_channel_messages
            channel = lane.channel
            per_channel[channel] = per_channel.get(channel, 0) + 1
            delay = cost.message_time(size_bytes)
        earliest = now + delay
        last = channel_clock.last
        deliver_at = earliest if earliest > last else last
        channel_clock.last = deliver_at
        tracer = self._tracer
        if tracer is not None:
            # Observation only: the delivery instant is already fixed; the
            # tracer appends a span to the sending node's buffer and nothing
            # about scheduling, coalescing, or sharding changes.
            tracer.net_span(src_node, dst_node, payload, now, deliver_at, size_bytes)
        if self._shard_ranks is not None:
            if self._shard_ranks[dst_node] != self._shard_rank:
                # Cross-shard delivery: hand the record to the window-exchange
                # protocol instead of the local kernel.  Always remote (shards
                # partition whole nodes), so deliver_at >= sent_at + lookahead —
                # the receiving shard merges it at a future window boundary.
                stats.delivery_events += 1
                self._shard_outbox.append(
                    (deliver_at, sim.shard_lineage(), dst_node, dst_address, payload)
                )
                return None
            load = self.node_load
            load[dst_node] = load.get(dst_node, 0) + 1
        batches = self._pending_batches
        batch_key = (dst_address, deliver_at)
        batch = batches.get(batch_key)
        if batch is not None:
            # A delivery event for this address and instant is already
            # scheduled: ride along.  Append order equals global send
            # order, which is the order the separate delivery events
            # would have delivered in.
            batch.append(payload)
            stats.coalesced_messages += 1
            return None
        batch = [payload]
        batches[batch_key] = batch
        stats.delivery_events += 1
        sim.call_later(
            deliver_at - now, self._deliver_batch, (batch_key, batch, lane.put)
        )
        return None

    def send_apply(
        self,
        src_node: int,
        dst_address: Hashable,
        payload: Any,
        size_bytes: int,
    ) -> Optional[Envelope]:
        """Shard-mode send while a membership event is being *applied*.

        At a window barrier every shard replays the same cluster event
        against identical merged control-plane state
        (:meth:`ClusterDriver.apply_in_shard`), so this method runs — with
        identical arguments, in identical order — on **all** shards.  Two
        rules keep the replicated execution convergent:

        * The scheduling key is drawn *unconditionally* on every shard
          (:meth:`Simulator.apply_lineage`), even for sends the owner
          subsequently drops on the failed-node check — the replicated
          ``_apply_seq`` counters must advance in lockstep.
        * All side effects beyond the key draw (traffic counters, FIFO
          channel clock, tracer span, scheduling or outbox append) happen
          only on the shard owning the *source* node, because network stats
          are shipped to the coordinator as per-shard deltas and summed —
          replicated increments would double-count.

        Apply-mode deliveries are never coalesced: they are always remote
        (rebalancing instructions target other nodes), land at least one
        lookahead after the barrier, and per-message heap entries ordered by
        the apply sequence reproduce the sequential delivery order exactly.
        """
        sim = self.sim
        lineage = sim.apply_lineage()
        lane, channel_clock = self._lane(src_node, dst_address)
        dst_node = lane.dst_node
        if self._shard_ranks[src_node] != self._shard_rank:
            return None
        now = sim._now
        stats = self.stats
        if self._failed_nodes and (
            src_node in self._failed_nodes or dst_node in self._failed_nodes
        ):
            stats.dropped_messages += 1
            return Envelope(
                src_node=src_node,
                dst_node=dst_node,
                dst_address=dst_address,
                payload=payload,
                size_bytes=size_bytes,
                sent_at=now,
            )
        stats.messages_sent += 1
        cost = self.cost_model
        if lane.local:
            stats.local_messages += 1
            delay = cost.ipc_access_latency
        else:
            stats.remote_messages += 1
            stats.bytes_sent += size_bytes
            per_channel = stats.per_channel_messages
            channel = lane.channel
            per_channel[channel] = per_channel.get(channel, 0) + 1
            delay = cost.message_time(size_bytes)
        earliest = now + delay
        last = channel_clock.last
        deliver_at = earliest if earliest > last else last
        channel_clock.last = deliver_at
        tracer = self._tracer
        if tracer is not None:
            tracer.net_span(src_node, dst_node, payload, now, deliver_at, size_bytes)
        stats.delivery_events += 1
        if self._shard_ranks[dst_node] != self._shard_rank:
            self._shard_outbox.append(
                (deliver_at, lineage, dst_node, dst_address, payload)
            )
            return None
        load = self.node_load
        load[dst_node] = load.get(dst_node, 0) + 1
        sim.schedule_foreign(deliver_at, lineage, lane.put, payload)
        return None

    def _deliver_batch(self, arg: Tuple[Tuple[Hashable, float], List[Any], Any]) -> None:
        batch_key, batch, put = arg
        del self._pending_batches[batch_key]
        for payload in batch:
            put(payload)
