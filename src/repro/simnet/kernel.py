"""The discrete-event simulation kernel.

:class:`Simulator` keeps a priority queue of triggered events and advances the
simulated clock from event to event.  Events scheduled for the same simulated
time are processed in the order they were triggered, which makes simulations
fully deterministic.

Hot-path design (see docs/architecture.md, "Simulation engine performance"):

* **Immediate-dispatch ring** — events scheduled for the *current* simulated
  time (zero-delay triggers, queue hand-offs, completion notifications) are
  appended to a FIFO ring and never touch the heap.  Any event created while
  the clock sits at ``now`` carries a larger sequence number than everything
  already pending, so draining the heap's ``now``-entries first and the ring
  second reproduces exactly the global (time, sequence) order of the plain
  heap — the ring is a proof-preserving fast path, not an approximation.
* **Event pool** — short-lived internal events (queue getters, resume relays)
  are recycled through a free list via :meth:`Simulator.acquire_event`; pooled
  events are reset on *acquisition*, so callbacks appended after processing
  (which the :class:`~repro.simnet.events.Event` contract drops) can never
  leak into the next incarnation.
* **Bare callback tokens** — internal one-shot actions (message deliveries,
  timeout resumes) are scheduled with :meth:`Simulator.call_later` as
  ``(fn, arg)`` tokens, skipping the Event object, its callback list, and its
  state flags entirely.
* **Tight run loop** — :meth:`run` and :meth:`run_before` share one loop
  that inlines event processing with hoisted lookups instead of calling
  :meth:`step` per event.

**Shard mode** (``repro.simnet.parallel``): a simulator forked into a shard
process calls :meth:`Simulator.enter_shard_mode`, which widens heap entries
from ``(time, seq, item)`` to ``(time, lineage, item)``.  A lineage is
defined recursively as ``(sched_time, parent, shard_rank, seq)``, where
``parent`` is the lineage of the event that was being processed when this
one was scheduled (empty at the root).  Comparing lineages in that order
reproduces the sequential engine's global sequence order: the
single-process engine assigns sequence numbers in scheduling order,
scheduling order is simulated-time order (``sched_time`` first), and
same-instant scheduling actions are ordered by the processing order of
their scheduling events — which is, recursively, the *key* order of the
parents — with ``(shard_rank, seq)`` ordering siblings of one parent and
making every lineage unique, so heap items are never compared.

The kernel stores each lineage as its *flat*, prefix-free serialization
``F(root) = (END,)`` and ``F(L) = (sched_time,) + F(parent) + (rank,
seq)`` with ``END = -inf``, so a child's key is simply ``(now,) + ctx +
(rank, seq)``.  ``F`` reads left to right without ambiguity, so no key is
a prefix of another; at their first difference two keys hold the same kind
of value (two instants, or two ints); and ``END`` sorts below every instant
exactly as an empty parent sorts below any other.
Plain tuple comparison of two flat keys therefore gives the recursive
order in one pass over their common prefix, instead of re-comparing a
parent chain at every level of a nested tuple.

Shard processes advance through :meth:`Simulator.run_window` (a
conservative time window with an exclusive upper bound) and receive
cross-shard deliveries via :meth:`Simulator.schedule_foreign`, which merges
them under the *sender's* lineage — exactly the key the delivery event
would have carried had it been scheduled locally.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simnet.events import Event, Timeout

#: Upper bound on the event free list; beyond this, processed pooled events
#: are simply dropped for the garbage collector.
_POOL_MAX = 512

#: Serialized empty parent: below every scheduling instant, as an empty
#: parent sorts below any other.
_END = -math.inf

#: Parent context of lineages scheduled at the root (no processing event).
_ROOT_CTX: Tuple = (_END,)

#: Ancestry depth kept when a lineage chain is trimmed.  Comparisons only
#: walk the chain while the two events' scheduling instants stay equal, so
#: the kept window has to cover the longest *identical-instant* ancestry two
#: distinct events can share; beyond it the deterministic ``END`` root
#: decides.
_LINEAGE_KEEP = 24

#: Depth at which a lineage chain is trimmed back to ``_LINEAGE_KEEP``
#: levels.  Letting chains grow to twice the kept depth makes the trim
#: cost O(1) amortized per scheduled event.
_LINEAGE_REBUILD = 48

#: Flat length of a lineage at depth ``_LINEAGE_REBUILD``: a depth-``d``
#: lineage has ``4 + 3 d`` entries, so ``len >= _TRIM_LEN`` holds exactly
#: from depth ``_LINEAGE_REBUILD`` on.
_TRIM_LEN = 4 + 3 * _LINEAGE_REBUILD


def _trim_lineage(lineage: Tuple) -> Tuple:
    """Bound a lineage chain's depth before it becomes a child's context.

    Returns the lineage unchanged below ``_LINEAGE_REBUILD``; otherwise keeps
    the top ``_LINEAGE_KEEP`` levels over an ``END`` root: their instants
    lead the flat key and their ``(rank, seq)`` pairs close it.  Only the
    ancestry that future comparisons can still reach is kept — a comparison
    walks parents only while both events' scheduling instants are equal, so
    dropping the deep tail is observable only for identical-instant
    ancestries longer than the kept window.
    """
    if len(lineage) < _TRIM_LEN:
        return lineage
    return lineage[:_LINEAGE_KEEP] + _ROOT_CTX + lineage[-2 * _LINEAGE_KEEP:]


class _Call:
    """A bare scheduled callback: one-shot work without an Event object."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Callable[[Any], None], arg: Any) -> None:
        self.fn = fn
        self.arg = arg


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()

        def worker():
            yield 1.0              # wait one simulated second
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert sim.now == 1.0 and proc.value == "done"
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Any]] = []
        #: FIFO of events/calls scheduled for the current simulated time.
        self._ring: deque = deque()
        self._sequence = 0
        self._running = False
        self._event_pool: List[Event] = []
        #: Shard rank once this simulator runs inside a shard process
        #: (``enter_shard_mode``); None in the ordinary sequential engine.
        self._shard_rank: Optional[int] = None
        #: Lineage of the event currently being processed (shard mode).
        self._shard_ctx: Tuple = _ROOT_CTX
        #: Events dispatched by :meth:`run_window` since the fork — the
        #: per-shard load that ``ps.shard_load_history`` records.
        self.executed_events = 0
        #: Exclusive bound of the run loop in progress: ``until`` of
        #: :meth:`run` (``inf`` without a cutoff), ``end`` of
        #: :meth:`run_before` and :meth:`run_window`; ``-inf`` while no loop
        #: runs (see :meth:`horizon`).
        self._run_bound = -math.inf

    # ------------------------------------------------------------------ sharding
    def enter_shard_mode(self, rank: int) -> None:
        """Switch this (forked) simulator instance into shard mode.

        Heap entries become ``(time, lineage, item)`` (see the module
        docstring for the lineage key).  Entries inherited from the parent
        at fork time (normally none beyond future timers — the parent
        drains everything at or below the current time before forking) get
        the lineage ``(-1.0, END, -1, seq)``: they sort ahead of anything
        scheduled after the fork at the same simulated time, matching their
        older global sequence numbers, and among themselves by the parent's
        global sequence.
        """
        if self._shard_rank is not None:
            raise SimulationError("simulator is already in shard mode")
        if self._ring:
            raise SimulationError(
                "cannot enter shard mode with immediate events pending "
                "(the parent must drain the ring before forking)"
            )
        self._shard_rank = rank
        if self._queue:
            self._queue = [
                (time, (-1.0, _END, -1, seq), item)
                for (time, seq, item) in self._queue
            ]
            heapq.heapify(self._queue)

    def shard_lineage(self) -> Tuple:
        """Allocate the lineage key for an action scheduled *now* (shard mode).

        Increments the local sequence exactly as scheduling an event would,
        so shard-local sequence streams mirror the sequential engine's.
        """
        self._sequence += 1
        return (self._now,) + self._shard_ctx + (self._shard_rank, self._sequence)

    def schedule_foreign(
        self,
        time: float,
        lineage: Tuple,
        fn: Callable[[Any], None],
        arg: Any,
    ) -> None:
        """Merge a cross-shard delivery into this shard's heap (shard mode).

        The entry carries the *sender's* lineage — the key the delivery
        event would have had if it had been scheduled on this shard — so
        same-time deliveries interleave with local events exactly as the
        sequential engine's global sequence numbers would order them.
        """
        heapq.heappush(self._queue, (time, lineage, _Call(fn, arg)))

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of triggered-but-unprocessed events."""
        return len(self._queue) + len(self._ring)

    def peek_time(self) -> Optional[float]:
        """Simulated time of the next queued event (None if the queue is empty).

        Used by external drivers (e.g. the elastic cluster runtime) to
        interleave control-plane actions with event processing without
        perturbing the queue.
        """
        if self._ring:
            return self._now
        if not self._queue:
            return None
        return self._queue[0][0]

    def horizon(self) -> float:
        """The instant before which nothing but the caller can happen.

        ``-inf`` while the ring holds an entry; otherwise the earlier of the
        first heap entry's time and the bound of the run loop in progress —
        past ``until`` the loop stops before reaching it, and past a window's
        ``end`` a cross-shard delivery may still be merged in.  The caller
        (code running inside the event being processed) may perform its own
        actions due strictly before it inline: no other event can observe or
        reorder them.  ``-inf`` outside :meth:`run` / :meth:`run_before` /
        :meth:`run_window` (a :meth:`step` driver gives no bound).
        """
        if self._ring:
            return -math.inf
        queue = self._queue
        return min(queue[0][0], self._run_bound) if queue else self._run_bound

    # ------------------------------------------------------------------ events
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def acquire_event(self) -> Event:
        """Return a pooled internal :class:`Event` (reset on acquisition).

        Only for short-lived events fully owned by the runtime (queue getters,
        resume relays): after processing, the kernel recycles them into the
        free list, so callers must not retain references past processing.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._callbacks = None
            event._value = None
            event._exception = None
            event._triggered = False
            event._processed = False
            return event
        event = Event(self)
        event._pooled = True
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> "Process":
        """Start a new simulation process from a generator."""
        from repro.simnet.process import Process

        return Process(self, generator, name=name)

    def _enqueue(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        now = self._now
        time = now + delay
        if self._shard_rank is not None:
            self._sequence += 1
            lineage = (now,) + self._shard_ctx + (self._shard_rank, self._sequence)
            if time == now:
                self._ring.append((event, lineage))
            else:
                heapq.heappush(self._queue, (time, lineage, event))
            return
        self._sequence += 1
        if time == now:
            self._ring.append(event)
        else:
            heapq.heappush(self._queue, (time, self._sequence, event))

    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` after ``delay`` simulated seconds.

        The cheap form of a triggered event: no :class:`Event` object is
        allocated, no callbacks list, no state flags — the kernel simply
        invokes ``fn(arg)`` at the scheduled (time, sequence) slot.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        now = self._now
        time = now + delay
        if self._shard_rank is not None:
            self._sequence += 1
            lineage = (now,) + self._shard_ctx + (self._shard_rank, self._sequence)
            if time == now:
                self._ring.append((_Call(fn, arg), lineage))
            else:
                heapq.heappush(self._queue, (time, lineage, _Call(fn, arg)))
            return
        self._sequence += 1
        if time == now:
            self._ring.append(_Call(fn, arg))
        else:
            heapq.heappush(self._queue, (time, self._sequence, _Call(fn, arg)))

    def wake_at(self, time: float) -> Event:
        """Return a triggered event processed at the *absolute* time ``time``.

        Used by the fused worker-step path: replaying the step-by-step
        clock additions and resuming at the replayed absolute time is the
        only way to land on bit-identical simulated timestamps (summing the
        deltas and yielding one relative timeout differs in the last float
        bits).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule a wake-up at {time}, before current time {self._now}"
            )
        event = self.acquire_event()
        event._triggered = True
        if self._shard_rank is not None:
            self._sequence += 1
            lineage = (self._now,) + self._shard_ctx + (self._shard_rank, self._sequence)
            if time == self._now:
                self._ring.append((event, lineage))
            else:
                heapq.heappush(self._queue, (time, lineage, event))
            return event
        self._sequence += 1
        if time == self._now:
            self._ring.append(event)
        else:
            heapq.heappush(self._queue, (time, self._sequence, event))
        return event

    # ------------------------------------------------------------------ running
    def _process_item(self, item: Any) -> None:
        """Process one popped event or callback token."""
        if item.__class__ is _Call:
            item.fn(item.arg)
            return
        # Detach the (lazily allocated) callback list without allocating a
        # replacement; callbacks registered during processing are dropped,
        # exactly as with the previous swap-with-fresh-list behaviour.
        callbacks = item._callbacks
        item._callbacks = None
        item._processed = True
        if callbacks:
            for callback in callbacks:
                callback(item)
        if item._pooled and len(self._event_pool) < _POOL_MAX:
            self._event_pool.append(item)

    def step(self) -> None:
        """Process the next event, advancing simulated time.

        Heap entries scheduled for the current time precede ring entries
        (their sequence numbers are older); the ring is FIFO.
        """
        queue = self._queue
        if queue:
            time = queue[0][0]
            if time <= self._now:
                if time < self._now:
                    raise SimulationError("event queue produced a time in the past")
                self._process_item(heapq.heappop(queue)[2])
                return
        ring = self._ring
        if ring:
            self._process_item(ring.popleft())
            return
        if not queue:
            raise SimulationError("no more events to process")
        time, _, item = heapq.heappop(queue)
        self._now = time
        self._process_item(item)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue is empty or ``until`` is reached.

        Args:
            until: Optional simulated time at which to stop.  If the queue
                empties earlier, the simulation stops there.

        Returns:
            The simulated time at which the run stopped.
        """
        if until is None:
            return self._loop(math.inf, math.inf, None)
        if until < self._now:
            raise SimulationError(
                f"cannot run until {until}, which is before current time {self._now}"
            )
        # Events at ``until`` run too: an inclusive cutoff is an exclusive
        # bound just past it.
        self._loop(math.nextafter(until, math.inf), until, None)
        self._now = until
        return until

    def run_before(self, end: float, stop: Optional[Event] = None) -> float:
        """Process every event due strictly before ``end``; return after
        ``stop`` (a non-pooled event, e.g. a :class:`Process`) if it is
        processed first.

        Unlike ``run(until)``, the clock is *not* advanced to ``end`` when the
        queue drains early: it stays at the last processed event.  External
        drivers (the elastic cluster runtime) interleave their own actions
        with the kernel this way without stepping it event by event.
        """
        return self._loop(end, end, stop)

    def _loop(self, end: float, bound: float, stop: Optional[Event]) -> float:
        """The run loop of :meth:`run` and :meth:`run_before`: events due
        before ``end``, with :meth:`horizon` bounded by ``bound``."""
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._run_bound = bound
        # Hoisted locals: this loop is the single hottest code path of the
        # whole simulator.
        queue = self._queue
        ring = self._ring
        heappop = heapq.heappop
        call_cls = _Call
        pool = self._event_pool
        try:
            while True:
                if queue:
                    time = queue[0][0]
                    if ring and time > self._now:
                        # Ring entries live at the current time and their
                        # sequence numbers are newer than any heap entry at
                        # the current time, older than later heap times.
                        item = ring.popleft()
                    elif time >= end:
                        break
                    else:
                        item = heappop(queue)[2]
                        self._now = time
                elif ring:
                    item = ring.popleft()
                else:
                    break
                # Inlined _process_item.
                if item.__class__ is call_cls:
                    item.fn(item.arg)
                else:
                    callbacks = item._callbacks
                    item._callbacks = None
                    item._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(item)
                    if item._pooled and len(pool) < _POOL_MAX:
                        pool.append(item)
                    elif item is stop:
                        break
        finally:
            self._running = False
            self._run_bound = -math.inf
        return self._now

    def run_window(self, end: float) -> float:
        """Process every event with time strictly below ``end`` (shard mode).

        The conservative window loop of the parallel engine: the shard owns
        all events below ``end`` (cross-shard deliveries generated anywhere
        in the current window land at or after ``end``, by the lookahead
        bound), so processing them needs no coordination.  Events exactly at
        ``end`` stay queued for the next window.  Unlike :meth:`run`, the
        clock is *not* advanced to ``end`` when the queue drains early — the
        next window's bound is derived from the earliest pending event across
        all shards, not from this shard's idle clock.
        """
        if self._shard_rank is None:
            raise SimulationError("run_window requires shard mode")
        if self._running:
            raise SimulationError("Simulator.run_window is not reentrant")
        self._running = True
        queue = self._queue
        ring = self._ring
        heappop = heapq.heappop
        call_cls = _Call
        pool = self._event_pool
        trim = _trim_lineage
        executed = 0
        self._run_bound = end
        try:
            while True:
                if queue:
                    time = queue[0][0]
                    if ring and time > self._now:
                        item, lineage = ring.popleft()
                    elif time >= end:
                        break
                    else:
                        _, lineage, item = heappop(queue)
                        self._now = time
                elif ring:
                    item, lineage = ring.popleft()
                else:
                    break
                executed += 1
                # Children scheduled while processing this item inherit its
                # (depth-trimmed) lineage as their parent context.
                self._shard_ctx = trim(lineage)
                if item.__class__ is call_cls:
                    item.fn(item.arg)
                else:
                    callbacks = item._callbacks
                    item._callbacks = None
                    item._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(item)
                    if item._pooled and len(pool) < _POOL_MAX:
                        pool.append(item)
        finally:
            self._running = False
            self._run_bound = -math.inf
            self.executed_events += executed
        return self._now

    def run_process(self, generator: Generator, name: Optional[str] = None) -> Any:
        """Start a process, run the simulation to completion, return its value.

        Convenience wrapper used heavily by tests and examples.
        """
        proc = self.process(generator, name=name)
        self.run()
        if not proc.processed:
            raise SimulationError(
                f"process {proc!r} did not finish; it is likely deadlocked"
            )
        return proc.value
