"""Tests for the simulation-engine fast paths.

Covers the hot-path machinery of the kernel and the network:

* the immediate-dispatch ring (same-time order identical to the plain
  ``(time, sequence)`` heap of ``reference_order.HeapOnlySimulator``),
* event-pool reuse safety (recycled events never fire stale callbacks or
  leak values),
* message coalescing (one kernel delivery event per (destination, instant),
  logical counters unchanged, delivery order and instants those of
  ``reference_order.per_message_deliveries``),
* absolute-time wake-ups (``Simulator.wake_at``) used by fused worker steps.

Whole runs are pinned by ``tests/experiments/test_golden_digests.py``.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_order
from repro.config import CostModel
from repro.errors import SimulationError
from repro.simnet import Event, Network, Simulator


# --------------------------------------------------------- same-time ordering
def _trigger_order_scenario(sim):
    """A scenario mixing heap timeouts and zero-delay (ring) events.

    Returns the processing order of tags.  Heap entries scheduled for a past
    instant's future and zero-delay events created while the clock sits at
    that instant must interleave exactly by trigger order.
    """
    order = []

    def waiter(tag, event):
        value = yield event
        order.append((tag, value, sim.now))

    def driver():
        yield 1.0
        # At t=1.0: fire zero-delay events; pre-scheduled timeouts for t=1.0
        # already sit in the heap with older sequence numbers.
        late.succeed("late")
        later.succeed("later")
        order.append(("driver", None, sim.now))
        yield 0.0
        order.append(("driver-after-ring", None, sim.now))

    def timed(tag, delay):
        yield delay
        order.append((tag, None, sim.now))

    late = Event(sim)
    later = Event(sim)
    sim.process(waiter("w1", late))
    sim.process(waiter("w2", later))
    sim.process(timed("t1", 1.0))
    sim.process(driver())
    sim.process(timed("t2", 1.0))
    sim.run()
    return order


def test_same_time_fifo_matches_the_heap_only_model():
    fast = _trigger_order_scenario(Simulator())
    assert fast == _trigger_order_scenario(reference_order.HeapOnlySimulator())
    assert fast[0][0] == "t1"  # pre-scheduled heap entries first, FIFO


#: How a generated action schedules a child: a bare callback, a triggered
#: event, an absolute-time wake-up, or a process yielding the delay.
SCHEDULERS = ("call_later", "event", "wake_at", "process")


def _tree_order(sim, plan):
    """Run a generated tree of actions; return ``(tag, instant)`` in run order.

    Action ``k`` schedules the children ``plan[k % len(plan)]``, each a
    ``(scheduler, delay)``, tagged in the order they are scheduled; after 60
    actions no more children are scheduled.
    """
    order = []
    tags = itertools.count(1)

    def run(tag):
        order.append((tag, sim.now))
        if len(order) >= 60:
            return
        for scheduler, delay in plan[tag % len(plan)]:
            child = next(tags)
            if scheduler == "call_later":
                sim.call_later(delay, run, child)
            elif scheduler == "event":
                event = Event(sim)
                event.callbacks.append(lambda _e, child=child: run(child))
                event.succeed(None, delay=delay)
            elif scheduler == "wake_at":
                sim.wake_at(sim.now + delay).callbacks.append(lambda _e, child=child: run(child))
            else:
                sim.process(_after(delay, run, child))

    sim.call_later(0.0, run, 0)
    sim.run()
    return order


def _after(delay, fn, arg):
    yield delay
    fn(arg)


@given(
    plan=st.lists(
        st.lists(
            st.tuples(st.sampled_from(SCHEDULERS), st.sampled_from([0.0, 0.0, 0.5, 1.0])),
            max_size=3,
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_generated_schedules_run_in_heap_order(plan):
    """Whatever mix of zero-delay and later actions a run schedules, the ring
    runs them in the plain heap's (time, sequence) order."""
    assert _tree_order(Simulator(), plan) == _tree_order(
        reference_order.HeapOnlySimulator(), plan
    )


def test_ring_drains_in_fifo_order():
    sim = Simulator()
    order = []

    def root():
        yield 1.0
        for tag in range(5):
            event = Event(sim)
            event.callbacks.append(lambda _e, t=tag: order.append(t))
            event.succeed(None)  # zero delay -> ring
        yield 0.0

    sim.run_process(root())
    assert order == [0, 1, 2, 3, 4]


def test_pending_events_and_peek_time_include_ring():
    sim = Simulator()
    event = Event(sim)
    sim.run(until=2.0)
    event.succeed(None)  # zero delay at t=2 -> ring
    assert sim.pending_events == 1
    assert sim.peek_time() == 2.0
    sim.step()
    assert sim.pending_events == 0
    assert sim.peek_time() is None


# ----------------------------------------------------------------- event pool
def test_pooled_events_are_recycled():
    sim = Simulator()
    event = sim.acquire_event()
    assert event._pooled
    event.succeed("payload")
    sim.run()
    assert sim._event_pool  # recycled after processing
    again = sim.acquire_event()
    assert again is event  # freelist reuse
    assert not again.triggered and not again.processed
    assert again._value is None


def test_recycled_event_drops_stale_callbacks():
    sim = Simulator()
    fired = []
    event = sim.acquire_event()
    event.succeed("first")
    sim.run()
    # Appending to a processed event never fires (documented contract); with
    # pooling, the append must ALSO not leak into the next incarnation.
    event.callbacks.append(lambda _e: fired.append("stale"))
    reused = sim.acquire_event()
    assert reused is event
    reused.callbacks.append(lambda _e: fired.append("fresh"))
    reused.succeed(None)
    sim.run()
    assert fired == ["fresh"]


def test_pool_is_bounded():
    from repro.simnet.kernel import _POOL_MAX

    sim = Simulator()
    for _ in range(_POOL_MAX + 50):
        sim.acquire_event().succeed(None)
    sim.run()
    assert len(sim._event_pool) <= _POOL_MAX


# -------------------------------------------------------------------- wake_at
def test_wake_at_resumes_at_exact_absolute_time():
    sim = Simulator()

    def proc():
        yield 0.25
        yield sim.wake_at(1.0)
        return sim.now

    assert sim.run_process(proc()) == 1.0


def test_wake_at_rejects_past_times():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.wake_at(4.0)


def test_wake_at_current_instant_processes_after_pending_heap():
    sim = Simulator()
    order = []

    def sleeper():
        yield 1.0
        order.append("timeout")

    def waker():
        yield 1.0 - 0.5
        yield 0.5
        # Now at t=1.0 with sleeper's timeout pending in the heap.
        yield sim.wake_at(1.0)
        order.append("wake")

    sim.process(waker())
    sim.process(sleeper())
    sim.run()
    assert order == ["timeout", "wake"]


# ---------------------------------------------------------- message coalescing
def _flat_cost() -> CostModel:
    return CostModel(network_latency=1e-3, network_bandwidth=1e12)


def test_same_instant_deliveries_share_one_event():
    sim = Simulator()
    network = Network(sim, _flat_cost())
    inbox = network.register("dst", 1)
    network.register("src", 0)
    network.send(0, "dst", "a", 0)
    network.send(0, "dst", "b", 0)  # same size, same instant -> same arrival
    network.send(0, "dst", "c", 0)
    stats = network.stats
    assert stats.messages_sent == 3
    assert stats.remote_messages == 3
    assert stats.delivery_events == 1
    assert stats.coalesced_messages == 2
    sim.run()
    assert list(inbox._items) == ["a", "b", "c"]
    assert not network._pending_batches  # batch table cleaned on delivery


def test_different_instants_do_not_coalesce():
    sim = Simulator()
    network = Network(sim, _flat_cost())
    network.register("dst", 1)
    network.send(0, "dst", "big", 10_000_000)  # bandwidth-limited arrival
    network.send(0, "dst", "small", 0)  # FIFO clamps it to the same arrival
    network.send(0, "dst", "later", 20_000_000)  # strictly later arrival
    stats = network.stats
    # "small" is clamped onto "big"'s arrival instant and coalesces with it;
    # "later" arrives strictly later and gets its own delivery event.
    assert stats.delivery_events == 2
    assert stats.coalesced_messages == 1
    sim.run()
    assert list(network.mailbox("dst")._items) == ["big", "small", "later"]


def test_coalesced_delivery_matches_the_per_message_model():
    """Three senders (one of them local) feed one mailbox with messages whose
    arrivals collide, clamp behind a larger one, or stand alone: the consumer
    sees each message at its own delivery instant, in send order within an
    instant, as if every message had been its own delivery event."""
    cost = CostModel(network_latency=1e-3, network_bandwidth=1e6)
    sim = Simulator()
    network = Network(sim, cost)
    inbox = network.register("dst", 1)
    received, sends = [], []

    def consumer():
        while True:
            payload = yield inbox.get()
            received.append((payload, sim.now))

    def producer(src, sizes, pause):
        for round_index in range(3):
            for index, size in enumerate(sizes):
                payload = f"{src}:{round_index}.{index}"
                sends.append((sim.now, src, 1, payload, size))
                network.send(src, "dst", payload, size)
            yield pause

    sim.process(consumer())
    sim.process(producer(0, (64, 64, 1000, 0), 5e-4))
    sim.process(producer(2, (64, 0), 5e-4))
    sim.process(producer(1, (8,), 2.5e-4))
    sim.run()
    assert network.stats.coalesced_messages > 0
    assert network.stats.delivery_events + network.stats.coalesced_messages == len(sends)
    assert received == reference_order.per_message_deliveries(cost, sends)


def test_sink_receives_at_delivery_instant():
    sim = Simulator()
    network = Network(sim, _flat_cost())
    network.register("dst", 1)
    received = []
    network.attach_sink("dst", lambda payload: received.append((payload, sim.now)))
    network.send(0, "dst", "a", 0)
    network.send(0, "dst", "b", 0)
    sim.run()
    assert received == [("a", 1e-3), ("b", 1e-3)]


def test_sink_requires_registered_address():
    sim = Simulator()
    network = Network(sim, _flat_cost())
    from repro.errors import NetworkError

    with pytest.raises(NetworkError):
        network.attach_sink("nowhere", lambda payload: None)
