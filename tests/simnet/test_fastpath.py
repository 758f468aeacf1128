"""Tests for the simulation-engine fast paths.

Covers the hot-path machinery introduced by the engine overhaul:

* the immediate-dispatch ring (same-time FIFO ordering identical to the
  heap-only reference engine),
* event-pool reuse safety (recycled events never fire stale callbacks or
  leak values),
* message coalescing (one kernel delivery event per (destination, instant),
  logical counters unchanged, delivery order preserved),
* absolute-time wake-ups (``Simulator.wake_at``) used by fused worker steps,
* the ``REPRO_DISABLE_FASTPATH`` toggle itself.

The end-to-end bit-identity sweep across all systems and workloads lives in
``tests/experiments/test_fastpath_identity.py``.
"""

import pytest

from repro.config import CostModel
from repro.errors import SimulationError
from repro.simnet import Event, Network, Simulator
from repro.simnet.kernel import fastpath_disabled


@pytest.fixture(autouse=True)
def _fast_engine(monkeypatch):
    """Default every test to the fast engine, whatever the ambient env says.

    Tests that exercise the reference engine set the variable themselves via
    their own ``monkeypatch`` argument (which layers on top of this one).
    """
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)


# ----------------------------------------------------------------- the toggle
def test_fastpath_toggle_read_at_construction(monkeypatch):
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    assert not fastpath_disabled()
    assert Simulator().fastpath
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    assert fastpath_disabled()
    assert not Simulator().fastpath
    # "0" and empty mean enabled (convenient for scripted toggling).
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "0")
    assert Simulator().fastpath


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


def test_same_time_fifo_matches_reference_engine(monkeypatch):
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    fast = _trigger_order_scenario(Simulator())
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    reference = _trigger_order_scenario(Simulator())
    assert fast == reference
    assert fast[0][0] == "t1"  # pre-scheduled heap entries first, FIFO


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


def test_pool_disabled_under_reference_engine(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    sim = Simulator()
    event = sim.acquire_event()
    assert not event._pooled
    event.succeed(None)
    sim.run()
    assert not sim._event_pool


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


def test_coalescing_disabled_under_reference_engine(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    sim = Simulator()
    network = Network(sim, _flat_cost())
    inbox = network.register("dst", 1)
    network.send(0, "dst", "a", 0)
    network.send(0, "dst", "b", 0)
    assert network.stats.delivery_events == 2
    assert network.stats.coalesced_messages == 0
    sim.run()
    assert list(inbox._items) == ["a", "b"]


def test_coalesced_delivery_is_deterministic(monkeypatch):
    """Same scenario, fast vs reference engine: identical order and times."""

    def run_once():
        sim = Simulator()
        network = Network(sim, _flat_cost())
        inbox = network.register("dst", 1)
        network.register("other", 2)
        received = []

        def consumer():
            while True:
                payload = yield inbox.get()
                received.append((payload, sim.now))

        def producer():
            for round_index in range(3):
                for payload in ("x", "y", "z"):
                    network.send(0, "dst", f"{payload}{round_index}", 64)
                yield 5e-4

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        return received

    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    fast = run_once()
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    reference = run_once()
    assert fast == reference


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
