"""Unit tests for the discrete-event simulation kernel."""

import math

import pytest

from repro.errors import ProcessError, SimulationError
from repro.simnet import AllOf, Event, Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield 1.5
        return "done"

    result = sim.run_process(proc())
    assert result == "done"
    assert sim.now == pytest.approx(1.5)


def test_nested_timeouts_accumulate():
    sim = Simulator()

    def proc():
        yield 1.0
        yield 2.0
        yield 0.5
        return sim.now

    result = sim.run_process(proc())
    assert result == pytest.approx(3.5)


def test_zero_delay_timeout_is_allowed():
    sim = Simulator()

    def proc():
        yield 0.0
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Timeout(sim, -1.0)


def test_event_succeed_value_passed_to_waiter():
    sim = Simulator()
    event = sim.event()

    def trigger():
        yield 2.0
        event.succeed("payload")

    def waiter():
        value = yield event
        return value

    sim.process(trigger())
    proc = sim.process(waiter())
    sim.run()
    assert proc.value == "payload"
    assert sim.now == pytest.approx(2.0)


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_fail_propagates_to_waiter():
    sim = Simulator()
    event = sim.event()

    def trigger():
        yield 1.0
        event.fail(ValueError("boom"))

    def waiter():
        try:
            yield event
        except ValueError as exc:
            return f"caught {exc}"
        return "not caught"

    sim.process(trigger())
    proc = sim.process(waiter())
    sim.run()
    assert proc.value == "caught boom"


def test_process_exception_without_waiter_raises():
    sim = Simulator()

    def broken():
        yield 1.0
        raise RuntimeError("broken process")

    sim.process(broken())
    with pytest.raises(RuntimeError, match="broken process"):
        sim.run()


def test_process_waits_for_other_process():
    sim = Simulator()

    def child():
        yield 3.0
        return 42

    def parent():
        result = yield sim.process(child())
        return result + 1

    assert sim.run_process(parent()) == 43
    assert sim.now == pytest.approx(3.0)


def test_same_time_events_processed_in_trigger_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield 1.0
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_early():
    sim = Simulator()

    def proc():
        yield 10.0
        return "late"

    handle = sim.process(proc())
    sim.run(until=4.0)
    assert sim.now == pytest.approx(4.0)
    assert handle.is_alive
    sim.run()
    assert handle.value == "late"


def test_run_until_between_events_leaves_now_at_the_cutoff():
    """``run(until=...)`` stops the clock at the cutoff, not at the next pending
    event, and resuming continues from there."""
    sim = Simulator()
    fired = []
    sim.call_later(1.0, fired.append, "early")
    sim.call_later(3.0, fired.append, "late")
    sim.run(until=2.0)
    assert (fired, sim.now) == (["early"], 2.0)
    sim.run()
    assert (fired, sim.now) == (["early", "late"], 3.0)


def test_same_instant_events_leave_now_unchanged():
    """Any number of same-instant events advances the clock by exactly zero, so
    durations measured around immediate work are 0.0, not a tiny epsilon."""
    sim = Simulator()
    sim.call_later(1.0, lambda _arg: None)
    sim.run()
    fired = []
    for index in range(50):
        sim.call_later(0.0, fired.append, index)
    sim.run()
    assert fired == list(range(50))
    assert sim.now == 1.0


def test_run_before_leaves_the_clock_at_the_last_event_and_returns_after_stop():
    sim = Simulator()
    order = []

    def worker(name, delay):
        yield delay
        order.append(name)

    sim.process(worker("first", 1.0))
    sim.process(worker("second", 1.0))
    sim.process(worker("late", 3.0))
    # Exclusive bound: nothing at 3.0 runs, and the clock stays at 1.0.
    sim.run_before(3.0)
    assert (sim.now, order) == (1.0, ["first", "second"])

    sim = Simulator()
    order = []
    first = sim.process(worker("first", 1.0))
    sim.process(worker("second", 2.0))
    # Returns as soon as ``first`` is processed.
    sim.run_before(float("inf"), stop=first)
    assert (first.processed, sim.now, order) == (True, 1.0, ["first"])
    sim.run()
    assert order == ["first", "second"]


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.run_process(iter_timeout(sim, 5.0))
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def iter_timeout(sim, delay):
    yield delay


def test_yielding_unsupported_object_raises():
    sim = Simulator()

    def proc():
        yield "not an event"

    sim.process(proc())
    with pytest.raises(ProcessError):
        sim.run()


def test_yielding_bool_rejected():
    sim = Simulator()

    def proc():
        yield True

    sim.process(proc())
    with pytest.raises(ProcessError):
        sim.run()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(ProcessError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_allof_collects_values_in_order():
    sim = Simulator()

    def child(delay, value):
        yield delay
        return value

    def parent():
        procs = [sim.process(child(d, v)) for d, v in [(3.0, "a"), (1.0, "b"), (2.0, "c")]]
        values = yield AllOf(sim, procs)
        return values

    assert sim.run_process(parent()) == ["a", "b", "c"]
    assert sim.now == pytest.approx(3.0)


def test_allof_empty_completes_immediately():
    sim = Simulator()

    def parent():
        values = yield AllOf(sim, [])
        return values

    assert sim.run_process(parent()) == []


def test_allof_fails_with_the_first_failing_child():
    """A failing child fails the whole condition at once; children that finish
    later neither re-trigger it nor change its exception."""
    sim = Simulator()
    early = sim.event()
    failing = sim.event()
    late = sim.event()

    def trigger():
        yield 1.0
        early.succeed("early")
        yield 1.0
        failing.fail(ValueError("boom"))
        yield 1.0
        late.succeed("late")

    def waiter():
        try:
            yield AllOf(sim, [early, failing, late])
        except ValueError as exc:
            return (sim.now, str(exc))
        return "not failed"

    sim.process(trigger())
    proc = sim.process(waiter())
    sim.run()
    assert proc.value == (2.0, "boom")
    assert late.processed


def test_allof_counts_children_processed_before_it_was_built():
    sim = Simulator()
    done = sim.event()
    done.succeed("done")
    pending = sim.event()

    def parent():
        yield 1.0
        assert done.processed
        condition = AllOf(sim, [done, pending])
        assert not condition.triggered
        pending.succeed("pending")
        return (yield condition)

    assert sim.run_process(parent()) == ["done", "pending"]
    assert sim.now == 1.0


def test_condition_rejects_mixed_simulators():
    sim_a = Simulator()
    sim_b = Simulator()
    event_a = Event(sim_a)
    event_b = Event(sim_b)
    with pytest.raises(SimulationError):
        AllOf(sim_a, [event_a, event_b])


def test_waiting_on_already_processed_event():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")

    def late_waiter():
        yield 5.0
        value = yield event
        return value

    assert sim.run_process(late_waiter()) == "early"


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_run_process_detects_deadlock():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_determinism_across_runs():
    def build_and_run():
        sim = Simulator()
        trace = []

        def proc(tag, delay):
            yield delay
            trace.append((tag, sim.now))
            yield delay
            trace.append((tag, sim.now))

        for tag in range(4):
            sim.process(proc(tag, 0.5 + 0.1 * tag))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


# ----------------------------------------------------------------- horizon
def _probe(sim, at, results, *times):
    """At simulated time ``at``, record for each of ``times`` whether it lies
    before the ``horizon``."""

    def callback(_):
        results.extend(time < sim.horizon() for time in times)

    sim.call_later(at, callback)


def test_horizon_is_minus_infinity_outside_a_run_loop():
    sim = Simulator()
    assert sim.horizon() == -math.inf
    sim.call_later(1.0, lambda _: None)
    sim.step()  # a step() driver gives no bound
    assert sim.horizon() == -math.inf


def test_horizon_is_the_first_heap_entry():
    sim = Simulator()
    results = []
    sim.call_later(2.0, lambda _: None)
    _probe(sim, 1.0, results, 1.5, 2.0, 2.5)
    sim.run()
    # Quiet strictly before the entry; an entry exactly at the time is not quiet.
    assert results == [True, False, False]
    # The bound is gone once the loop returns.
    assert sim.horizon() == -math.inf


def test_horizon_is_minus_infinity_while_the_ring_holds_an_entry():
    sim = Simulator()
    results = []

    def callback(_):
        results.append(5.0 < sim.horizon())
        sim.call_later(0.0, lambda _: None)  # same-instant work, on the ring
        results.append(5.0 < sim.horizon())

    sim.call_later(1.0, callback)
    sim.run()
    assert results == [True, False]


def test_horizon_respects_run_until():
    sim = Simulator()
    results = []
    _probe(sim, 1.0, results, 1.5, 2.0, 3.0)
    sim.run(until=2.0)
    # Strictly below the cutoff only.
    assert results == [True, False, False]


def test_horizon_respects_the_window_end():
    sim = Simulator()
    sim.enter_shard_mode(0)
    results = []
    _probe(sim, 1.0, results, 1.5, 2.0, 3.0)
    sim.run_window(2.0)
    # Strictly below the window's exclusive end only.
    assert results == [True, False, False]
    assert sim.horizon() == -math.inf
