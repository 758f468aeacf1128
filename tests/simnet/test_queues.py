"""Unit tests for the FIFO message queue."""

import pytest

from repro.simnet import MessageQueue, Simulator


def test_put_then_get_returns_item_immediately():
    sim = Simulator()
    queue = MessageQueue(sim)
    queue.put("hello")

    def consumer():
        item = yield queue.get()
        return item

    assert sim.run_process(consumer()) == "hello"


def test_get_blocks_until_put():
    sim = Simulator()
    queue = MessageQueue(sim)

    def consumer():
        item = yield queue.get()
        return (item, sim.now)

    def producer():
        yield 2.0
        queue.put("late item")

    proc = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert proc.value == ("late item", 2.0)


def test_fifo_order_preserved():
    sim = Simulator()
    queue = MessageQueue(sim)
    for i in range(10):
        queue.put(i)

    def consumer():
        items = []
        for _ in range(10):
            item = yield queue.get()
            items.append(item)
        return items

    assert sim.run_process(consumer()) == list(range(10))


def test_multiple_getters_served_in_order():
    sim = Simulator()
    queue = MessageQueue(sim)
    results = []

    def consumer(tag):
        item = yield queue.get()
        results.append((tag, item))

    def producer():
        yield 1.0
        queue.put("first")
        queue.put("second")

    sim.process(consumer("a"))
    sim.process(consumer("b"))
    sim.process(producer())
    sim.run()
    assert results == [("a", "first"), ("b", "second")]


def test_len_and_counters():
    sim = Simulator()
    queue = MessageQueue(sim)
    assert len(queue) == 0
    queue.put(1)
    queue.put(2)
    assert len(queue) == 2

    def consumer():
        yield queue.get()

    sim.run_process(consumer())
    assert len(queue) == 1
