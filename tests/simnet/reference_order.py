"""Order-only reference models of the kernel's ring and the network's batches.

The kernel dispatches work due at the current instant from a FIFO ring, and
the network hands all messages due at one address and instant over in one
kernel event.  Both claim to keep the order of the plain model they replace:

* :class:`HeapOnlySimulator` is the plain kernel: every scheduled action is a
  ``(time, sequence)`` heap entry, so same-instant actions run in the order
  they were scheduled;
* :func:`per_message_deliveries` is the plain network: every message is its
  own delivery at ``max(sent_at + message time, previous delivery on its
  directed node pair)``, and same-instant deliveries follow send order.

``tests/simnet/test_fastpath.py`` holds the engine to both.
"""

import heapq

from repro.simnet import Event, Simulator
from repro.simnet.kernel import _Call


class HeapOnlySimulator(Simulator):
    """The kernel with every scheduled action on the heap (sequential only)."""

    def _push(self, time, item):
        self._sequence += 1
        heapq.heappush(self._queue, (time, self._sequence, item))

    def _enqueue(self, event, delay):
        self._push(self._now + delay, event)

    def call_later(self, delay, fn, arg=None):
        self._push(self._now + delay, _Call(fn, arg))

    def wake_at(self, time):
        event = Event(self)
        event._triggered = True
        self._push(time, event)
        return event


def per_message_deliveries(cost_model, sends):
    """``(payload, instant)`` in delivery order of ``sends``, a send-ordered
    list of ``(sent_at, src_node, dst_node, payload, size_bytes)`` to one
    address."""
    last = {}
    deliveries = []
    for order, (sent_at, src, dst, payload, size) in enumerate(sends):
        if src == dst:
            delay = cost_model.ipc_access_latency
        else:
            delay = cost_model.message_time(size)
        at = max(sent_at + delay, last.get((src, dst), 0.0))
        last[(src, dst)] = at
        deliveries.append((at, order, payload))
    return [(payload, at) for at, _, payload in sorted(deliveries)]
