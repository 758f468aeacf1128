"""Unit tests for the simulated network and a node's addresses."""

import pytest

from repro.config import CostModel, message_size
from repro.errors import NetworkError
from repro.simnet import Network, Simulator
from repro.simnet.network import NetworkStats
from repro.simnet.node import server_address


def build_cluster(num_nodes=2, cost_model=None):
    """A network with one server address per node; returns the server inboxes."""
    sim = Simulator()
    network = Network(sim, cost_model or CostModel())
    inboxes = [network.register(server_address(i), i) for i in range(num_nodes)]
    return sim, network, inboxes


def test_register_and_lookup_addresses():
    sim, network, inboxes = build_cluster()
    assert network.node_of(server_address(0)) == 0
    assert network.node_of(server_address(1)) == 1
    assert network.mailbox(server_address(1)) is inboxes[1]
    with pytest.raises(NetworkError):
        network.node_of(("server", 99))


def test_duplicate_address_rejected():
    sim, network, inboxes = build_cluster()
    with pytest.raises(NetworkError):
        network.register(server_address(0), 0)


def test_remote_message_charged_latency_and_bandwidth():
    cost = CostModel(network_latency=1e-3, network_bandwidth=1e6)
    sim, network, inboxes = build_cluster(cost_model=cost)
    size = 1000  # bytes -> 1ms transfer at 1 MB/s

    def receiver():
        payload = yield inboxes[1].get()
        return (payload, sim.now)

    def sender():
        yield 0.0
        network.send(0, server_address(1), "ping", size)

    recv = sim.process(receiver())
    sim.process(sender())
    sim.run()
    payload, arrival = recv.value
    assert payload == "ping"
    assert arrival == pytest.approx(1e-3 + size / 1e6)


def test_local_message_uses_ipc_latency():
    cost = CostModel(ipc_access_latency=5e-6)
    sim, network, inboxes = build_cluster(cost_model=cost)

    def receiver():
        yield inboxes[0].get()
        return sim.now

    def sender():
        yield 0.0
        network.send(0, server_address(0), "local", 10_000)

    recv = sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert recv.value == pytest.approx(5e-6)


def test_fifo_order_on_channel_with_different_sizes():
    # A huge message sent first must not be overtaken by a tiny one sent later.
    cost = CostModel(network_latency=1e-4, network_bandwidth=1e6)
    sim, network, inboxes = build_cluster(cost_model=cost)
    received = []

    def receiver():
        for _ in range(2):
            payload = yield inboxes[1].get()
            received.append((payload, sim.now))

    def sender():
        network.send(0, server_address(1), "big", 1_000_000)  # 1 second of transfer
        yield 1e-6
        network.send(0, server_address(1), "small", 1)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert [p for p, _ in received] == ["big", "small"]
    assert received[0][1] <= received[1][1]


def test_network_stats_accounting():
    sim, network, inboxes = build_cluster()
    size = message_size(num_keys=2, num_values=16)

    def sender():
        network.send(0, server_address(1), "a", size)
        network.send(0, server_address(0), "b", size)
        yield 0.0

    def receiver_remote():
        yield inboxes[1].get()

    def receiver_local():
        yield inboxes[0].get()

    sim.process(receiver_remote())
    sim.process(receiver_local())
    sim.process(sender())
    sim.run()
    assert network.stats.messages_sent == 2
    assert network.stats.remote_messages == 1
    assert network.stats.local_messages == 1
    assert network.stats.bytes_sent == size
    assert network.stats.per_channel_messages == {(0, 1): 1}


def test_negative_message_size_rejected():
    sim, network, inboxes = build_cluster()
    with pytest.raises(NetworkError):
        network.send(0, server_address(1), "x", -5)


def test_send_to_unregistered_address_rejected():
    sim, network, inboxes = build_cluster()
    with pytest.raises(NetworkError):
        network.send(0, ("worker", 1, 0), "nobody listens here", 10)
    sim.run()
    assert network.stats.messages_sent == 0
    assert len(inboxes[1]) == 0


# ----------------------------------------------------------- node lifecycle
def test_failed_node_drops_incoming_messages():
    sim, network, inboxes = build_cluster()
    network.fail_node(1)
    assert 1 in network.failed_nodes
    network.send(0, server_address(1), "lost", 100)
    sim.run()
    assert network.stats.dropped_messages == 1
    assert network.stats.messages_sent == 0
    assert network.stats.bytes_sent == 0
    assert sim.now == 0.0  # nothing was scheduled


def test_failed_node_drops_outgoing_messages():
    sim, network, inboxes = build_cluster()
    network.fail_node(0)
    network.send(0, server_address(1), "from the dead", 100)
    sim.run()
    assert network.stats.dropped_messages == 1
    assert network.stats.remote_messages == 0


def test_restore_node_reconnects():
    sim, network, inboxes = build_cluster()
    network.fail_node(1)
    network.restore_node(1)
    assert 1 not in network.failed_nodes

    def receiver():
        payload = yield inboxes[1].get()
        return payload

    recv = sim.process(receiver())
    network.send(0, server_address(1), "hello again", 50)
    sim.run()
    assert recv.value == "hello again"
    assert network.stats.dropped_messages == 0


def test_healthy_traffic_unaffected_by_other_failures():
    sim, network, inboxes = build_cluster(num_nodes=3)
    network.fail_node(2)

    def receiver():
        payload = yield inboxes[1].get()
        return payload

    recv = sim.process(receiver())
    network.send(0, server_address(1), "fine", 50)
    sim.run()
    assert recv.value == "fine"
    assert network.stats.remote_messages == 1


def test_failed_nodes_is_a_detached_snapshot():
    sim, network, inboxes = build_cluster(num_nodes=3)
    network.fail_node(2)
    before = network.failed_nodes
    network.fail_node(1)
    network.restore_node(2)
    assert before == frozenset({2})
    assert network.failed_nodes == frozenset({1})


def test_network_stats_absorb_adds_every_counter_and_channel():
    """A shard's own counts fold into the parent's: scalars add, and the
    per-channel counts merge key by key."""
    parent = NetworkStats(
        messages_sent=3, remote_messages=2, local_messages=1, bytes_sent=100,
        per_channel_messages={(0, 1): 2}, delivery_events=3,
    )
    child = NetworkStats(
        messages_sent=4, remote_messages=4, bytes_sent=40, dropped_messages=1,
        per_channel_messages={(0, 1): 1, (1, 0): 3}, delivery_events=3,
        coalesced_messages=1,
    )
    parent.absorb(child)
    assert parent == NetworkStats(
        messages_sent=7, remote_messages=6, local_messages=1, bytes_sent=140,
        per_channel_messages={(0, 1): 3, (1, 0): 3}, dropped_messages=1,
        delivery_events=6, coalesced_messages=1,
    )
    assert child.per_channel_messages == {(0, 1): 1, (1, 0): 3}
