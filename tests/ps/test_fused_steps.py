"""Verified fused steps (``FusedLocalSteps.step``) against the event path.

A step that runs inline must be unobservable: on two identical servers, one
worker taking the verified lane and one going through ``pull`` /
``push_async`` / ``yield compute_time`` read the same values, resume at the
same instant and leave the same storage, ``PSMetrics`` counters, latch
acquisitions and messages.  Every condition of the window inequality has a
refusal test; a refused step must leave all state untouched.

The asserted lane (``FusedLocalSteps.visit``, one check and one clock replay
per block visit) is held to the same event path at the end of this file; its
refusals are in ``tests/ml/test_mf_kernel.py``.
"""

import contextlib
import math

import numpy as np
import pytest

from repro.config import ClusterConfig, ParameterServerConfig
from repro.durability import DurabilityConfig
from repro.ps import ClassicSharedMemoryPS, HybridPS, LapsePS

NUM_KEYS = 12  # range partition over 2 nodes: 0-5 | 6-11
LENGTH = 2
INITIAL = np.arange(NUM_KEYS * LENGTH, dtype=float).reshape(NUM_KEYS, LENGTH)
ACCESS = 0.3e-6  # shared-memory access + latch, per key (CostModel defaults)
LOCAL_KEYS = [1, 3, 4]
COMPUTE = 5e-6


def build(ps_class=LapsePS):
    cluster = ClusterConfig(num_nodes=2, workers_per_node=2, seed=1)
    ps_config = ParameterServerConfig(num_keys=NUM_KEYS, value_length=LENGTH)
    return ps_class(cluster, ps_config, initial_values=INITIAL)


def kernel_into(seen):
    """A step kernel that records what it read and returns value-dependent updates."""

    def kernel(pulled):
        seen.append(pulled.copy())
        return 0.5 * pulled + 1.0

    return kernel


def observe(ps):
    return {
        "metrics": ps.metrics().as_dict(),
        "latches": [state.latches.acquisitions for state in ps.states],
        "messages": (ps.network.stats.messages_sent, ps.network.stats.bytes_sent),
        "parameters": ps.all_parameters().tobytes(),
        "now": ps.simulated_time,
    }


def run_steps(ps, key_lists, compute_time, fused, localize=()):
    """One worker on node 0 runs a step per key list; returns what it saw."""
    client = ps.client(0, 0)
    runner = client.fused_local_steps()
    seen, resumed, taken = [], [], []
    kernel = kernel_into(seen)

    def worker():
        if localize:
            yield from client.localize(list(localize))
        yield 1e-3
        for keys in key_lists:
            wake = runner.step(keys, compute_time, kernel) if fused else None
            taken.append(wake is not None)
            if wake is not None:
                yield wake
            else:
                pulled = yield from client.pull(keys)
                client.push_async(keys, kernel(pulled), needs_ack=False)
                yield compute_time
            resumed.append(ps.sim.now)

    ps.sim.process(worker())
    ps.run()
    return {
        "seen": [block.tobytes() for block in seen],
        "resumed": resumed,
        "taken": taken,
        "runner": runner,
    }


@pytest.mark.parametrize("ps_class", [LapsePS, HybridPS, ClassicSharedMemoryPS])
@pytest.mark.parametrize(
    "key_lists",
    [
        [LOCAL_KEYS],
        [[4]],
        [LOCAL_KEYS, [3, 1], LOCAL_KEYS],  # back to back: each starts where the last resumed
        [[1, 1, 3]],  # a key named twice accumulates both rows
    ],
)
def test_verified_step_equals_event_path(ps_class, key_lists):
    fused_ps, event_ps = build(ps_class), build(ps_class)
    fused = run_steps(fused_ps, key_lists, COMPUTE, fused=True)
    event = run_steps(event_ps, key_lists, COMPUTE, fused=False)
    assert fused["taken"] == [True] * len(key_lists)
    assert fused["seen"] == event["seen"]
    assert fused["resumed"] == event["resumed"]
    assert observe(fused_ps) == observe(event_ps)
    assert (fused["runner"].taken, sum(fused["runner"].reasons.values())) == (len(key_lists), 0)


def test_verified_step_on_a_localized_key_equals_event_path():
    keys = [1, 7, 4]  # 7 is homed at node 1 and relocated in first
    fused_ps, event_ps = build(), build()
    fused = run_steps(fused_ps, [keys], COMPUTE, fused=True, localize=[7])
    event = run_steps(event_ps, [keys], COMPUTE, fused=False, localize=[7])
    assert fused["taken"] == [True]
    assert fused["seen"] == event["seen"]
    assert fused["resumed"] == event["resumed"]
    assert observe(fused_ps) == observe(event_ps)


def test_resume_lands_on_the_slow_paths_own_additions():
    ps = build()
    result = run_steps(ps, [LOCAL_KEYS], COMPUTE, fused=True)
    start = 1e-3
    assert result["resumed"] == [(start + ACCESS * 3) + COMPUTE]


# ---------------------------------------------------------------- refusals
def attempt(ps, keys, compute_time, prepare=None, run=None):
    """Try one verified step at t = 1e-3 on node 0; a refused step falls back
    to the event path.  Returns ``(taken, untouched, runner)``."""
    client = ps.client(0, 0)
    runner = client.fused_local_steps()
    outcome = {}
    kernel = kernel_into([])

    def snapshot():
        state = ps.states[0]
        return (
            state.metrics.as_dict(),
            state.latches.acquisitions,
            ps.all_parameters().tobytes(),
            ps.sim.pending_events,
        )

    def worker():
        yield 1e-3
        if prepare is not None:
            prepare(ps)
        before = snapshot()
        wake = runner.step(keys, compute_time, kernel)
        outcome["taken"] = wake is not None
        outcome["untouched"] = snapshot() == before
        if wake is not None:
            yield wake
        else:
            pulled = yield from client.pull(keys)
            client.push_async(keys, kernel(pulled), needs_ack=False)
            yield compute_time

    ps.sim.process(worker())
    (run or ps.run)()
    return outcome["taken"], outcome["untouched"], runner


def window_end(count, start=1e-3):
    """The write instant ``t2`` of a step over ``count`` keys issued at ``start``."""
    delay = ACCESS * count
    return (start + delay) + delay


def noop(_):
    pass


def test_refuses_a_heap_entry_inside_the_window():
    taken, untouched, runner = attempt(
        build(), LOCAL_KEYS, COMPUTE, prepare=lambda ps: ps.sim.call_later(ACCESS, noop)
    )
    assert (taken, untouched) == (False, True)
    assert (runner.taken, sum(runner.reasons.values())) == (0, 1)


def test_refuses_an_entry_exactly_at_the_write_instant_and_takes_one_just_after():
    write_at = window_end(len(LOCAL_KEYS))
    taken, untouched, _ = attempt(
        build(), LOCAL_KEYS, COMPUTE, prepare=lambda ps: ps.sim.wake_at(write_at)
    )
    assert (taken, untouched) == (False, True)
    just_after = math.nextafter(write_at, math.inf)
    taken, _, _ = attempt(
        build(), LOCAL_KEYS, COMPUTE, prepare=lambda ps: ps.sim.wake_at(just_after)
    )
    assert taken


def test_refuses_a_non_empty_ring():
    taken, untouched, _ = attempt(
        build(), LOCAL_KEYS, COMPUTE, prepare=lambda ps: ps.sim.call_later(0.0, noop)
    )
    assert (taken, untouched) == (False, True)


def test_refuses_a_non_resident_key():
    taken, untouched, _ = attempt(build(), [1, 7, 4], COMPUTE)
    assert (taken, untouched) == (False, True)


def test_refuses_a_guarded_key_under_hybrid():
    def subscribe_node_1(ps):
        # Node 1 holds a replica of key 3: writes on node 0 feed a broadcast.
        ps.states[0].subscribers[3].add(1)
        ps.states[1].replicas[3] = INITIAL[3].copy()

    taken, untouched, _ = attempt(build(HybridPS), LOCAL_KEYS, COMPUTE, prepare=subscribe_node_1)
    assert (taken, untouched) == (False, True)
    # The unguarded keys of the same node still fuse.
    taken, _, _ = attempt(build(HybridPS), [1, 4], COMPUTE, prepare=subscribe_node_1)
    assert taken


def test_refuses_a_compute_time_shorter_than_the_write_delay():
    # Five keys: the write lands 1.5 us after the read, the worker would
    # resume after 1 us — its next step would overtake its own write.
    keys = [0, 1, 2, 3, 4]
    taken, untouched, _ = attempt(build(), keys, 1e-6)
    assert (taken, untouched) == (False, True)
    taken, _, _ = attempt(build(), keys, 1.5e-6)
    assert taken


def test_refuses_a_window_beyond_run_until():
    write_at = window_end(len(LOCAL_KEYS))
    for until, expected in [(1e-3 + ACCESS, False), (write_at, False), (1.0, True)]:
        ps = build()
        taken, untouched, _ = attempt(
            ps, LOCAL_KEYS, COMPUTE, run=lambda: ps.run(until=until)
        )
        assert taken == expected
        assert untouched or taken


def test_refuses_a_window_beyond_run_window_end():
    write_at = window_end(len(LOCAL_KEYS))
    for end, expected in [(1e-3 + ACCESS, False), (write_at, False), (1.0, True)]:
        ps = build()
        ps.run()  # drain start-up events: shard mode needs an empty ring
        ps.sim.enter_shard_mode(0)
        taken, untouched, _ = attempt(
            ps, LOCAL_KEYS, COMPUTE, run=lambda: ps.sim.run_window(end)
        )
        assert taken == expected
        assert untouched or taken


def test_refuses_outside_a_run_loop():
    ps = build()
    runner = ps.client(0, 0).fused_local_steps()
    assert runner.step(LOCAL_KEYS, COMPUTE, kernel_into([])) is None


def test_refuses_a_write_at_or_past_the_next_checkpoint():
    """On a logged store the write is logged at the issue instant, so node
    0's next lazy checkpoint must fall due after the write instant — where
    the event path's own append would take it."""
    write_at = window_end(len(LOCAL_KEYS))
    for due, expected in [(write_at, False), (math.nextafter(write_at, math.inf), True)]:
        cluster = ClusterConfig(num_nodes=2, workers_per_node=2, seed=1)
        ps_config = ParameterServerConfig(num_keys=NUM_KEYS, value_length=LENGTH)
        ps = LapsePS(cluster, ps_config, initial_values=INITIAL, durability=DurabilityConfig())

        def checkpoint_due(ps, due=due):
            ps.durability._next_checkpoint_at[0] = due

        taken, untouched, _ = attempt(ps, LOCAL_KEYS, COMPUTE, prepare=checkpoint_due)
        assert (taken, untouched) == (expected, not expected)
        latest = ps.durability.checkpoints[0].latest.taken_at
        assert latest == (0.0 if expected else write_at)


def test_durable_kge_logs_what_the_event_path_logs():
    """KGE on a logged store, fused vs the runner withheld: equal results and
    byte-identical WALs and checkpoints, LSNs included — a verified step
    runs only while nothing else can append in between."""
    from unittest import mock

    from repro.data import generate_knowledge_graph
    from repro.experiments.runner import make_parameter_server
    from repro.ml import KGEConfig, KGETrainer
    from repro.ml.kge import KGEKeySpace
    from repro.ps.base import WorkerClient

    graph = generate_knowledge_graph(num_entities=60, num_relations=4, num_triples=240, seed=2)
    config = KGEConfig(entity_dim=2)

    def run(withhold):
        ps = make_parameter_server(
            "lapse",
            ClusterConfig(num_nodes=2, workers_per_node=2, seed=2),
            ParameterServerConfig(
                num_keys=KGEKeySpace(graph, config).num_keys, value_length=config.value_length
            ),
            durability=DurabilityConfig(checkpoint_interval=2e-4),
        )
        trainer = KGETrainer(ps, graph, config, seed=2)
        patch = mock.patch.object(WorkerClient, "fused_local_steps", lambda self: None)
        with patch if withhold else contextlib.nullcontext():
            epochs = trainer.train(num_epochs=2, compute_loss=False)
        manager = ps.durability
        return trainer, {
            "durations": [repr(epoch.duration) for epoch in epochs],
            "metrics": ps.metrics().as_dict(),
            "parameters": ps.all_parameters().tobytes(),
            "wal": {
                node: [(r.lsn, r.kind, r.keys, r.values.tobytes()) for r in wal.records]
                for node, wal in manager.wals.items()
            },
            "checkpoints": {
                node: [
                    (c.lsn, repr(c.taken_at), c.keys.tobytes(), c.values.tobytes())
                    for c in store.checkpoints
                ]
                for node, store in manager.checkpoints.items()
            },
        }

    trainer, fused = run(withhold=False)
    _, oracle = run(withhold=True)
    assert fused == oracle
    assert trainer.fused_steps > 0 and trainer.declined_steps > 0
    assert fused["metrics"]["checkpoints"] > 2 * len(fused["wal"])


def elastic_lapse():
    """The 12 keys on nodes 0 and 1 of three (0-5 | 6-11); node 2 is reserve."""
    from repro.cluster import ElasticCluster
    from repro.ps.partition import ElasticPartitioner

    cluster = ClusterConfig(num_nodes=3, workers_per_node=2, seed=1)
    ps_config = ParameterServerConfig(num_keys=NUM_KEYS, value_length=LENGTH)
    partitioner = ElasticPartitioner(NUM_KEYS, 3, active_nodes=[0, 1])
    ps = LapsePS(cluster, ps_config, initial_values=INITIAL, partitioner=partitioner)
    return ElasticCluster(ps, initial_nodes=[0, 1])


def test_steps_on_an_elastic_cluster_run_up_to_the_next_membership_event():
    """The elastic driver fires a membership event once every simulation
    event due at its instant has run: a step whose write lands at or before
    the next event's instant fuses, one whose write lands after it declines.
    Either way the run equals the event path, join and rebalance included."""
    write_at = window_end(len(LOCAL_KEYS))

    def run(due, fused):
        elastic = elastic_lapse()
        elastic.join_at(due, node=2)
        result = run_steps(elastic.ps, [LOCAL_KEYS], COMPUTE, fused=fused)
        seen = (result["seen"], result["resumed"], observe(elastic.ps))
        return result["taken"], seen, elastic.membership.state_of(2)

    for due, expected in [(math.nextafter(write_at, 0.0), False), (write_at, True)]:
        taken, fused, joined = run(due, fused=True)
        _, event, _ = run(due, fused=False)
        assert (taken, joined) == ([expected], "active")
        assert fused == event


# ----------------------------------------------------------- asserted visits
@pytest.mark.parametrize("ps_class", [LapsePS, HybridPS, ClassicSharedMemoryPS])
@pytest.mark.parametrize("compute_time", [COMPUTE, 0.0])
def test_asserted_visit_equals_one_event_step_per_entry(ps_class, compute_time):
    block_keys = [1, 2, 3, 4]
    entry_keys = [3, 1, 3, 3, 4, 1]  # key 2 is in the block but never touched

    def update(value):
        return 0.5 * value + 1.0

    def kernel(columns, deltas, count):
        assert deltas is None and count == len(entry_keys)
        for key in entry_keys:
            columns[key - block_keys[0]] += update(columns[key - block_keys[0]])
        return columns

    def run(ps, fused):
        client = ps.client(0, 0)
        runner = client.fused_local_steps()
        resumed = []

        def worker():
            yield 1e-3
            if fused:
                visited = runner.visit(block_keys, np.array(entry_keys), compute_time, kernel)
                assert visited == (len(entry_keys), None)
                wake = runner.drain()
                if wake is not None:
                    yield wake
            else:
                for key in entry_keys:
                    pulled = yield from client.pull([key])
                    client.push_async([key], update(pulled), needs_ack=False)
                    if compute_time > 0:
                        yield compute_time
            resumed.append(ps.sim.now)

        ps.sim.process(worker())
        ps.run()
        seen = observe(ps)
        del seen["now"]  # the last asynchronous write may outlast the worker
        return resumed, seen, (runner.taken, sum(runner.reasons.values()))

    fused, event = run(build(ps_class), True), run(build(ps_class), False)
    assert fused[:2] == event[:2]
    assert fused[2] == (len(entry_keys), 0)
    start = 1e-3
    for _ in entry_keys:
        start = (start + ACCESS) + compute_time
    assert fused[0] == [start]
