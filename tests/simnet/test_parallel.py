"""Unit tests for the parallel shard engine building blocks.

The end-to-end bit-identity bar lives in
``tests/experiments/test_parallel_identity.py``; this file covers the
pieces in isolation: the node partition, the kernel's shard mode (lineage
keys, ``run_window`` bounds), the network's shard-mode sends, and the
eligibility gate that decides when a workload falls back to the
sequential engine.
"""

import warnings

import pytest

from repro.config import ClusterConfig, CostModel, ParameterServerConfig
from repro.errors import ExperimentError, ParameterServerError, SimulationError
from repro.experiments import make_parameter_server
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.parallel import (
    make_shard_plan,
    parallel_fallback_reason,
    reset_fallback_warnings,
    warn_parallel_fallback,
)


# ------------------------------------------------------------------ shard plan
def test_plan_partitions_nodes_into_contiguous_blocks():
    plan = make_shard_plan(num_nodes=8, jobs=4, lookahead=0.5)
    assert plan.num_shards == 4
    assert plan.shard_nodes == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert plan.node_ranks == {n: n // 2 for n in range(8)}
    assert plan.lookahead == 0.5


def test_plan_caps_shards_at_node_count():
    plan = make_shard_plan(num_nodes=3, jobs=8, lookahead=0.1)
    assert plan.num_shards == 3
    assert plan.shard_nodes == [[0], [1], [2]]


def test_plan_spreads_uneven_remainders():
    plan = make_shard_plan(num_nodes=5, jobs=2, lookahead=0.1)
    assert plan.num_shards == 2
    # Every node appears exactly once and blocks stay contiguous.
    assert sorted(n for nodes in plan.shard_nodes for n in nodes) == [0, 1, 2, 3, 4]
    assert all(nodes == sorted(nodes) for nodes in plan.shard_nodes)
    assert max(len(nodes) for nodes in plan.shard_nodes) <= 3


@pytest.mark.parametrize("num_nodes", (7, 11, 13))
@pytest.mark.parametrize("jobs", (2, 3, 4))
def test_plan_prime_node_counts_stay_contiguous_and_complete(num_nodes, jobs):
    """Prime node counts (worst case for even splits) still partition cleanly."""
    plan = make_shard_plan(num_nodes=num_nodes, jobs=jobs, lookahead=0.1)
    assert plan.num_shards == jobs
    flat = [n for nodes in plan.shard_nodes for n in nodes]
    assert sorted(flat) == list(range(num_nodes))
    assert all(nodes == sorted(nodes) for nodes in plan.shard_nodes)
    assert all(nodes for nodes in plan.shard_nodes)  # no empty shard
    # Contiguous blocks within one node of the even share.
    sizes = [len(nodes) for nodes in plan.shard_nodes]
    assert max(sizes) - min(sizes) <= 1
    assert plan.node_ranks == {n: plan.node_ranks[n] for n in range(num_nodes)}


def test_plan_with_more_jobs_than_nodes_caps_and_covers():
    plan = make_shard_plan(num_nodes=2, jobs=16, lookahead=0.2)
    assert plan.num_shards == 2
    assert plan.shard_nodes == [[0], [1]]
    assert plan.node_ranks == {0: 0, 1: 1}


def test_plan_lookahead_derives_from_the_cost_model():
    """The conservative lookahead follows the cluster's cost model, so two
    clusters with differing channel cost models get differing window sizes."""
    from repro.simnet.parallel import run_workers_parallel  # noqa: F401  (import check)

    for factor in (0.5, 1.0, 4.0):
        cost_model = CostModel(network_latency=150e-6 * factor)
        cluster = ClusterConfig(
            num_nodes=4, workers_per_node=1, cost_model=cost_model
        )
        config = ParameterServerConfig(num_keys=4, value_length=2)
        ps = make_parameter_server("lapse", cluster, config)
        plan = make_shard_plan(
            cluster.num_nodes, 2, ps.cluster.cost_model.network_latency
        )
        assert plan.lookahead == cost_model.network_latency
        assert plan.lookahead == pytest.approx(150e-6 * factor)


# ------------------------------------------------------------------ simulator
def test_simulator_rejects_invalid_jobs():
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1)
    config = ParameterServerConfig(num_keys=4, value_length=2)
    with pytest.raises(ExperimentError, match="jobs must be >= 1"):
        make_parameter_server("lapse", cluster, config, jobs=0)


def test_make_parameter_server_rejects_invalid_engine_combinations():
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1)
    config = ParameterServerConfig(num_keys=4, value_length=2)
    with pytest.raises(ExperimentError, match="unknown backend"):
        make_parameter_server("lapse", cluster, config, backend="bogus")
    with pytest.raises(ExperimentError, match="jobs > 1 applies to the simulator"):
        make_parameter_server("lapse", cluster, config, backend="real", jobs=2)


def test_jobs_flow_into_the_simulator():
    """``ps.jobs`` is the one copy of the shard count, and the run reads it."""
    cluster = ClusterConfig(num_nodes=4, workers_per_node=1)
    config = ParameterServerConfig(num_keys=4, value_length=2)
    ps = make_parameter_server("lapse", cluster, config, jobs=3)
    assert ps.jobs == 3

    def worker(client, worker_id):
        yield from client.pull([worker_id])

    ps.run_workers(worker)
    assert ps._last_fallback_reason is None
    assert ps._last_effective_jobs == 3


# ------------------------------------------------------------------ shard mode
def test_enter_shard_mode_requires_a_drained_ring():
    sim = Simulator()
    order = []
    sim.call_later(0.0, order.append, "immediate")
    with pytest.raises(SimulationError):
        sim.enter_shard_mode(0)


def test_enter_shard_mode_is_not_reentrant():
    sim = Simulator()
    sim.enter_shard_mode(0)
    with pytest.raises(SimulationError):
        sim.enter_shard_mode(1)


def test_run_window_requires_shard_mode():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run_window(1.0)


def test_run_window_upper_bound_is_exclusive():
    sim = Simulator()
    order = []
    sim.call_later(1.0, order.append, "at-bound")
    sim.call_later(0.5, order.append, "inside")
    sim.enter_shard_mode(0)
    sim.run_window(1.0)
    assert order == ["inside"]
    assert sim.now == 0.5  # the clock does not jump to an empty bound
    sim.run_window(1.5)
    assert order == ["inside", "at-bound"]
    assert sim.now == 1.0


def test_run_window_preserves_pre_fork_order_and_cascades():
    """Pre-fork heap entries keep their global order; same-instant children
    scheduled during the window run after every older heap entry at that
    instant — exactly like the sequential fastpath (ring entries are newer
    than any heap entry at the current time)."""
    sim = Simulator()
    order = []

    def cascade(tag):
        order.append(tag)
        if tag == "a":
            sim.call_later(0.0, order.append, "a-child")

    sim.call_later(1.0, cascade, "a")
    sim.call_later(1.0, cascade, "b")
    sim.enter_shard_mode(0)
    sim.run_window(2.0)
    assert order == ["a", "b", "a-child"]


def _sender_lineage(rank, at):
    """The key shard ``rank`` allocates at time ``at`` outside any event."""
    sender = Simulator()
    sender.enter_shard_mode(rank)
    sender._now = at
    return sender.shard_lineage()


def test_schedule_foreign_merges_by_sender_lineage():
    """A pre-fork entry sorts ahead of a foreign record at the same delivery
    time (its global sequence number is older), and a foreign record
    scheduled at an earlier instant ahead of a later one."""
    sim = Simulator()
    order = []
    sim.call_later(1.0, order.append, "local")  # pre-fork
    sim.enter_shard_mode(0)
    sim.schedule_foreign(1.0, _sender_lineage(1, 0.3), order.append, "foreign-later")
    sim.schedule_foreign(1.0, _sender_lineage(1, 0.2), order.append, "foreign")
    sim.run_window(2.0)
    assert order == ["local", "foreign", "foreign-later"]


# ------------------------------------------------------------------ shard sends
def test_cross_shard_send_uses_the_shard_lineage():
    """On shard 0 of the plan {0,1} | {2,3}, a send to a node of shard 1
    goes to the outbox under the key a local delivery would have carried;
    a send within the shard is scheduled locally."""
    sim = Simulator()
    network = Network(sim)
    deliveries = []
    for node in range(4):
        network.register(f"n{node}", node)
        network.attach_sink(f"n{node}", deliveries.append)
    sim.enter_shard_mode(0)
    network.enable_shard_mode({0: 0, 1: 0, 2: 1, 3: 1}, 0)
    network.send(0, "n3", "far", 64)
    [(deliver_at, lineage, dst_node, dst_address, payload)] = network.take_shard_outbox()
    assert lineage == _sender_lineage(0, 0.0)
    assert (dst_node, dst_address, payload) == (3, "n3", "far")
    assert deliver_at >= network.cost_model.network_latency
    assert sim.pending_events == 0
    network.send(0, "n1", "near", 64)
    assert network.take_shard_outbox() == []
    assert sim._sequence == 2
    assert network.stats.delivery_events == 2
    sim.run_window(1.0)
    assert deliveries == ["near"]


def test_shard_put_resolves_the_sink_or_the_mailbox():
    """A receiving shard delivers a cross-shard record where a local send
    would have: into the attached sink if there is one, else the mailbox."""
    sim = Simulator()
    network = Network(sim)
    mailbox = network.register("box", 0)
    network.register("sink", 1)
    consumed = []
    network.attach_sink("sink", consumed.append)
    assert network.shard_put("box") == mailbox.put
    network.shard_put("sink")("payload")
    assert consumed == ["payload"]


# ------------------------------------------------------------------ fallbacks
def _make_ps(num_nodes=4, **kwargs):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=1)
    config = ParameterServerConfig(num_keys=4, value_length=2)
    return make_parameter_server("lapse", cluster, config, **kwargs)


def test_eligible_workload_has_no_fallback_reason():
    assert parallel_fallback_reason(_make_ps()) is None


def test_fallback_on_time_cutoff():
    assert "cutoff" in parallel_fallback_reason(_make_ps(), until=1.0)


def test_fallback_on_single_node_cluster():
    assert "single node" in parallel_fallback_reason(_make_ps(num_nodes=1))


def test_fallback_on_elastic_cluster():
    """Any elastic cluster runs sequentially, even with an empty schedule."""
    from repro.cluster import ClusterSchedule
    from repro.experiments.runner import make_elastic_mf

    elastic, _trainer = make_elastic_mf(
        "lapse", num_nodes=2, schedule=ClusterSchedule(), workers_per_node=1
    )
    assert "elastic" in parallel_fallback_reason(elastic.ps)


def test_fallback_on_durable_store():
    from repro.durability import DurabilityConfig

    ps = _make_ps(durability=DurabilityConfig(checkpoint_interval=1.0))
    assert "durable" in parallel_fallback_reason(ps)


def test_fallback_on_zero_latency_cost_model():
    cluster = ClusterConfig(
        num_nodes=4, workers_per_node=1, cost_model=CostModel(network_latency=0.0)
    )
    config = ParameterServerConfig(num_keys=4, value_length=2)
    ps = make_parameter_server("lapse", cluster, config)
    assert "zero lookahead" in parallel_fallback_reason(ps)


def test_fallback_without_the_fork_start_method(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert "fork" in parallel_fallback_reason(_make_ps())


def test_fallback_inside_a_daemonic_process(monkeypatch):
    import multiprocessing
    from types import SimpleNamespace

    monkeypatch.setattr(
        multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True)
    )
    assert "daemonic" in parallel_fallback_reason(_make_ps())


def test_a_cutoff_is_named_before_the_cluster_gates():
    """The gates are checked in a fixed order: a run that trips several
    reports the first, so the recorded reason does not depend on set order."""
    from repro.durability import DurabilityConfig

    ps = _make_ps(num_nodes=1, durability=DurabilityConfig(checkpoint_interval=1.0))
    assert "cutoff" in parallel_fallback_reason(ps, until=1.0)
    assert "durable" in parallel_fallback_reason(ps)


def test_fallback_warning_fires_once_per_reason_per_process():
    reset_fallback_warnings()
    ps = _make_ps(num_nodes=1)
    ps.jobs = 2
    other = _make_ps(num_nodes=1)
    other.jobs = 2

    def idle_worker(client, worker_id):
        return
        yield  # pragma: no cover - makes this a generator function

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ps.run_workers(idle_worker)
        ps.run_workers(idle_worker)
        other.run_workers(idle_worker)  # same reason, different server: still deduped
        warn_parallel_fallback("some other reason")  # distinct reason: warns again
    messages = [w for w in caught if w.category is RuntimeWarning]
    assert len(messages) == 2
    assert "single node" in str(messages[0].message)
    assert "some other reason" in str(messages[1].message)
    # The per-run result record still captures the reason even when the
    # warning itself was deduplicated.
    assert ps._last_fallback_reason is not None
    assert other._last_fallback_reason is not None
    assert ps._last_effective_jobs == 1
    reset_fallback_warnings()


def test_fallback_emits_a_trace_marker():
    from repro.obs import TraceConfig

    reset_fallback_warnings()
    ps = _make_ps(num_nodes=1, trace=TraceConfig())
    ps.jobs = 2

    def idle_worker(client, worker_id):
        return
        yield  # pragma: no cover - makes this a generator function

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ps.run_workers(idle_worker)
    reset_fallback_warnings()
    markers = [
        (name, args)
        for trace in ps.tracer.node_traces()
        for (_at, name, args) in trace.markers
    ]
    fallbacks = [args for name, args in markers if name == "parallel:fallback"]
    assert len(fallbacks) == 1
    assert "single node" in fallbacks[0]["reason"]
    assert fallbacks[0]["jobs"] == 2


def test_warn_parallel_fallback_mentions_the_reason():
    reset_fallback_warnings()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warn_parallel_fallback("it is raining")
    assert any("it is raining" in str(w.message) for w in caught)
    reset_fallback_warnings()


# ----------------------------------------------------------------- quiescence
def test_a_key_still_relocating_in_at_quiescence_fails_the_epoch():
    """A relocation entry left at epoch quiescence holds handles that cannot
    travel home; the shard names the shard, node and key instead of failing
    to pickle it."""
    from repro.ps.lapse import RelocatingKey

    ps = _make_ps()
    ps.jobs = 2

    def planting_worker(client, worker_id):
        if client.node_id == 1:
            client.state.relocating_in[3] = RelocatingKey(key=3, requested_at=0.0)
        return
        yield  # pragma: no cover - makes this a generator function

    with pytest.raises(
        ParameterServerError,
        match=r"(?s)sim-shard-0 failed.*shard 0: node 1 still has key 3 relocating in",
    ):
        ps.run_workers(planting_worker)
