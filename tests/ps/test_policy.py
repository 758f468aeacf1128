"""Tests for the management-policy layer (routing, dispatch, classification)."""

import inspect
import pkgutil
from functools import partial

import numpy as np
import pytest

import repro.ps
from repro.config import ClusterConfig, ParameterServerConfig
from repro.errors import ParameterServerError
from repro.ps import (
    ClassicIPCPS,
    ClassicPS,
    ClassicSharedMemoryPS,
    EagerReplicationPolicy,
    HybridManagementPolicy,
    HybridPS,
    LapsePS,
    RelocationPolicy,
    ReplicaPS,
    StalePS,
    StaleReplicaPolicy,
    StaticPolicy,
    consistency_classification,
)
from repro.ps.base import NodeState, ParameterServer, WorkerClient
from repro.ps.messages import ReplicaRegisterRequest, ReplicaSyncFlush
from repro.ps.replica import InstallingKey
from repro.ps.policy import (
    ROUTE_BUFFER,
    ROUTE_LOCAL,
    ROUTE_QUEUE,
    ROUTE_REMOTE,
    ROUTE_REPLICA,
    ROUTE_SUBSCRIBE,
)


def make(ps_class, num_nodes=2, **config_kwargs):
    cluster = ClusterConfig(num_nodes=num_nodes, workers_per_node=1, seed=0)
    defaults = dict(num_keys=8, value_length=2)
    defaults.update(config_kwargs)
    return ps_class(cluster, ParameterServerConfig(**defaults))


class TestPolicyBinding:
    @pytest.mark.parametrize(
        "ps_class,policy_class",
        [
            (ClassicSharedMemoryPS, StaticPolicy),
            (LapsePS, RelocationPolicy),
            (StalePS, StaleReplicaPolicy),
            (ReplicaPS, EagerReplicationPolicy),
            (HybridPS, HybridManagementPolicy),
        ],
    )
    def test_each_system_maps_onto_its_policy(self, ps_class, policy_class):
        ps = make(ps_class)
        assert isinstance(ps.management_policy, policy_class)
        # One policy instance serves all nodes.
        assert ps.management_policy is ps.management_policy

    def test_only_relocating_policies_support_localize(self):
        assert not StaticPolicy(None).supports_localize
        assert not StaleReplicaPolicy(None).supports_localize
        assert not EagerReplicationPolicy(None).supports_localize
        assert RelocationPolicy(None).supports_localize


class TestOneRuntime:
    """A system is its policy: the runtime classes exist once, the named
    systems only declare, and nothing is wired by multiple inheritance."""

    SYSTEMS = (
        ClassicPS, ClassicSharedMemoryPS, ClassicIPCPS, LapsePS, StalePS, ReplicaPS, HybridPS,
    )

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_named_systems_define_no_methods(self, system):
        assert issubclass(system, ParameterServer)
        declared = {name for name in vars(system) if not name.startswith("__")}
        assert declared <= {"name", "policy_class", "config_overrides"}
        assert not any(callable(value) and not isinstance(value, type)
                       for value in vars(system).values())

    @staticmethod
    def classes():
        for info in pkgutil.iter_modules(repro.ps.__path__, "repro.ps."):
            module = __import__(info.name, fromlist=["_"])
            for _name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == module.__name__:
                    yield cls

    def test_no_class_has_two_bases(self):
        assert [cls for cls in self.classes() if len(cls.__bases__) > 1] == []

    def test_the_runtime_classes_have_no_subclasses_with_behaviour(self):
        for runtime in (NodeState, WorkerClient):
            assert [cls for cls in self.classes() if cls is not runtime
                    and issubclass(cls, runtime)] == []
        assert {cls for cls in self.classes() if issubclass(cls, ParameterServer)} == {
            ParameterServer, *self.SYSTEMS
        }

    def test_every_client_and_node_state_is_the_one_class(self):
        for system in self.SYSTEMS:
            ps = make(system)
            assert type(ps.client(0, 0)) is WorkerClient
            assert {type(state) for state in ps.states} == {NodeState}


class TestStaticRouting:
    def test_route_local_vs_remote(self):
        ps = make(ClassicSharedMemoryPS)
        policy = ps.management_policy
        # Keys 0-3 on node 0, keys 4-7 on node 1 (range partitioning).
        routes = policy.route_many(ps.states[0], [0, 5, 3, 7])
        assert [r.kind for r in routes] == [
            ROUTE_LOCAL, ROUTE_REMOTE, ROUTE_LOCAL, ROUTE_REMOTE,
        ]
        assert routes[1].destination == 1
        assert routes[3].destination == 1


class TestRelocationRouting:
    def test_resident_and_remote(self):
        ps = make(LapsePS)
        policy = ps.management_policy
        routes = policy.route_many(ps.states[0], [0, 4])
        assert routes[0].kind == ROUTE_LOCAL
        assert routes[1].kind == ROUTE_REMOTE
        assert routes[1].destination == 1  # home node of key 4

    def test_relocating_key_queues(self):
        from repro.ps.lapse import RelocatingKey

        ps = make(LapsePS)
        state = ps.states[0]
        state.relocating_in[4] = RelocatingKey(key=4, requested_at=0.0)
        route = ps.management_policy.route(state, 4)
        assert route.kind == ROUTE_QUEUE

    def test_location_cache_hit_is_recorded(self):
        ps = make(LapsePS, location_caches=True)
        state = ps.states[0]
        state.location_cache[4] = 1
        route = ps.management_policy.route(state, 4)
        assert route.kind == ROUTE_REMOTE and route.destination == 1
        assert state.metrics.cache_hits == 1
        route = ps.management_policy.route(state, 5)
        assert route.destination == 1  # home node, counted as a cache miss
        assert state.metrics.cache_misses == 1


class TestStaleRouting:
    def test_fresh_replica_vs_stale_fetch(self):
        ps = make(StalePS, staleness_bound=1)
        policy = ps.management_policy
        state = ps.states[0]
        state.replicas[4] = [np.zeros(2), 0]  # fetched at clock 0
        state.reader_clock = 1  # published by the reading worker's client
        fresh = policy.route_many(state, [4])[0]
        assert fresh.kind == ROUTE_REPLICA
        state.reader_clock = 3
        stale = policy.route_many(state, [4])[0]
        assert stale.kind == ROUTE_REMOTE and stale.destination == 1

    def test_remote_writes_buffer(self):
        ps = make(StalePS)
        routes = ps.management_policy.route_many(ps.states[0], [0, 4], write=True)
        assert routes[0].kind == ROUTE_LOCAL
        assert routes[1].kind == ROUTE_BUFFER


class TestReplicationRouting:
    def test_hot_read_subscribes_and_queues_follow(self):
        ps = make(ReplicaPS, hot_key_threshold=2)
        policy = ps.management_policy
        state = ps.states[0]
        first = policy.route(state, 4)
        assert first.kind == ROUTE_REMOTE  # below the threshold
        second = policy.route(state, 4)
        assert second.kind == ROUTE_SUBSCRIBE and second.destination == 1
        assert 4 in state.installing  # the subscribe route creates the queue
        third = policy.route(state, 4)
        assert third.kind == ROUTE_QUEUE

    def test_writes_do_not_subscribe(self):
        ps = make(ReplicaPS, hot_key_threshold=1)
        state = ps.states[0]
        route = ps.management_policy.route(state, 4, write=True)
        assert route.kind == ROUTE_REMOTE
        assert 4 not in state.installing


class TestHybridRouting:
    def test_cold_keys_follow_relocation_hot_keys_subscribe(self):
        ps = make(HybridPS, hot_key_threshold=2)
        policy = ps.management_policy
        state = ps.states[0]
        assert policy.route(state, 4).kind == ROUTE_REMOTE
        route = policy.route(state, 4)
        assert route.kind == ROUTE_SUBSCRIBE
        assert route.destination == 1  # home-node routing of the relocation policy

    def test_replica_route_once_installed(self):
        ps = make(HybridPS)
        state = ps.states[0]
        state.replicas[4] = np.zeros(2)
        assert ps.management_policy.route(state, 4).kind == ROUTE_REPLICA


class TestRegisterAndFlushChaseRelocatedKeys:
    """Replication alone serves subscriptions and flushes only for keys it
    owns; with a relocation partner (hybrid) the same handlers forward a
    relocated-away key along the relocation routing."""

    @staticmethod
    def register(key):
        return ReplicaRegisterRequest(keys=(key,), requester_node=1, reply_to=("van", 1))

    @staticmethod
    def flush(key):
        return ReplicaSyncFlush(keys=(key,), updates=np.ones((1, 2)), source_node=1)

    def test_replication_alone_raises_does_not_own(self):
        ps = make(ReplicaPS)
        policy = ps.management_policy
        assert isinstance(policy, EagerReplicationPolicy) and policy.relocation is None
        state = ps.states[0]  # owns keys 0-3, not key 4
        with pytest.raises(ParameterServerError, match="replica subscription for key 4 it does not own"):
            policy._handle_register(state, self.register(4))
        with pytest.raises(ParameterServerError, match="replica update flush for key 4 it does not own"):
            policy._handle_flush(state, self.flush(4))

    def test_hybrid_forwards_to_the_current_owner(self):
        ps = make(HybridPS, num_nodes=3, num_keys=9)

        def worker(client, worker_id):
            if worker_id == 2:
                yield from client.localize([0])  # key 0: home node 0, now owned by node 2

        ps.run_workers(worker)
        assert ps.current_owner(0) == 2
        home = ps.states[0]
        policy = ps.management_policy.replication
        assert policy.relocation is ps.management_policy.relocation
        before = ps.parameter(0).copy()
        ps.states[1].installing[0] = InstallingKey(key=0)  # node 1 awaits the snapshot
        policy._handle_register(home, self.register(0))
        policy._handle_flush(home, self.flush(0))
        assert home.metrics.forwarded_ops == 2
        assert not home.subscribers.get(0)
        ps.run()  # deliver the forwarded messages to node 2, its install to node 1
        assert ps.states[2].subscribers[0] == {1}
        np.testing.assert_array_equal(ps.states[1].replicas[0], before)
        np.testing.assert_array_equal(ps.parameter(0), before + 1.0)


class _Probe:
    def __init__(self, tag):
        self.tag = tag


class _Quick(_Probe):
    pass


class _Slow(_Probe):
    pass


class _Free(_Probe):
    pass


class TestServerDispatch:
    def test_unexpected_message_raises(self):
        ps = make(ClassicSharedMemoryPS)

        def worker(client, worker_id):
            ps.send_to_server(0, 0, object(), 64)
            return None
            yield  # pragma: no cover

        with pytest.raises(ParameterServerError, match="unexpected message"):
            ps.run_workers(worker)

    def test_policy_handlers_join_the_dispatch_table(self):
        from repro.ps.messages import (
            LocalizeRequest,
            PullRequest,
            RelocateInstruction,
            RelocationTransfer,
        )

        ps = make(LapsePS)
        dispatch = ps.management_policy.server_handlers(ps.states[0])
        assert PullRequest in dispatch
        assert LocalizeRequest in dispatch
        assert RelocateInstruction in dispatch
        assert RelocationTransfer in dispatch
        cost = ps.cluster.cost_model
        assert dispatch[PullRequest][0] == cost.server_processing_time
        assert dispatch[LocalizeRequest][0] == cost.relocation_processing_time

    def test_messages_are_handled_one_at_a_time_in_arrival_order(self):
        """A message arriving at ``a`` is handled at ``max(a, busy_until) +
        cost``: a burst at one instant is served back to back, a message
        arriving while the server is busy waits for the busy period to end,
        and one arriving after the server went idle waits only its cost."""
        ps = make(ClassicSharedMemoryPS)
        state = ps.states[1]
        handled = []

        def record(_state, message):
            handled.append((message.tag, ps.sim.now))

        dispatch = {_Quick: (0.25, record), _Slow: (0.5, record), _Free: (0.0, record)}
        arrivals = [
            (1.0, _Quick("a")), (1.0, _Slow("b")), (1.0, _Quick("c")),  # one burst
            (1.5, _Quick("d")), (1.5, _Free("e")),  # busy until 2.0
            (3.0, _Quick("f")),  # idle since 2.25
        ]
        receive = partial(ps._server_receive, state, dispatch)
        for at, message in arrivals:
            ps.sim.call_later(at, receive, message)
        ps.run()
        assert handled == [
            ("a", 1.25), ("b", 1.75), ("c", 2.0), ("d", 2.25), ("e", 2.25), ("f", 3.25),
        ]
        assert state.server_busy_until == 3.25
        assert state.metrics.server_messages == len(arrivals)
        assert ps.states[0].metrics.server_messages == 0

    def test_hybrid_dispatch_is_the_union_of_both_protocols(self):
        from repro.ps.messages import LocalizeRequest

        ps = make(HybridPS)
        dispatch = ps.management_policy.server_handlers(ps.states[0])
        assert LocalizeRequest in dispatch
        assert ReplicaRegisterRequest in dispatch
        assert ReplicaSyncFlush in dispatch


class TestConsistencyClassification:
    def test_table1_rows(self):
        assert consistency_classification(StaticPolicy(None))["sequential"]
        assert consistency_classification(RelocationPolicy(None))["sequential"]
        stale = consistency_classification(StaleReplicaPolicy(None))
        assert stale["eventual"] and not stale["sequential"] and not stale["session"]
        repl = consistency_classification(EagerReplicationPolicy(None))
        assert repl["eventual"] and repl["session"] and not repl["sequential"]

    def test_server_message_metric_counts_dispatched_messages(self):
        ps = make(ClassicSharedMemoryPS)

        def worker(client, worker_id):
            yield from client.pull([4 if client.node_id == 0 else 0])
            return None

        ps.run_workers(worker)
        assert ps.metrics().server_messages >= 2
