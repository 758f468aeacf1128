"""End-to-end tests for the elastic cluster runtime.

Covers the acceptance shape of the elasticity subsystem: an empty schedule is
bit-identical to a static run, a mid-epoch join migrates keys and speeds up
the DPA systems relative to the static classic PS, drains empty the departing
node, and failures recover replicated keys (hybrid) or report lost keys
(pure relocation).
"""

import numpy as np
import pytest

from repro.cluster import ACTIVE, DRAINING, LEFT, ClusterSchedule, ElasticCluster
from repro.errors import ClusterError
from repro.experiments import (
    MFScale,
    make_elastic_mf,
    run_elastic_mf_experiment,
    run_mf_experiment,
)
from repro.experiments.scenarios import elastic_scaling_scenario

TINY = MFScale(num_rows=48, num_cols=24, num_entries=600, rank=4, compute_time_per_entry=2e-6)
#: Scale for the lifecycle scenario: compute-heavy enough that extra workers
#: outweigh the extra subepoch synchronization.
LIFECYCLE = MFScale(
    num_rows=150, num_cols=24, num_entries=3000, rank=4, compute_time_per_entry=25e-6
)

SEVEN_SYSTEMS = (
    "classic",
    "classic_fast_local",
    "lapse",
    "stale_ssp",
    "stale_ssppush",
    "replica",
    "hybrid",
)


@pytest.fixture(scope="module")
def lifecycle_rows():
    return elastic_scaling_scenario(scale=LIFECYCLE, seed=1, workers_per_node=2)


def row_of(rows, system):
    return next(row for row in rows if row["system"] == system)


class TestEmptyScheduleEquivalence:
    @pytest.mark.parametrize("system", SEVEN_SYSTEMS)
    def test_bit_identical_to_static_run(self, system):
        static = run_mf_experiment(
            system, num_nodes=2, workers_per_node=2, scale=TINY, epochs=2, seed=3
        )
        elastic = run_elastic_mf_experiment(
            system, num_nodes=2, workers_per_node=2, scale=TINY, epochs=2, seed=3
        )
        assert [e.duration for e in static.epochs] == [e.duration for e in elastic.epochs]
        assert static.remote_messages == elastic.remote_messages
        assert static.bytes_sent == elastic.bytes_sent
        assert static.metrics.as_dict() == elastic.metrics.as_dict()

    def test_empty_schedule_model_identical(self):
        kwargs = dict(num_nodes=2, workers_per_node=2, scale=TINY, seed=5)
        elastic, trainer = make_elastic_mf("lapse", **kwargs)
        elastic.run_epoch(trainer, compute_loss=False)
        static = _static_trained_params("lapse", kwargs)
        np.testing.assert_array_equal(elastic.ps.all_parameters(), static)


def _static_trained_params(system, kwargs):
    """Train one epoch on a plain (non-elastic) PS and return the model."""
    from repro.config import ParameterServerConfig
    from repro.data import generate_matrix
    from repro.experiments import make_parameter_server
    from repro.experiments.runner import _cluster
    from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer

    scale = kwargs["scale"]
    matrix = generate_matrix(
        scale.num_rows, scale.num_cols, scale.num_entries, rank=scale.rank,
        seed=kwargs["seed"],
    )
    cluster = _cluster(kwargs["num_nodes"], kwargs["workers_per_node"], kwargs["seed"], None)
    ps = make_parameter_server(
        system, cluster, ParameterServerConfig(num_keys=scale.num_cols, value_length=scale.rank)
    )
    trainer = MatrixFactorizationTrainer(
        ps,
        matrix,
        MatrixFactorizationConfig(
            rank=scale.rank, compute_time_per_entry=scale.compute_time_per_entry
        ),
        seed=kwargs["seed"],
    )
    trainer.run_epoch(compute_loss=False)
    return ps.all_parameters()


class TestJoin:
    def test_join_migrates_keys_and_activates(self):
        schedule = ClusterSchedule().join(0.0, node=1)
        elastic, trainer = make_elastic_mf(
            "lapse", num_nodes=2, initial_nodes=[0], schedule=schedule,
            scale=TINY, workers_per_node=2, seed=0,
        )
        ps = elastic.ps
        assert ps.partitioner.active_nodes == [0]
        assert len(ps.states[1].storage) == 0
        elastic.run_epoch(trainer, compute_loss=False)
        assert elastic.membership.state_of(1) == ACTIVE
        assert ps.partitioner.active_nodes == [0, 1]
        assert ps.partitioner.epoch == 1
        # The joined node received (and the partitioner assigned) its share.
        share = ps.partitioner.keys_of(1)
        assert len(share) == TINY.num_cols // 2
        metrics = ps.metrics()
        assert metrics.rebalanced_keys == len(share)
        assert metrics.rebalance_rounds == 1
        assert metrics.rebalance_time.count == 1

    def test_only_active_nodes_contribute_epoch_workers(self):
        schedule = ClusterSchedule().join(0.0, node=2)
        elastic, _trainer = make_elastic_mf(
            "lapse", num_nodes=3, initial_nodes=[0, 1], schedule=schedule,
            scale=TINY, workers_per_node=2, seed=0,
        )
        before = elastic.participating_clients()
        assert [(c.node_id, c.worker_id) for c in before] == [(0, 0), (0, 1), (1, 2), (1, 3)]
        elastic.membership.begin_join(2)
        assert elastic.participating_clients() == before  # joining: no workers yet
        elastic.membership.complete_join(2)
        assert [c.node_id for c in elastic.participating_clients()] == [0, 0, 1, 1, 2, 2]

    def test_join_speeds_up_dpa_but_not_classic(self, lifecycle_rows):
        classic = row_of(lifecycle_rows, "classic")
        for system in ("lapse", "hybrid"):
            row = row_of(lifecycle_rows, system)
            # Acceptance: the mid-epoch join strictly reduces the post-join
            # epoch time for the DPA systems, and they beat classic-static.
            assert row["post_join_epoch_s"] < row["baseline_epoch_s"]
            assert row["post_join_epoch_s"] < classic["post_join_epoch_s"]
            assert row["rebalanced_keys"] > 0
        # The static classic PS cannot rebalance: no keys moved.
        assert classic["rebalanced_keys"] == 0

    def test_join_on_static_policy_adds_workers_only(self):
        schedule = ClusterSchedule().join(0.0, node=1)
        elastic, trainer = make_elastic_mf(
            "classic", num_nodes=2, initial_nodes=[0], schedule=schedule,
            scale=TINY, workers_per_node=2, seed=0,
        )
        elastic.run_epoch(trainer, compute_loss=False)
        assert elastic.membership.state_of(1) == ACTIVE
        assert len(elastic.ps.states[1].storage) == 0  # owns nothing
        assert elastic.ps.partitioner.epoch == 0


class TestDrainAndFailure:
    def test_drain_empties_node_and_leaves(self, lifecycle_rows):
        for system in ("lapse", "hybrid"):
            assert row_of(lifecycle_rows, system)["drain_node_state"] == LEFT
        # Static allocation cannot complete a drain: the node keeps serving.
        assert row_of(lifecycle_rows, "classic")["drain_node_state"] == DRAINING

    def test_drained_node_owns_nothing(self):
        schedule = ClusterSchedule().drain(0.0, node=1)
        elastic, trainer = make_elastic_mf(
            "lapse", num_nodes=2, schedule=schedule, scale=TINY,
            workers_per_node=2, seed=0,
        )
        elastic.run_epoch(trainer, compute_loss=False)
        elastic.prepare_epoch()  # boundary: final sweep + completion
        assert elastic.membership.state_of(1) == LEFT
        assert len(elastic.ps.states[1].storage) == 0
        assert elastic.rebalancer.owned_keys(1) == []
        # All parameters remain reachable after the drain.
        assert elastic.ps.all_parameters().shape == (TINY.num_cols, TINY.rank)

    def test_hybrid_recovers_all_lapse_loses(self, lifecycle_rows):
        hybrid = row_of(lifecycle_rows, "hybrid")
        lapse = row_of(lifecycle_rows, "lapse")
        assert hybrid["lost_keys"] == 0
        assert hybrid["recovered_keys"] > 0
        assert lapse["recovered_keys"] == 0
        assert lapse["lost_keys"] > 0

    def test_failed_node_traffic_dropped(self):
        """Traffic to/from a crashed node is blackholed, end to end."""
        elastic, trainer = make_elastic_mf(
            "hybrid", num_nodes=2, scale=TINY, workers_per_node=2, seed=3
        )
        elastic.run_epoch(trainer, compute_loss=False)
        elastic.ensure_backups()
        elastic.fail_at(elastic.ps.simulated_time, 1)
        elastic.run_epoch(trainer, compute_loss=False)
        ps = elastic.ps
        assert 1 in ps.network.failed_nodes
        before = ps.network.stats.dropped_messages
        remote_before = ps.network.stats.remote_messages
        ps.send_to_server(0, 1, "late request", 64)
        assert ps.network.stats.dropped_messages == before + 1
        assert ps.network.stats.remote_messages == remote_before

    def test_mid_epoch_fail_is_held_to_the_boundary(self):
        """Regression: a fail scheduled inside an epoch must not deadlock it.

        The failed node's workers cannot be aborted mid-generator, so the
        runtime holds the event until they finish and injects the crash at
        the next epoch boundary.
        """
        elastic, trainer = make_elastic_mf(
            "hybrid", num_nodes=2, scale=TINY, workers_per_node=2, seed=4
        )
        first = elastic.run_epoch(trainer, compute_loss=False)
        elastic.ensure_backups()
        mid = elastic.ps.simulated_time + 0.5 * first.duration
        elastic.fail_at(mid, 1)
        # The epoch completes normally (run_workers would raise on deadlock);
        # the crash injects only once its workers have finished.
        result = elastic.run_epoch(trainer, compute_loss=False)
        assert result.duration > 0
        assert elastic.membership.state_of(1) == "failed"
        assert not elastic.pending_events
        elastic.run_epoch(trainer, compute_loss=False)  # keeps training
        assert elastic.lost_keys == 0
        assert elastic.recovered_keys > 0

    def test_draining_node_counts_as_recovery_source(self):
        """Regression: a replica held by a DRAINING node must still recover keys.

        The draining node is alive and connected — its replicas are released
        only when the drain completes — so a concurrent failure must recover
        from it instead of declaring the keys lost.
        """
        from repro.config import message_size
        from repro.ps.base import van_address
        from repro.ps.messages import ReplicaRegisterRequest
        from repro.ps.replica import InstallingKey

        elastic, trainer = make_elastic_mf(
            "hybrid", num_nodes=3, scale=TINY, workers_per_node=2, seed=6
        )
        elastic.run_epoch(trainer, compute_loss=False)
        ps = elastic.ps
        # Node 1 (about to drain) is the ONLY replica holder of node 2's keys.
        keys = sorted(ps.states[2].storage.keys())
        assert keys
        for key in keys:
            ps.states[1].installing[key] = InstallingKey(key=key)
        ps.send_to_server(
            1,
            2,
            ReplicaRegisterRequest(keys=tuple(keys), requester_node=1, reply_to=van_address(1)),
            message_size(len(keys), 0),
        )
        elastic.settle()
        assert all(key in ps.states[1].replicas for key in keys)
        # Drain node 1 and fail node 2 at the same boundary: the drain is
        # applied first (script order), so recovery runs while 1 is DRAINING.
        now = ps.simulated_time
        elastic.drain_at(now, 1)
        elastic.fail_at(now, 2)
        elastic.run_epoch(trainer, compute_loss=False)
        assert elastic.lost_keys == 0
        assert elastic.recovered_keys >= len(keys)

    @pytest.mark.parametrize("system", ["lapse", "hybrid"])
    @pytest.mark.parametrize("logged", [True, False])
    def test_fail_rejoin_fail_at_one_boundary_recovers_cut_short_relocations(self, system, logged):
        """Regression, shrunk from a random schedule: node 1 crashes and
        restarts, then node 2 crashes, all at one epoch boundary.  The
        restart's rebalance has just asked node 2 for keys 8-10 and the home
        table already names node 1, so the second crash cuts those
        relocations short.  Recovery must restore them to node 1 from node
        2's log, or count them lost, and complete the handles waiting there;
        it used to leave them waiting, and the next epoch deadlocked."""
        from repro.durability import DurabilityConfig

        elastic, trainer = make_elastic_mf(
            system, num_nodes=4, workers_per_node=1, scale=MFScale(64, 32, 600, rank=4),
            durability=DurabilityConfig() if logged else None,
        )
        ps = elastic.ps
        elastic.run_epoch(trainer, compute_loss=False)
        before = ps.all_parameters()
        now = ps.simulated_time
        elastic.fail_at(now, 1)
        elastic.rejoin_at(now, 1)
        elastic.fail_at(now, 2)
        elastic.prepare_epoch()
        assert [state.relocating_in for state in ps.states] == [{}] * 4
        assert all(operation.done for _event, operation in elastic.operations)
        assert elastic.membership.state_of(1) == ACTIVE
        owners = sum(np.isin(np.arange(32), list(state.storage.keys())) for state in ps.states)
        assert owners.tolist() == [1] * 32
        after = ps.all_parameters()
        changed = np.flatnonzero((after != before).any(axis=1))
        if logged:
            assert elastic.lost_keys == 0 and changed.size == 0
        else:
            assert {8, 9, 10} <= set(changed.tolist())
            assert not after[changed].any() and elastic.lost_keys >= changed.size
        for _ in range(2):
            elastic.run_epoch(trainer, compute_loss=False)

    @pytest.mark.parametrize(
        "script",
        [
            # A restart's relocation instruction reaches the old owner after
            # the requester crashed again and came back as a new machine.
            ["fail 1", "rejoin 1", "fail 1", "rejoin 1"],
            # Recovery re-homes a key whose relocation to a waiting node was
            # already instructed: the home entry must name that node.
            ["join 3", "fail 3", "rejoin 3", "fail 1", "rejoin 1", "fail 1", "rejoin 1"],
        ],
        ids=["fail-rejoin-twice", "join-then-restarts"],
    )
    @pytest.mark.parametrize("logged", [True, False])
    def test_repeated_restarts_at_one_boundary_keep_every_key_owned_once(self, script, logged):
        """Regression, shrunk from generated schedules: nodes crash and
        restart repeatedly at one epoch boundary.  Both used to raise
        ``RelocationError`` ("... neither owns nor expects") in the next
        epoch."""
        from repro.durability import DurabilityConfig

        elastic, trainer = make_elastic_mf(
            "lapse", num_nodes=4, initial_nodes=[0, 1], scale=MFScale(32, 18, 300, rank=4),
            workers_per_node=2, seed=7,
            durability=DurabilityConfig(checkpoint_interval=0.002) if logged else None,
        )
        ps = elastic.ps
        elastic.run_epoch(trainer, compute_loss=False)
        now = ps.simulated_time
        for step in script:
            kind, node = step.split()
            getattr(elastic, f"{kind}_at")(now, int(node))
        for _ in range(2):
            elastic.run_epoch(trainer, compute_loss=False)
        assert [state.relocating_in for state in ps.states] == [{}] * 4
        owners = sum(np.isin(np.arange(18), list(state.storage.keys())) for state in ps.states)
        assert owners.tolist() == [1] * 18

    def test_static_policy_cannot_recover(self):
        schedule = ClusterSchedule().fail(0.0, node=1)
        elastic, trainer = make_elastic_mf(
            "classic", num_nodes=2, schedule=schedule, scale=TINY,
            workers_per_node=2, seed=0,
        )
        with pytest.raises(ClusterError):
            elastic.run_epoch(trainer, compute_loss=False)

    def test_model_usable_after_recovery(self):
        elastic, trainer = make_elastic_mf(
            "hybrid", num_nodes=2, scale=TINY, workers_per_node=2, seed=2
        )
        elastic.run_epoch(trainer, compute_loss=False)
        before = elastic.ps.all_parameters()
        installed = elastic.ensure_backups()
        assert installed > 0
        elastic.fail_at(elastic.ps.simulated_time, 1)
        result = elastic.run_epoch(trainer, compute_loss=True)
        assert elastic.lost_keys == 0
        assert elastic.recovered_keys > 0
        after = elastic.ps.all_parameters()
        assert after.shape == before.shape
        assert np.isfinite(after).all()
        assert result.loss is not None


class TestEnsureBackups:
    def test_every_owned_key_gets_a_subscriber(self):
        elastic, trainer = make_elastic_mf(
            "hybrid", num_nodes=2, scale=TINY, workers_per_node=2, seed=0
        )
        elastic.run_epoch(trainer, compute_loss=False)
        elastic.ensure_backups()
        ps = elastic.ps
        for node in (0, 1):
            state = ps.states[node]
            for key in state.storage.keys():
                assert state.subscribers.get(key), f"key {key} on node {node} unprotected"

    def test_unsupported_policies_are_noops(self):
        elastic, trainer = make_elastic_mf(
            "lapse", num_nodes=2, scale=TINY, workers_per_node=2, seed=0
        )
        elastic.run_epoch(trainer, compute_loss=False)
        assert elastic.ensure_backups() == 0


class TestDeterminism:
    def test_same_seed_same_lifecycle(self):
        runs = [
            elastic_scaling_scenario(
                systems=("lapse",), scale=TINY, seed=9, workers_per_node=2
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
