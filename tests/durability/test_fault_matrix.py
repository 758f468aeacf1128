"""Fail/rejoin fault matrix across management policies.

Each case trains a failure-free reference and a durable run (WAL +
checkpoints) of the same MF job, whose victim node crashes and restarts at
an epoch boundary, as ``examples/crash_recovery.py`` does.  Under lapse (pure
relocation, no replicas) and hybrid the crash loses no key and the final
model is bit-identical to the reference; the static classic PS cannot
re-home keys, so it is not crashed and its WAL must be behavior-inert.  The
``slow``-marked sweep repeats this over every system, several seeds and
both crash victims at a larger scale (run with ``pytest -m slow``).
"""

import numpy as np
import pytest

from repro.cluster import ACTIVE
from repro.durability import DurabilityConfig
from repro.experiments import MFScale, make_elastic_mf

TINY = MFScale(num_rows=40, num_cols=24, num_entries=300, rank=4)
SWEEP = MFScale(num_rows=120, num_cols=32, num_entries=2000, rank=4)


def crash_restart(system, scale=TINY, seed=1, victim=2, crashes=1):
    """Train a reference and a durable run for ``crashes + 2`` epochs; the
    durable run's ``victim`` crashes and restarts at each of the first
    ``crashes`` epoch boundaries where the system can recover from its log.
    Return the durable run and whether its model equals the reference."""
    runs = []
    for durability in (None, DurabilityConfig()):
        elastic, trainer = make_elastic_mf(
            system, num_nodes=3, scale=scale, workers_per_node=2, seed=seed,
            durability=durability,
        )
        for epoch in range(crashes + 2):
            elastic.run_epoch(trainer, compute_loss=False)
            if durability and epoch < crashes and elastic.rebalancer.supports_wal_recovery:
                now = elastic.ps.simulated_time
                elastic.fail_at(now, victim)
                elastic.rejoin_at(now, victim)
        runs.append(elastic)
    reference, elastic = runs
    return elastic, np.array_equal(elastic.ps.all_parameters(), reference.ps.all_parameters())


class TestAcceptance:
    @pytest.mark.parametrize("system", ["lapse", "hybrid"])
    def test_fail_rejoin_is_lossless_and_bit_identical(self, system):
        elastic, exact = crash_restart(system)
        assert elastic.lost_keys == 0 and exact
        assert elastic.recovered_keys > 0
        assert elastic.membership.state_of(2) == ACTIVE
        if system == "lapse":  # no replicas: every recovered key came from the log
            metrics = elastic.ps.metrics()
            assert metrics.wal_recovered_keys > 0 and metrics.replayed_deltas > 0

    def test_classic_gets_inert_wal_and_no_injection(self):
        elastic, exact = crash_restart("classic")
        assert not elastic.rebalancer.supports_wal_recovery
        assert elastic.lost_keys == 0 and exact
        assert elastic.ps.metrics().wal_appends > 0

    def test_same_seed_same_lifecycle(self):
        first, second = (crash_restart("lapse", seed=3)[0].ps for _ in range(2))
        assert first.metrics().as_dict() == second.metrics().as_dict()
        np.testing.assert_array_equal(first.all_parameters(), second.all_parameters())


@pytest.mark.slow
class TestFaultMatrixSweep:
    @pytest.mark.parametrize("system", ["classic", "lapse", "hybrid"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("victim", [1, 2])
    def test_lifecycle_is_lossless(self, system, seed, victim):
        elastic, exact = crash_restart(system, SWEEP, seed, victim)
        assert elastic.lost_keys == 0 and exact
        assert (elastic.recovered_keys > 0) == (system != "classic")
        assert elastic.membership.state_of(victim) == ACTIVE

    @pytest.mark.parametrize("system", ["lapse", "hybrid"])
    def test_repeated_crashes_of_the_same_node(self, system):
        """The second recovery must replay past the first restart's reset."""
        elastic, exact = crash_restart(system, SWEEP, seed=5, crashes=2)
        assert elastic.lost_keys == 0 and exact
        assert elastic.membership.state_of(2) == ACTIVE
