"""Fail/rejoin fault matrix across management policies.

The fast acceptance test pins the PR's headline property at tiny scale:
a lapse (pure relocation, no replicas) crash-and-restart under durability
finishes with ``lost_keys == 0`` and a final model bit-identical to the
failure-free run.  The ``slow``-marked sweep replays the same lifecycle
across every relocation-capable system, several seeds, and several crash
victims at a larger scale (run with ``pytest -m slow``).
"""

import numpy as np
import pytest

from repro.durability import DurabilityConfig
from repro.experiments import MFScale, make_elastic_mf
from repro.experiments.scenarios import (
    DURABILITY_RECOVERY_SYSTEMS,
    durability_recovery_scenario,
)

TINY = MFScale(num_rows=40, num_cols=24, num_entries=300, rank=4)
SWEEP = MFScale(num_rows=120, num_cols=32, num_entries=2000, rank=4)


@pytest.fixture(scope="module")
def recovery_rows():
    return durability_recovery_scenario(scale=TINY, seed=1)


def row_of(rows, system):
    return next(row for row in rows if row["system"] == system)


class TestAcceptance:
    def test_lapse_fail_rejoin_is_lossless_and_bit_identical(self, recovery_rows):
        """The acceptance shape of the PR: pure relocation, no replicas,
        crash + restart — zero lost keys, bit-identical final model."""
        row = row_of(recovery_rows, "lapse")
        assert row["fail_injected"]
        assert row["lost_keys"] == 0
        # No replicas: every recovered key came from the log.
        assert row["recovered_keys"] > 0
        assert row["wal_recovered_keys"] > 0
        assert row["replayed_deltas"] > 0
        assert row["params_match_reference"]
        assert row["fail_node_state"] == "active"

    def test_hybrid_fail_rejoin_is_lossless_and_bit_identical(self, recovery_rows):
        row = row_of(recovery_rows, "hybrid")
        assert row["fail_injected"]
        assert row["lost_keys"] == 0
        assert row["recovered_keys"] > 0
        assert row["params_match_reference"]
        assert row["fail_node_state"] == "active"

    def test_classic_gets_inert_wal_and_no_injection(self, recovery_rows):
        """Static partitioning cannot re-home keys, so no failure is
        injected; its row proves the installed WAL is behavior-inert."""
        row = row_of(recovery_rows, "classic")
        assert not row["fail_injected"]
        assert row["lost_keys"] == 0
        assert row["wal_appends"] > 0
        assert row["params_match_reference"]

    def test_scenario_is_deterministic(self):
        first = durability_recovery_scenario(systems=("lapse",), scale=TINY, seed=3)
        second = durability_recovery_scenario(systems=("lapse",), scale=TINY, seed=3)
        assert first == second


@pytest.mark.slow
class TestFaultMatrixSweep:
    @pytest.mark.parametrize("system", DURABILITY_RECOVERY_SYSTEMS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("fail_node", [1, 2])
    def test_lifecycle_is_lossless(self, system, seed, fail_node):
        rows = durability_recovery_scenario(
            systems=(system,), scale=SWEEP, seed=seed, fail_node=fail_node
        )
        row = rows[0]
        assert row["lost_keys"] == 0
        assert row["params_match_reference"]
        if row["fail_injected"]:
            assert row["fail_node_state"] == "active"

    @pytest.mark.parametrize("system", ["lapse", "hybrid"])
    def test_repeated_crashes_of_the_same_node(self, system):
        """Crash-and-restart the same machine at two consecutive epoch
        boundaries; the second recovery must replay past the first reset."""
        durability = DurabilityConfig()
        reference, reference_trainer = make_elastic_mf(
            system, num_nodes=3, scale=SWEEP, workers_per_node=2, seed=5
        )
        for _ in range(4):
            reference.run_epoch(reference_trainer, compute_loss=False)
        reference_params = reference.ps.all_parameters()

        elastic, trainer = make_elastic_mf(
            system, num_nodes=3, scale=SWEEP, workers_per_node=2, seed=5,
            durability=durability,
        )
        elastic.run_epoch(trainer, compute_loss=False)
        for _ in range(2):
            now = elastic.ps.simulated_time
            elastic.fail_at(now, 2)
            elastic.rejoin_at(now, 2)
            elastic.run_epoch(trainer, compute_loss=False)
        elastic.run_epoch(trainer, compute_loss=False)
        assert elastic.lost_keys == 0
        assert elastic.membership.state_of(2) == "active"
        np.testing.assert_array_equal(
            elastic.ps.all_parameters(), reference_params
        )
