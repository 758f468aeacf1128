"""Tests for how trainers tally their fused runners' lane decisions."""

from collections import Counter
from types import SimpleNamespace

from repro.ml.common import FusedLaneCounts, lane_counts


def test_a_worker_without_a_runner_reports_zeros():
    assert lane_counts(None) == (0, {}, 0, 0, 0)


def test_a_simulated_runner_reports_no_visit_fields():
    """Only the real backend's runner counts conflicts; the simulator's runner
    may lack any of the visit fields, which then read 0."""
    runner = SimpleNamespace(taken=7, reasons=Counter({"not resident": 2}), commits=1)
    taken, reasons, conflicts, commits, committed = lane_counts(runner)
    assert (taken, conflicts, commits, committed) == (7, 0, 1, 0)
    assert reasons == {"not resident": 2}
    runner.reasons["checkpoint"] += 1
    assert reasons == {"not resident": 2}  # a detached copy travels home


def test_count_lanes_sums_workers_and_keeps_reasons_consistent():
    tally = FusedLaneCounts()
    tally.count_lanes((5, {"not resident": 2, "unsettled keys": 1}, 0, 1, 4))
    tally.count_lanes((3, {"not resident": 1}, 2, 0, 0))
    tally.count_lanes(lane_counts(None))
    assert tally.fused_steps == 8
    assert tally.decline_reasons == Counter({"not resident": 3, "unsettled keys": 1})
    assert tally.declined_steps == sum(tally.decline_reasons.values()) == 4
    assert (tally.visit_conflicts, tally.visit_commits, tally.committed_visits) == (2, 1, 4)
