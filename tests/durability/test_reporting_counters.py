"""No counter may be silently dropped from reports.

Regression tests for the reporting gap the durability work exposed:
``metrics_rows`` used to surface only the counters named in hand-maintained
tuples like ``MANAGEMENT_COUNTERS``, so a new :class:`PSMetrics` field (the
WAL and checkpoint counters here) would vanish from reports unless the list
was edited in lockstep.  ``all_counters()`` and ``counters="all"`` derive
the set from the dataclass itself; these tests pin that every field
participates.
"""

from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.errors import ExperimentError
from repro.experiments.reporting import (
    DURABILITY_COUNTERS,
    MANAGEMENT_COUNTERS,
    all_counters,
    metrics_rows,
)
from repro.ps.metrics import PSMetrics, RunningStat


def scalar_field_names():
    probe = PSMetrics()
    return [
        spec.name
        for spec in fields(PSMetrics)
        if not isinstance(getattr(probe, spec.name), RunningStat)
    ]


def stat_field_names():
    probe = PSMetrics()
    return [
        spec.name
        for spec in fields(PSMetrics)
        if isinstance(getattr(probe, spec.name), RunningStat)
    ]


class TestEveryFieldSurfaces:
    def test_every_field_appears_in_as_dict(self):
        data = PSMetrics().as_dict()
        for name in scalar_field_names():
            assert name in data
        for name in stat_field_names():
            assert f"mean_{name}" in data

    def test_all_counters_covers_every_field(self):
        names = all_counters()
        for name in scalar_field_names():
            assert name in names
        for name in stat_field_names():
            assert f"mean_{name}" in names

    def test_durability_counters_are_reported(self):
        assert set(DURABILITY_COUNTERS) <= set(all_counters())
        assert set(MANAGEMENT_COUNTERS) <= set(all_counters())

    def test_every_scalar_field_survives_a_merge(self):
        """Set every scalar counter to a distinct nonzero value on two parts;
        the merge must double each one — none may fall back to zero."""
        names = scalar_field_names()
        part = PSMetrics()
        for value, name in enumerate(names, start=1):
            setattr(part, name, value)
        other = PSMetrics()
        for value, name in enumerate(names, start=1):
            setattr(other, name, value)
        merged = part.merge(other).as_dict()
        for value, name in enumerate(names, start=1):
            assert merged[name] == 2 * value, name


def _result(metrics):
    return SimpleNamespace(
        task="mf",
        system="lapse",
        parallelism="3x2",
        epoch_duration=1.25,
        metrics=metrics,
        remote_messages=10,
        bytes_sent=1000,
    )


class TestMetricsRows:
    def test_counters_all_includes_every_field(self):
        metrics = PSMetrics()
        metrics.wal_appends = 7
        metrics.checkpoint_bytes = 640
        rows = metrics_rows([_result(metrics)], counters="all")
        row = rows[0]
        for name in all_counters():
            assert name in row
        assert row["wal_appends"] == 7
        assert row["checkpoint_bytes"] == 640

    def test_explicit_durability_counter_list(self):
        metrics = PSMetrics()
        metrics.wal_recovered_keys = 4
        row = metrics_rows([_result(metrics)], counters=DURABILITY_COUNTERS)[0]
        assert row["wal_recovered_keys"] == 4
        assert row["lost_keys"] == 0

    def test_unknown_counter_raises(self):
        with pytest.raises(ExperimentError):
            metrics_rows([_result(PSMetrics())], counters=("wal_append",))

    def test_metricless_result_leaves_cells_empty(self):
        row = metrics_rows([_result(None)], counters="all")[0]
        assert row["wal_appends"] == ""
