"""Plain-text reporting helpers for benchmark output.

Besides table formatting, this module is the one place that turns
:class:`~repro.ps.metrics.PSMetrics` into report rows: benchmarks pass their
:class:`~repro.experiments.runner.TaskRunResult` lists to
:func:`metrics_rows` (built on ``PSMetrics.as_dict``) instead of hand-picking
counters (``PSMetrics.merge`` / ``PSMetrics.aggregate`` merge across nodes
and runs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.ps.metrics import PSMetrics

#: Default counters of the management-technique comparisons: relocation
#: activity (Table 5), location-cache outcomes (Table 3), and the
#: replication-maintenance counters (the replication analogue of Table 3).
MANAGEMENT_COUNTERS = (
    "relocations",
    "replica_creates",
    "cache_hits",
    "cache_stale",
    "replica_flush_messages",
    "replica_broadcast_messages",
    "replica_sync_bytes",
)

#: Latency-distribution projections of the :class:`RunningStat` fields: the
#: streaming-histogram percentiles next to the means the paper's Table 5
#: reports.  Usable as (or merged into) the ``counters`` argument of
#: :func:`metrics_rows`.
LATENCY_COUNTERS = (
    "mean_relocation_time",
    "p50_relocation_time",
    "p99_relocation_time",
    "mean_blocking_time",
    "p99_blocking_time",
)

#: Durability-subsystem counters (WAL, checkpoints, crash recovery).
DURABILITY_COUNTERS = (
    "wal_appends",
    "wal_bytes",
    "checkpoints",
    "checkpoint_bytes",
    "replayed_deltas",
    "wal_recovered_keys",
    "recovered_keys",
    "lost_keys",
)


def all_counters() -> "tuple[str, ...]":
    """Every counter :meth:`PSMetrics.as_dict` emits, in field order.

    Derived from the dataclass itself, so a new :class:`PSMetrics` field
    surfaces in reports without touching this module — the fix for counters
    silently missing from hand-maintained tuples like
    :data:`MANAGEMENT_COUNTERS`.  Usable directly as the ``counters``
    argument of :func:`metrics_rows` (or pass ``counters="all"``).
    """
    return tuple(PSMetrics().as_dict().keys())


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        raise ExperimentError("cannot format an empty table")
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def speedup(baseline: float, measured: float) -> float:
    """Return ``baseline / measured`` (how many times faster than the baseline)."""
    if measured <= 0:
        raise ExperimentError("measured time must be positive")
    return baseline / measured


def metrics_rows(
    results: Sequence[object],
    counters: Sequence[str] = MANAGEMENT_COUNTERS,
) -> List[Dict[str, object]]:
    """One report row per :class:`TaskRunResult`, counters via ``as_dict``.

    Each row identifies the run (task, system, parallelism), reports epoch
    time, locality, and traffic, and appends the requested ``counters``
    looked up in :meth:`PSMetrics.as_dict` — replacing the per-benchmark
    metric plumbing.  ``counters="all"`` expands to :func:`all_counters`,
    i.e. every ``PSMetrics`` field, so no counter can be silently dropped.
    Results without PS metrics (e.g. the low-level baseline) leave the
    counter cells empty.
    """
    if counters == "all":
        counters = all_counters()
    rows: List[Dict[str, object]] = []
    for result in results:
        metrics = result.metrics
        data = metrics.as_dict() if metrics is not None else {}
        row: Dict[str, object] = {
            "task": result.task,
            "system": result.system,
            "parallelism": result.parallelism,
            "epoch_time_s": round(result.epoch_duration, 6),
            "local_read_frac": (
                round(metrics.local_read_fraction, 3) if metrics is not None else ""
            ),
            "remote_messages": result.remote_messages,
            "bytes_sent": result.bytes_sent,
        }
        for name in counters:
            if name not in data and metrics is not None:
                raise ExperimentError(f"unknown PSMetrics counter {name!r}")
            row[name] = data.get(name, "")
        rows.append(row)
    return rows
