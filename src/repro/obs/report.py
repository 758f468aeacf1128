"""Summarize an exported trace file: ``python -m repro.obs.report TRACE.json``.

Prints the per-op-type latency table (count / mean / p50 / p90 / p99 / max),
the relocation activity, the membership markers, the hottest keys, and the
sampled counter trajectories — the latency/locality view of the paper's
Tables 3 and 5, reconstructed from one trace file instead of a live run —
and, for a run exported by the experiment runner, its decisions: steps the
fused runner ran and declined (by reason), real-backend visit conflicts,
how many block visits each commit of their numerics ran, and why the
parallel engine fell back, if it did.

``--validate`` additionally checks the file against the Chrome trace-event
schema (exit code 1 on a malformed trace), which is how the CI ``obs-smoke``
job gates exported artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ObservabilityError
from repro.obs.export import load_trace, validate_trace


def _format_seconds(value: float) -> str:
    """Render a latency in engineering units (traces store seconds)."""
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.3f}us"


def _op_rows(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    summary = document.get("repro", {}).get("summary", {})
    op_latency = summary.get("op_latency")
    if op_latency:
        return [
            {"op": op_type, **stats} for op_type, stats in sorted(op_latency.items())
        ]
    # Fallback for traces without the repro section (e.g. hand-trimmed files):
    # rebuild the table from the complete events themselves.
    per_op: Dict[str, List[float]] = {}
    for event in document.get("traceEvents", []):
        if event.get("ph") == "X" and event.get("cat") == "op":
            per_op.setdefault(event["name"], []).append(event.get("dur", 0.0) / 1e6)
    rows = []
    for op_type, durations in sorted(per_op.items()):
        durations.sort()
        count = len(durations)

        def pick(q: float, durations=durations, count=count) -> float:
            return durations[min(count - 1, int(q * count))]

        rows.append(
            {
                "op": op_type,
                "count": count,
                "mean": sum(durations) / count,
                "p50": pick(0.50),
                "p90": pick(0.90),
                "p99": pick(0.99),
                "max": durations[-1],
            }
        )
    return rows


def _print_table(rows: Sequence[Dict[str, Any]], columns: Sequence[str]) -> None:
    rendered = []
    for row in rows:
        line = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                value = _format_seconds(value) if column != "count" else str(value)
            line.append(str(value))
        rendered.append(line)
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    print("  ".join(column.ljust(widths[i]) for i, column in enumerate(columns)))
    print("  ".join("-" * width for width in widths))
    for line in rendered:
        print("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))


def report(document: Dict[str, Any], top_keys: int = 10) -> None:
    """Print the full plain-text summary of one trace document."""
    repro = document.get("repro", {})
    summary = repro.get("summary", {})
    print(
        f"trace: system={repro.get('system', '?')} "
        f"time_domain={repro.get('time_domain', '?')} "
        f"spans={summary.get('span_count', '?')} "
        f"dropped={summary.get('dropped', 0)}"
    )
    rows = _op_rows(document)
    if rows:
        print("\nOperation latency (per op type, all nodes):")
        _print_table(rows, ("op", "count", "mean", "p50", "p90", "p99", "max"))
    else:
        print("\nNo operation spans recorded.")

    markers = [
        event
        for event in document.get("traceEvents", [])
        if event.get("ph") == "i"
    ]
    if markers:
        print("\nCluster events:")
        for event in sorted(markers, key=lambda item: item.get("ts", 0.0)):
            at = _format_seconds(event.get("ts", 0.0) / 1e6)
            print(f"  {at:>12}  node {event.get('pid')}  {event.get('name')}")

    relocations = [
        event
        for event in document.get("traceEvents", [])
        if event.get("ph") == "X" and event.get("cat") == "relocation"
    ]
    if relocations:
        total_blocked = sum(
            event.get("args", {}).get("blocked", 0.0) for event in relocations
        )
        print(
            f"\nRelocations: {len(relocations)} keys moved, "
            f"mean blocking {_format_seconds(total_blocked / len(relocations) / 1e6)}"
        )

    heatmap = repro.get("heatmap", {})
    if heatmap:
        hottest = sorted(
            heatmap.items(), key=lambda item: item[1]["accesses"], reverse=True
        )[:top_keys]
        print(f"\nHottest keys (top {len(hottest)}):")
        for key, entry in hottest:
            print(f"  key {key:>8}  {entry['accesses']} accesses")

    samples = repro.get("samples", {})
    if samples:
        points = sum(len(series) for series in samples.values())
        print(
            f"\nCounter time series: {points} samples across "
            f"{len(samples)} nodes (interval {repro.get('metrics_interval')}s); "
            "load the trace in Perfetto to plot them."
        )

    decisions = repro.get("decisions")
    if decisions:
        fused, declined = decisions["fused_steps"], decisions["declined_steps"]
        total = fused + declined
        share = f" ({100 * fused / total:.1f} % fused)" if total else ""
        print(f"\nDecisions: {fused} steps fused, {declined} declined{share}")
        for reason, count in sorted(
            decisions["decline_reasons"].items(), key=lambda item: (-item[1], item[0])
        ):
            print(f"  declined  {count:>8}  {reason}")
        print(f"  visit conflicts: {decisions['visit_conflicts']}")
        commits, committed = decisions["visit_commits"], decisions["committed_visits"]
        width = f", {committed / commits:.2f} per commit" if commits else ""
        print(f"  visit commits: {commits} ({committed} visits{width})")
        fallback = decisions["parallel_fallback_reason"]
        print(f"  parallel fallback: {fallback or 'none'}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a trace file exported by repro.obs.Tracer.",
    )
    parser.add_argument("trace", help="path to the exported trace JSON")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="validate against the Chrome trace-event schema before reporting",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="hot keys to list (default: 10)"
    )
    args = parser.parse_args(argv)
    try:
        document = load_trace(args.trace)
        if args.validate:
            validate_trace(document)
            print(f"{args.trace}: schema OK")
        report(document, top_keys=args.top)
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
