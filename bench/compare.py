"""Gate one results JSON of ``run.py`` against another.

``python3 bench/run.py compare A.json B.json`` treats A as the parent and B as
the change, prints one row per workload x end-to-end metric, and exits
non-zero when

* a median got worse by more than the metric's bound,
* a metric that must repeat exactly differs at all — ``epoch_s`` on the
  simulated clock, the fingerprint and the exact per-layer counters, when A
  and B ran the same seed at the same scale,
* the share of failed steps rose, or a workload of A is missing from B.

A row reads ``unresolved`` instead of ``same`` where the interquartile spread
of A's own repetitions is wider than the bound: the medians agree, but A could
not have shown a regression of that size.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from catalog import END_TO_END, EXACT_COUNTERS, EXACT_ON_SIMULATED


def worsening(better: str, parent: float, change: float) -> float:
    """Share of the parent's median by which ``change`` is worse (negative = better)."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare_reports(parent: dict, change: dict) -> Tuple[List[Dict[str, object]], List[str]]:
    """Return (rows, problems); an empty ``problems`` means B passes the gate."""
    rows: List[Dict[str, object]] = []
    problems: List[str] = []
    same_inputs = parent.get("seed") == change.get("seed") and parent.get("quick") == change.get("quick")
    for name, before in parent["workloads"].items():
        after = change["workloads"].get(name)
        if after is None:
            problems.append(f"{name}: missing from the second report")
            continue
        simulated = before.get("clock") == "simulated"
        for metric, _unit, better, bound in END_TO_END:
            a, b = before["end_to_end"].get(metric), after["end_to_end"].get(metric)
            if a is None or b is None:
                problems.append(f"{name}.{metric}: not measured")
                continue
            exact = same_inputs and simulated and metric in EXACT_ON_SIMULATED
            worse = worsening(better, a["median"], b["median"])
            spread = (a["q3"] - a["q1"]) / abs(a["median"]) if a["median"] else 0.0
            if exact:
                verdict = "identical" if a["values"] == b["values"] else "DIFFERS"
            elif worse > bound:
                verdict = "WORSE"
            elif spread > bound:
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "same"
            if verdict in ("WORSE", "DIFFERS"):
                problems.append(
                    f"{name}.{metric}: {a['median']:.6g} -> {b['median']:.6g} "
                    f"({worse:+.1%} worse, bound {0 if exact else bound:.0%})"
                )
            rows.append({
                "workload": name, "metric": metric, "unit": a["unit"],
                "parent": a, "change": b, "worse": worse,
                "bound": 0.0 if exact else bound, "verdict": verdict,
            })
        if same_inputs and simulated:
            if before.get("fingerprint") != after.get("fingerprint"):
                problems.append(f"{name}: fingerprint differs")
            for counter in EXACT_COUNTERS:
                a = (before.get("per_layer") or {}).get(counter)
                b = (after.get("per_layer") or {}).get(counter)
                if a is not None and b is not None and a["value"] != b["value"]:
                    problems.append(f"{name}.{counter}: {a['value']} -> {b['value']} (must repeat exactly)")
        share_before = before["failed"] / before["attempted"]
        share_after = after["failed"] / after["attempted"]
        if share_after > share_before:
            problems.append(f"{name}: failed-step share rose {share_before:.3f} -> {share_after:.3f}")
    return rows, problems


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<18s} {'metric':<12s} {'parent median [q1, q3]':>38s} "
        f"{'change median [q1, q3]':>38s} {'worse':>8s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        cells = []
        for side in ("parent", "change"):
            entry = row[side]
            cells.append(f"{entry['median']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}]")
        lines.append(
            f"{row['workload']:<18s} {row['metric']:<12s} {cells[0]:>38s} {cells[1]:>38s} "
            f"{row['worse']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    rows, problems = compare_reports(*reports)
    print(format_rows(rows))
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("ok: every metric within its bound, exact metrics identical")
    return 1 if problems else 0
