"""The repo benchmark: seven workloads over three engines.

Three ways to call it::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload, as the driver of BENCHMARK.json calls it.  Repeats the
        workload in fresh processes until S seconds have been measured and
        prints one JSON object as the last line: the end-to-end metrics
        (--trace 0) or the per-layer metrics (--trace 1).

    python3 bench/run.py --seed N [--reps 5] [--quick] [--out FILE]
        Every workload: --reps timed repetitions, then the traced run.
        Prints every metric with its unit and writes one results JSON.

    python3 bench/run.py compare A.json B.json
        Gate B against A (see compare.py).

Each repetition runs in a process of its own (rep.py); this file only starts
them, checks what they report, and aggregates.  It needs no PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
from catalog import (  # noqa: E402
    END_TO_END,
    LAYERS,
    OTHER_SHARE_LIMIT,
    PER_LAYER,
    PER_LAYER_UNITS,
    WORKLOAD_BY_NAME,
    WORKLOADS,
)
from harness import REPO_ROOT, host_info, launch  # noqa: E402

DEFAULT_OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Repetitions of the full run; a single run never measures more than
#: ``MAX_REPS``.
DEFAULT_REPS = 10
MAX_REPS = 16
#: Untraced repetitions of a ``--trace 1`` run: the base of the overhead
#: ratios and the source of the counters.
TRACE_BASELINE_REPS = 3

#: Counters the real backend mirrors from the simulator
#: (``tests/backend/test_real_backend.py::MIRRORED_COUNTERS``).
MIRRORED_COUNTERS = (
    "localize_calls", "localized_keys", "relocations",
    "pulls_local", "pulls_remote", "pushes_local", "pushes_remote",
    "key_reads_local", "key_reads_remote", "key_writes_local", "key_writes_remote",
)

#: A child is killed after this many times its expected duration.
TIMEOUT_FACTOR = 3.0
#: Generous expected seconds of each kind of child (a repetition takes about
#: 1.5 s on the 2-core reference host when it is quiet).
EXPECTED_S = {
    "run": 8.0, "reference": 8.0, "obs": 8.0, "profile": 24.0, "probes": 15.0, "identity": 30.0,
}

#: Seconds one call of ``rep.reference_kernel`` takes on the reference host:
#: this 2-core host when it is quiet.
REFERENCE_KERNEL_S = 1.1e-3


def host_speed(rep: dict) -> Dict[str, float]:
    """How much slower than the reference host the host was around one repetition.

    This host's speed shifts by 1.3-2x for seconds to minutes at a time (CPU
    time shifts with it: contention, not steal), which moved raw wall-clock
    throughput of one commit by 15-25 % between runs.  ``rep.py`` therefore
    times a fixed reference kernel right before and right after the timed
    region, and every host-clock end-to-end metric is reported in *reference
    seconds*: measured seconds divided by these ratios.  On a host as fast as
    the reference the ratios are 1 and nothing changes.
    """
    before, after = rep["kernel_s"]
    return {
        "setup": before / REFERENCE_KERNEL_S,
        "timed": 0.5 * (before + after) / REFERENCE_KERNEL_S,
    }


def summarise(values: List[float], unit: str) -> Dict[str, object]:
    """Median, quartiles and sample count of one metric over a run's repetitions."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


class Children:
    """Runs one workload's child processes and accumulates what they left behind."""

    def __init__(self, workload, seed: int, quick: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.orphans = 0
        self.leaked_shm = 0
        self.failures: List[str] = []

    def run(self, mode: str, extra: Optional[List[str]] = None):
        """Run one child; returns its result dict, or ``None`` after recording why."""
        args = ["--workload", self.workload.name, "--seed", str(self.seed), "--mode", mode]
        if self.quick:
            args.append("--quick")
        outcome = launch(args + (extra or []), TIMEOUT_FACTOR * EXPECTED_S[mode])
        self.orphans += outcome["orphan_processes"]
        self.leaked_shm += outcome["leaked_shm_segments"]
        if outcome["error"] is not None:
            self.failures.append(f"{mode}: {outcome['error']}")
            return None
        result = outcome["result"]
        if not result.get("ok", False):
            failed = [name for name, passed in result.get("checks", {}).items() if not passed]
            self.failures.append(f"{mode}: checks failed: {', '.join(failed) or 'unknown'}")
        return result


def measure(
    workload,
    seed: int,
    reps: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = False,
    quick: bool = False,
    out_dir: str = DEFAULT_OUT_DIR,
) -> Dict[str, object]:
    """Measure one workload: ``reps`` repetitions, or as many as fill ``seconds``."""
    children = Children(workload, seed, quick)
    results: List[dict] = []
    measured = 0.0
    crashed = 0
    while len(results) < MAX_REPS and (
        len(results) < reps if reps is not None else measured < seconds
    ):
        result = children.run("run")
        if result is None:
            crashed = 1
            break
        results.append(result)
        measured += result["wall_s"]

    reference = None
    if results and workload.needs_reference:
        reference = children.run("reference")
    checks = _verify(workload, results, reference)

    per_layer = None
    if trace and results:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{workload.name}-seed{seed}")
        traced = _traced_children(workload, children, stem + ".pstats")
        if traced.get("obs") is not None:
            checks["obs_fingerprint_unchanged"] = (
                traced["obs"]["fingerprint"] == results[0]["fingerprint"]
            )
        per_layer = _per_layer(workload, results, reference, traced, children, checks)
        if traced["profile"] is not None:
            with open(stem + ".layers.json", "w") as handle:
                json.dump(traced["profile"]["layers"], handle, indent=2)

    # A repetition that crashed, timed out or failed its own checks counts all
    # its steps as failed; any other failure (a cross-repetition check, a
    # traced child) fails every step.
    scheduled = results[0]["steps_scheduled"] if results else 1
    attempted = sum(r["steps_scheduled"] for r in results) + crashed * scheduled
    correct = bool(results) and not children.failures and all(checks.values())
    failed = sum(r["steps_scheduled"] for r in results if not r["ok"]) + crashed * scheduled
    if not correct and failed == 0:
        failed = attempted
    first = results[0] if results else {}
    return {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "clock": workload.clock,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "failures": children.failures,
        "reps": len(results),
        "fingerprint": first.get("fingerprint") if workload.clock == "simulated" else None,
        "quality": first.get("quality"),
        "versions": first.get("versions"),
        "end_to_end": _end_to_end(workload, results) if results else {},
        # Uncorrected, per repetition: timed-region wall seconds and the
        # reference-kernel seconds measured before and after it.
        "raw": {
            "wall_s": [r["wall_s"] for r in results],
            "kernel_s": [r["kernel_s"] for r in results],
        },
        "per_layer": per_layer,
    }


def _end_to_end(workload, results: List[dict]) -> Dict[str, dict]:
    """The four end-to-end metrics; host-clock ones in reference seconds."""
    wall_clock = workload.clock == "wall"
    samples = {
        "setup_s": [rep["setup_s"] / host_speed(rep)["setup"] for rep in results],
        "steps_per_s": [rep["steps_completed"] / _reference_wall(rep) for rep in results],
        "epoch_s": [
            rep["epoch_s"] / host_speed(rep)["timed"] if wall_clock else rep["epoch_s"]
            for rep in results
        ],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in results],
    }
    return {name: summarise(samples[name], unit) for name, unit, _better, _bound in END_TO_END}


def _traced_children(workload, children: Children, pstats_path: str) -> Dict[str, Optional[dict]]:
    """The extra children of a traced run: profile, obs, probes, identity."""
    traced = {"profile": children.run("profile", ["--pstats", pstats_path])}
    if workload.obs_run:
        traced["obs"] = children.run("obs")
    traced["probes"] = children.run("probes")
    if workload.identity_probes:
        traced["identity"] = children.run("identity")
    return traced


def _verify(workload, results, reference) -> Dict[str, bool]:
    """The checks that need more than one child (the rest ran inside each child)."""
    checks: Dict[str, bool] = {"repetitions_ran": bool(results)}
    if not results:
        return checks
    checks["all_steps_completed"] = all(
        r["steps_completed"] == r["steps_scheduled"] for r in results
    )
    if workload.clock == "simulated":
        checks["fingerprint_repeats"] = len({r["fingerprint"] for r in results}) == 1
    if workload.needs_reference:
        checks["reference_ran"] = reference is not None
    if reference is None:
        return checks
    first = results[0]
    if workload.jobs > 1:
        checks["fingerprint_equals_jobs1"] = first["fingerprint"] == reference["fingerprint"]
    if workload.backend == "real":
        mismatches = _mirrored_mismatches(first, reference)
        checks["mirrored_counters_equal_sim"] = mismatches == 0
        checks["rmse_matches_sim"] = math.isclose(
            first["quality"]["final"], reference["quality"]["final"], rel_tol=1e-9
        )
    return checks


def _mirrored_mismatches(rep: dict, reference: dict) -> int:
    return sum(
        rep["counters"][name] != reference["counters"][name] for name in MIRRORED_COUNTERS
    )


def _reference_wall(rep: dict) -> float:
    """Wall seconds of a child's timed region, in reference seconds."""
    return rep["wall_s"] / host_speed(rep)["timed"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(workload, results, reference, traced, children, checks) -> Dict[str, dict]:
    """Every per-layer metric of the catalogue; 0 where it does not apply."""
    rep = results[0]
    counters = rep["counters"]
    steps = rep["steps_completed"]
    wall = statistics.median(_reference_wall(r) for r in results)
    child_rss = rep["child_peak_rss_mb"]
    values: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}

    profile = traced.get("profile")
    if profile is not None:
        for layer in LAYERS:
            values[f"{layer}.self_s"] = profile["layers"][layer]["self_s"]
            values[f"{layer}.calls"] = profile["layers"][layer]["calls"]
        values["trace.overhead_ratio"] = _ratio(_reference_wall(profile), wall)
        total = profile["profile_total_s"]
        checks["layers_sum_to_traced_wall"] = abs(total - profile["wall_s"]) <= 0.02 * profile["wall_s"]
        checks["other_layer_small"] = values["other.self_s"] <= OTHER_SHARE_LIMIT * total

    cache_lookups = counters["cache_hits"] + counters["cache_misses"] + counters["cache_stale"]
    values.update({
        "simnet.network.remote_msgs_per_step": _ratio(counters["remote_messages"], steps),
        "simnet.network.bytes_per_step": _ratio(counters["bytes_sent"], steps),
        "simnet.network.coalesced_share": _ratio(counters["coalesced_messages"], counters["messages_sent"]),
        "simnet.network.delivery_events": counters["delivery_events"],
        "ps.base.server_msgs_per_step": _ratio(counters["server_messages"], steps),
        "ps.base.local_read_share": counters["local_read_fraction"],
        "ps.base.queued_ops": counters["queued_ops"],
        "ps.base.forwarded_ops": counters["forwarded_ops"],
        "ps.policy.relocations": counters["relocations"],
        "ps.policy.localize_calls": counters["localize_calls"],
        "ps.policy.cache_hit_share": _ratio(counters["cache_hits"], cache_lookups),
        "ps.policy.relocation_time_p50_s": counters["p50_relocation_time"],
        "cluster.rebalanced_keys": counters["rebalanced_keys"],
        "cluster.rebalance_time_mean_s": counters["mean_rebalance_time"],
        "durability.wal_appends": counters["wal_appends"],
        "durability.wal_bytes": counters["wal_bytes"],
        "durability.checkpoints": counters["checkpoints"],
        "durability.lost_keys": counters["lost_keys"],
        "simnet.parallel.load_skew": rep["engine"]["load_skew"],
        "simnet.parallel.effective_jobs": rep["engine"]["effective_jobs"],
        "simnet.parallel.fallbacks": int(rep["engine"]["fallback_reason"] is not None),
        "backend.leaked_shm_segments": children.leaked_shm,
        "backend.orphan_processes": children.orphans,
        "host.cpu_s": rep["cpu_s"],
        "host.cpu_per_wall": _ratio(rep["cpu_s"], rep["wall_s"]),
        "host.speed_ratio": statistics.median(host_speed(r)["timed"] for r in results),
        "host.raw_steps_per_s": statistics.median(
            r["steps_completed"] / r["wall_s"] for r in results
        ),
    })
    if workload.jobs > 1:
        values["simnet.parallel.child_peak_rss_mb"] = child_rss
        if reference is not None:
            values["simnet.parallel.wall_ratio_vs_jobs1"] = _ratio(wall, _reference_wall(reference))
    if workload.backend == "real":
        values["backend.child_peak_rss_mb"] = child_rss
        if reference is not None:
            values["backend.mirrored_counter_mismatches"] = _mirrored_mismatches(rep, reference)
    obs = traced.get("obs")
    if obs is not None:
        values["obs.on_overhead_ratio"] = _ratio(_reference_wall(obs), wall)
    for extra in ("probes", "identity"):
        if traced.get(extra) is not None:
            values.update(traced[extra]["metrics"])
    return {
        name: {"unit": PER_LAYER_UNITS[name], "value": values[name]}
        for name, _unit, _better in PER_LAYER
    }


# ----------------------------------------------------------------- printing
def _print_workload(result: dict) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(
        f"\n== {result['workload']}  [{status}]  seed {result['seed']}, "
        f"{result['reps']} repetitions, epoch_s clock: {result['clock']}, "
        f"steps attempted {result['attempted']}, failed {result['failed']}"
    )
    for name, entry in result["end_to_end"].items():
        print(
            f"  {name:<14s} {entry['median']:>14.6g} {entry['unit']:<8s}"
            f" q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}"
        )
    for name, passed in result["checks"].items():
        print(f"  check {name:<32s} {'pass' if passed else 'FAIL'}")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    if result["per_layer"]:
        for name, entry in result["per_layer"].items():
            print(f"  {name:<46s} {entry['value']:>14.6g} {entry['unit']}")


# ---------------------------------------------------------------------- CLI
def _driver_main(args) -> int:
    workload = WORKLOAD_BY_NAME[args.workload]
    trace = bool(args.trace)
    result = measure(
        workload,
        args.seed,
        reps=TRACE_BASELINE_REPS if trace else None,
        seconds=args.seconds,
        trace=trace,
        quick=args.quick,
        out_dir=args.out_dir,
    )
    for failure in result["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    for name, passed in result["checks"].items():
        if not passed:
            print(f"check failed: {name}", file=sys.stderr)
    if not result["end_to_end"]:
        return 1
    if trace:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": entry["median"], "unit": entry["unit"]}
            for name, entry in result["end_to_end"].items()
        }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _full_main(args) -> int:
    host = host_info()
    if host["load_above_1"]:
        print(f"warning: 1-minute load average is {host['loadavg_1m']:.2f}; timings will be noisy")
    workloads = {}
    for workload in WORKLOADS:
        result = measure(
            workload, args.seed, reps=args.reps, trace=True, quick=args.quick, out_dir=args.out_dir
        )
        _print_workload(result)
        workloads[workload.name] = result
    versions = next((r["versions"] for r in workloads.values() if r["versions"]), {})
    report = {
        "schema": 1,
        "claim": None,
        "seed": args.seed,
        "quick": args.quick,
        "reps": args.reps,
        "host": {**host, **versions},
        "workloads": workloads,
    }
    out = args.out or os.path.join(args.out_dir, f"results-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    failed = [name for name, result in workloads.items() if not result["correct"]]
    print(f"\nwrote {out}")
    if failed:
        print(f"FAILED verification: {', '.join(failed)}")
        return 1
    print("all workloads verified, zero failed steps")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, full verification")
    parser.add_argument("--out", default=None, help="results JSON of the full run")
    parser.add_argument("--out-dir", default=DEFAULT_OUT_DIR, help="profiles and folded layers")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print(f"error: no program to benchmark: {REPO_ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if args.workload:
        return _driver_main(args)
    return _full_main(args)


if __name__ == "__main__":
    sys.exit(main())
