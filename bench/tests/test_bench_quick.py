"""The benchmark end to end at tiny scale, and how it fails without a program."""

import json
import os
import shutil
import subprocess
import sys
import time

import catalog

BENCH_DIR = os.path.dirname(os.path.abspath(catalog.__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def test_quick_mode_runs_every_workload_with_full_verification(tmp_path):
    out = tmp_path / "results.json"
    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, RUN, "--seed", "3", "--quick", "--reps", "1",
         "--out", str(out), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=110,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    assert time.monotonic() - start < 60
    report = json.loads(out.read_text())
    assert report["claim"] is None and report["host"]["nproc"] >= 1
    assert list(report["workloads"]) == [w.name for w in catalog.WORKLOADS]
    for name, result in report["workloads"].items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert all(result["checks"].values()), (name, result["checks"])
        assert set(result["end_to_end"]) == {m[0] for m in catalog.END_TO_END}
        assert all(entry["median"] > 0 for entry in result["end_to_end"].values()), name
        assert list(result["per_layer"]) == [m[0] for m in catalog.PER_LAYER]
        assert f"{name} " in completed.stdout
    # Every metric is printed by name with its unit.
    for metric, unit, _better in catalog.PER_LAYER:
        assert metric in completed.stdout
    jobs2 = report["workloads"]["mf_classic_jobs2"]
    assert jobs2["checks"]["fingerprint_equals_jobs1"]
    assert jobs2["per_layer"]["simnet.parallel.effective_jobs"]["value"] == 2
    assert jobs2["per_layer"]["simnet.parallel.identity_checked"]["value"] == 3
    real = report["workloads"]["mf_lapse_real"]
    assert real["checks"]["mirrored_counters_equal_sim"] and real["checks"]["rmse_matches_sim"]
    assert real["per_layer"]["backend.orphan_processes"]["value"] == 0
    assert real["per_layer"]["backend.leaked_shm_segments"]["value"] == 0
    churn = report["workloads"]["mf_lapse_churn"]["per_layer"]
    assert churn["durability.wal_appends"]["value"] > 0
    assert churn["cluster.rebalanced_keys"]["value"] > 0


def test_driver_mode_prints_one_json_object_last(tmp_path):
    for trace, names in ((0, [m[0] for m in catalog.END_TO_END]), (1, [m[0] for m in catalog.PER_LAYER])):
        completed = subprocess.run(
            [sys.executable, RUN, "--workload", "mf_lapse", "--seed", "5", "--seconds", "0.2",
             "--trace", str(trace), "--quick", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=110, cwd=str(tmp_path),
        )
        assert completed.returncode == 0, completed.stderr[-3000:]
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names
        assert all(set(value) == {"value", "unit"} for value in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mf_classic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=110, cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
