"""``run.py compare`` on synthetic result sets."""

import copy
import json

import compare
import run


def entry(values, unit="s"):
    return run.summarise(values, unit)


def report(seed=0, steps=(1000.0, 1010.0, 990.0), epoch=(0.5, 0.5, 0.5), failed=0, clock="simulated"):
    workload = {
        "clock": clock,
        "attempted": 3000,
        "failed": failed,
        "fingerprint": "abc" if clock == "simulated" else None,
        "end_to_end": {
            "setup_s": entry([0.20, 0.21, 0.19]),
            "steps_per_s": entry(list(steps), "steps/s"),
            "epoch_s": entry(list(epoch)),
            "peak_rss_mb": entry([50.0, 50.5, 49.5], "MB"),
        },
        "per_layer": {"ps.policy.relocations": {"unit": "count", "value": 12}},
    }
    return {"seed": seed, "quick": False, "workloads": {"w": workload}}


def verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_identical_reports_pass():
    rows, problems = compare.compare_reports(report(), report())
    assert problems == []
    assert verdicts(rows) == {
        "setup_s": "same", "steps_per_s": "same", "epoch_s": "identical", "peak_rss_mb": "same",
    }


def test_a_slowdown_beyond_the_bound_fails_and_a_speedup_does_not():
    slow = report(steps=(700.0, 710.0, 690.0))
    rows, problems = compare.compare_reports(report(), slow)
    assert verdicts(rows)["steps_per_s"] == "WORSE"
    assert any("steps_per_s" in problem for problem in problems)
    fast = report(steps=(2000.0, 2010.0, 1990.0))
    rows, problems = compare.compare_reports(report(), fast)
    assert verdicts(rows)["steps_per_s"] == "improved" and problems == []


def test_simulated_epoch_time_must_not_differ_at_all():
    changed = report(epoch=(0.5, 0.5, 0.5000000001))
    rows, problems = compare.compare_reports(report(), changed)
    assert verdicts(rows)["epoch_s"] == "DIFFERS"
    assert any("epoch_s" in problem for problem in problems)


def test_exactness_applies_only_to_the_same_seed_and_the_simulated_clock():
    other_seed = report(seed=1, epoch=(0.51, 0.51, 0.51))
    other_seed["workloads"]["w"]["fingerprint"] = "def"
    rows, problems = compare.compare_reports(report(), other_seed)
    assert verdicts(rows)["epoch_s"] == "same" and problems == []
    wall = report(clock="wall", epoch=(0.5, 0.52, 0.51))
    rows, problems = compare.compare_reports(report(clock="wall"), wall)
    assert verdicts(rows)["epoch_s"] == "same" and problems == []


def test_fingerprint_and_exact_counters_are_gated():
    changed = report()
    changed["workloads"]["w"]["fingerprint"] = "xyz"
    changed["workloads"]["w"]["per_layer"]["ps.policy.relocations"]["value"] = 13
    _rows, problems = compare.compare_reports(report(), changed)
    assert any("fingerprint" in problem for problem in problems)
    assert any("ps.policy.relocations" in problem for problem in problems)


def test_a_noisy_parent_is_unresolved_not_unchanged():
    noisy = report(steps=(1000.0, 1300.0, 700.0))
    rows, problems = compare.compare_reports(noisy, report())
    assert verdicts(rows)["steps_per_s"] == "unresolved" and problems == []


def test_failed_steps_and_missing_workloads_fail():
    _rows, problems = compare.compare_reports(report(), report(failed=30))
    assert any("failed-step share rose" in problem for problem in problems)
    missing = copy.deepcopy(report())
    missing["workloads"] = {}
    _rows, problems = compare.compare_reports(report(), missing)
    assert any("missing" in problem for problem in problems)


def test_cli_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report()))
    b.write_text(json.dumps(report(steps=(500.0, 510.0, 490.0))))
    assert run.main(["compare", str(a), str(a)]) == 0
    assert run.main(["compare", str(a), str(b)]) == 1
    assert "WORSE" in capsys.readouterr().out
