"""Smoke test for the hot-path profiling helper.

``benchmarks/profile_hotpath.py`` is a developer tool, not part of the
library, so nothing else in the suite would notice if a runner-API change
broke it.  This test runs it end-to-end on one system with a tiny workload
and asserts that it completes and prints a profile table.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCHMARKS = os.path.join(ROOT, "benchmarks")


@pytest.fixture()
def profile_hotpath():
    if BENCHMARKS not in sys.path:
        sys.path.insert(0, BENCHMARKS)
    import profile_hotpath

    return profile_hotpath


def test_profile_hotpath_smoke(profile_hotpath, capsys):
    exit_code = profile_hotpath.main(
        ["--systems", "classic", "--top", "3", "--entries", "200"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    # One profile block for the requested system, with the pstats table header.
    assert "=== classic:" in output
    assert "ncalls" in output
    assert "block-visit kernel: no runner offered" in output


def test_profile_hotpath_reports_the_mf_kernel_share(profile_hotpath, capsys):
    assert profile_hotpath.main(["--systems", "lapse", "--top", "3", "--entries", "200"]) == 0
    output = capsys.readouterr().out
    assert "block-visit kernel: " in output
    assert "(100%; the rest take the event loop), 16 visits, " in output
    assert "entries per level" in output


@pytest.mark.parametrize("task, unit", [("kge", "triples"), ("w2v", "sentences")])
def test_profile_hotpath_other_tasks(profile_hotpath, capsys, task, unit):
    exit_code = profile_hotpath.main(["--task", task, "--systems", "lapse", "--top", "3"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert f"=== lapse: one {task.upper()} epoch" in output
    assert unit in output
    assert "ncalls" in output
