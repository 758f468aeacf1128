"""Run one child process per repetition and clean up after it.

Every child gets a session (and so a process group) of its own.  A child that
exceeds its timeout — a hung pipe barrier, a dead shard — has its whole group
killed and is reported as failed instead of stalling the benchmark.  After
every child the harness counts what it left behind: processes still in its
group and new ``/dev/shm`` segments.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SHM_DIR = "/dev/shm"

#: Seconds a finished child's helpers (multiprocessing's resource tracker)
#: get to exit on their own before they count as orphans.
GROUP_EXIT_GRACE_S = 3.0


def _shm_segments() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _group_members(pgid: int) -> List[int]:
    """PIDs of live processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, pgrp, ...
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _wait_group_gone(pgid: int, grace: float) -> List[int]:
    deadline = time.monotonic() + grace
    members = _group_members(pgid)
    while members and time.monotonic() < deadline:
        time.sleep(0.02)
        members = _group_members(pgid)
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(child_args: List[str], timeout: float) -> Dict[str, object]:
    """Run ``python bench/rep.py <child_args>``; never raises on child failure.

    Returns ``{"result": <the child's JSON or None>, "error": <str or None>,
    "orphan_processes": int, "leaked_shm_segments": int}``.
    """
    shm_before = _shm_segments()
    process = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "rep.py"), *child_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    error: Optional[str] = None
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(process.pid)
        stdout, stderr = process.communicate()
        error = f"timed out after {timeout:.0f}s"
    survivors = _wait_group_gone(process.pid, GROUP_EXIT_GRACE_S)
    orphans = 0 if error else len(survivors)
    if survivors:
        _kill_group(process.pid)
        _wait_group_gone(process.pid, GROUP_EXIT_GRACE_S)
    result = None
    if error is None and process.returncode != 0:
        error = f"exit code {process.returncode}: {stderr.strip()[-2000:]}"
    if error is None:
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = f"no JSON result on stdout: {stdout[-500:]!r}"
    return {
        "result": result,
        "error": error,
        "orphan_processes": orphans,
        "leaked_shm_segments": len(_shm_segments() - shm_before),
    }


def host_info() -> Dict[str, object]:
    """What the numbers were measured on; a busy host is flagged, not refused."""
    load = os.getloadavg()[0]
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": load,
        "load_above_1": load > 1.0,
    }
