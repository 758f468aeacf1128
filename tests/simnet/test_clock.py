"""Tests for the time source of each execution backend.

Epoch durations and relocation timestamps reduce to ``end - start`` against
:attr:`ParameterServer.simulated_time`.  On the real backend that is
:attr:`WallClock.now`; these tests pin its monotonicity, its tracking of real
elapsed time and the cross-process comparability of
:meth:`WallClock.absolute`.  On the simulated backend it is
:attr:`repro.simnet.kernel.Simulator.now` (kernel time semantics are tested in
``tests/simnet/test_kernel.py``).
"""

import os
import subprocess
import sys
import time

import repro
from repro.config import ClusterConfig, ParameterServerConfig
from repro.ps import LapsePS
from repro.simnet.clock import WallClock


def test_wallclock_starts_near_zero_and_is_monotonic():
    clock = WallClock()
    first = clock.now
    assert first >= 0.0
    readings = [clock.now for _ in range(100)]
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    assert readings[0] >= first


def test_wallclock_tracks_real_elapsed_time():
    clock = WallClock()
    before = clock.now
    time.sleep(0.02)
    elapsed = clock.now - before
    assert elapsed >= 0.02


def test_wallclock_absolute_is_shared_not_relative():
    """``absolute()`` is the raw monotonic reading: two clocks created at
    different times agree on it even though their relative ``.now`` differ."""
    first = WallClock()
    time.sleep(0.01)
    second = WallClock()
    a, b = first.absolute(), second.absolute()
    assert abs(b - a) < 1.0
    # Relative readings differ by the construction gap; absolute ones do not.
    assert first.now > second.now


def test_wallclock_now_is_absolute_minus_construction_time():
    clock = WallClock()
    # Every reading pair recovers the same construction instant.
    offsets = [clock.absolute() - clock.now for _ in range(20)]
    assert max(offsets) - min(offsets) < 0.05


def test_wallclock_absolute_is_comparable_across_processes():
    """A stamp taken in another process lies between two parent readings, so
    e.g. a relocation's ``removed_at`` can be compared against the receiver."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "from repro.simnet.clock import WallClock; print(repr(WallClock().absolute()))"
    clock = WallClock()
    before = clock.absolute()
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    after = clock.absolute()
    assert child.returncode == 0, child.stderr
    assert before <= float(child.stdout) <= after


# ------------------------------------------------------------ simulated backend
def test_simulated_backend_time_is_the_kernel_clock():
    """On the simulated backend ``simulated_time`` reads ``Simulator.now``:
    it advances exactly by the simulated work of a run, never by host time."""
    ps = LapsePS(
        ClusterConfig(num_nodes=1, workers_per_node=1),
        ParameterServerConfig(num_keys=4, value_length=2),
    )
    assert ps.simulated_time == 0.0

    def worker(client, worker_id):
        yield 0.25
        return None

    ps.run_workers(worker)
    assert ps.simulated_time == ps.sim.now
    assert ps.simulated_time >= 0.25
    before = ps.simulated_time
    time.sleep(0.01)
    assert ps.simulated_time == before
