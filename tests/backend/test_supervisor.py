"""The supervisor both forked engines run on, and what it buys the shard engine.

A :class:`~repro.backend.supervisor.ProcessGroup` waits on report pipes and
process sentinels together, so every way a child can let the parent down ends
the wait at once with an error naming the child: a traceback, a SIGKILL, an
exit with status 0 before the report, silence until the deadline.  The real
backend's side of that is pinned in ``test_real_protocol.py`` and
``test_lifetime.py``; here are the group itself and the sharded simulator.
"""

import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.backend.supervisor import ProcessGroup
from repro.errors import ParameterServerError
from repro.experiments.runner import make_parameter_server
from repro.ps.base import ClusterConfig, ParameterServerConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process supervision requires the fork start method",
)


@pytest.fixture()
def group():
    group = ProcessGroup(multiprocessing.get_context("fork"), "test engine")
    yield group
    group.close()
    assert multiprocessing.active_children() == []


def _soon():
    return time.monotonic() + 30.0


def _report_twice(report, first, second):
    report(first)
    report(second)


def _sleep(report, seconds):
    time.sleep(seconds)


def test_reports_come_back_in_the_order_asked_for(group):
    slow = group.spawn("slow", lambda report: (time.sleep(0.2), report("slow")))
    fast = group.spawn("fast", lambda report: report("fast"))  # closures: forked, not pickled
    assert group.gather([slow, fast], _soon()) == ["slow", "fast"]
    twice = group.spawn("twice", _report_twice, 1, 2)
    assert group.gather([twice], _soon()) == [1]
    assert group.gather([twice], _soon()) == [2]


def test_failing_child_is_named_with_its_traceback(group):
    child = group.spawn("divider", lambda report: report(1 // 0))
    with pytest.raises(ParameterServerError, match=r"(?s)test engine process divider.*ZeroDivision"):
        group.gather([child], _soon())


@pytest.mark.parametrize(
    "leave, code",
    [
        (lambda: os._exit(0), "0"),
        (sys.exit, "0"),
        (lambda: os._exit(3), "3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9"),
    ],
    ids=("os._exit(0)", "sys.exit()", "os._exit(3)", "SIGKILL"),
)
def test_child_that_exits_owing_a_report_is_noticed_at_once(group, leave, code):
    other = group.spawn("patient", _sleep, 60.0)
    child = group.spawn("leaver", lambda report: leave())
    started = time.monotonic()
    with pytest.raises(ParameterServerError, match=f"leaver exited with code {code} "):
        group.gather([other, child], _soon())
    assert time.monotonic() - started < 5.0


def test_watched_child_must_only_stay_alive(group):
    watched = group.spawn("bystander", _sleep, 0.3)
    child = group.spawn("reporter", lambda report: (time.sleep(0.1), report("done")))
    assert group.gather([child], _soon(), watching=[watched]) == ["done"]
    late = group.spawn("late", _sleep, 60.0)
    with pytest.raises(ParameterServerError, match="bystander exited with code 0"):
        group.gather([late], _soon(), watching=[watched])


def test_one_deadline_for_the_whole_wait(group):
    children = [group.spawn(f"sleeper-{index}", _sleep, 60.0) for index in range(2)]
    started = time.monotonic()
    with pytest.raises(ParameterServerError, match="timed out waiting for sleeper-0, sleeper-1"):
        group.gather(children, time.monotonic() + 0.3)
    assert time.monotonic() - started < 5.0


def test_close_leaves_no_child_behind_and_waits_for_a_finishing_one(group):
    group.spawn("stubborn", _sleep, 60.0)
    finishing = group.spawn("finishing", _sleep, 0.2).process
    started = time.monotonic()
    group.close(grace=0.5)
    assert 0.4 < time.monotonic() - started < 5.0
    assert finishing.exitcode == 0  # left by itself, within the grace
    assert group.children == [] and multiprocessing.active_children() == []


# ------------------------------------------------------- the shard engine
def test_killed_shard_fails_the_epoch_fast_and_clean():
    """Mid-window, the surviving shard sits in a 120 s poll on the dead one's
    pipe and the parent used to poll rank by rank: now the parent sees the
    sentinel, and the survivor an EOF (nobody else holds the dead shard's
    pipe ends open)."""
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=8, value_length=2)
    ps = make_parameter_server("classic", cluster, ps_config, jobs=2)

    def worker(client, worker_id):
        for step in range(200):  # both shards keep exchanging windows
            yield from client.pull([0, 7])
            if worker_id == 1 and step == 20:
                os.kill(os.getpid(), signal.SIGKILL)

    started = time.monotonic()
    with pytest.raises(ParameterServerError, match="parallel engine process sim-shard-1 exited"):
        ps.run_workers(worker)
    assert time.monotonic() - started < 5.0
    assert ps._last_fallback_reason is None  # it was the shard engine that ran
    assert multiprocessing.active_children() == []


def test_surviving_shard_notices_its_dead_peer_by_itself(monkeypatch):
    """Without the parent's help: a shard whose peer is gone fails by itself,
    because no process keeps the peer's pipe ends open."""
    from repro.simnet import parallel

    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=8, value_length=2)
    ps = make_parameter_server("classic", cluster, ps_config, jobs=2)

    def worker(client, worker_id):
        if worker_id == 1:
            os._exit(0)
        for _ in range(200):
            yield from client.pull([0, 7])

    class DeafGroup(ProcessGroup):
        """Hears about a vanished child only when nothing else is to be heard."""

        def gather(self, owing, deadline, watching=()):
            survivor = owing[0]
            return super().gather([survivor], deadline)

    monkeypatch.setattr(parallel, "ProcessGroup", DeafGroup)
    started = time.monotonic()
    gone = "EOFError|ConnectionResetError|BrokenPipeError"  # reading or writing, with or without unread words
    with pytest.raises(ParameterServerError, match=rf"(?s)sim-shard-0 failed.*({gone})"):
        ps.run_workers(worker)
    assert time.monotonic() - started < 5.0
