"""The examples' "fused nothing" guards fire, and only when they should.

``examples/elastic_scaling.py`` and ``examples/crash_recovery.py`` exit
non-zero when a ``lapse`` run fuses no MF block visit, so a change that
silently turns the fused lane off on elastic or durable clusters fails the
examples job.  Withholding the runner (``WorkerClient.fused_local_steps``
returns ``None``, the oracle of ``tests/ml/test_mf_kernel.py``) is exactly
that change; unpatched, both scripts must exit 0.
"""

import os
import runpy
from unittest import mock

import pytest

from repro.ps.base import WorkerClient

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLES = os.path.join(ROOT, "examples")
GUARDED = ("elastic_scaling", "crash_recovery")


def exit_status(name):
    """Run ``examples/<name>.py`` as ``__main__``; 0 unless it exits otherwise."""
    try:
        runpy.run_path(os.path.join(EXAMPLES, f"{name}.py"), run_name="__main__")
    except SystemExit as stop:
        return 0 if stop.code is None else stop.code
    return 0


@pytest.mark.parametrize("name", GUARDED)
def test_example_exits_zero_when_lapse_fuses(name, capsys):
    assert exit_status(name) == 0
    assert " fused" in capsys.readouterr().out


@pytest.mark.parametrize("name", GUARDED)
def test_example_exits_non_zero_without_a_runner(name, capsys):
    with mock.patch.object(WorkerClient, "fused_local_steps", lambda self: None):
        status = exit_status(name)
    assert status != 0
    assert "fused no block visit" in str(status)
