"""Real (multiprocessing + shared-memory) execution backend.

The parameter-server runtime and its management policies (:mod:`repro.ps`)
normally run on the discrete-event simulator.  This package runs the *same*
runtime — classic PS variants and Lapse — on real operating-system processes
with parameter shards in shared memory, behind the same client API.  See
:mod:`repro.backend.real` for the execution model,
:mod:`repro.backend.shm` for the shared-memory store and
:mod:`repro.backend.supervisor` for the process supervision it shares with
the sharded simulator — which imports only that, so the names below load
their modules on first use.
"""

import importlib

_HOME = {
    "REAL_BACKEND_SYSTEMS": "repro.backend.real",
    "RealParameterServer": "repro.backend.real",
    "RealWorkerClient": "repro.backend.real",
    "SharedDenseStorage": "repro.backend.shm",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_HOME[name]), name)
