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

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.backend.real import REAL_BACKEND_SYSTEMS, RealParameterServer, RealWorkerClient
    from repro.backend.shm import SharedDenseStorage

__getattr__ = lazy_exports(__name__, {
    "repro.backend.real": ("REAL_BACKEND_SYSTEMS", "RealParameterServer", "RealWorkerClient"),
    "repro.backend.shm": ("SharedDenseStorage",),
})

__all__ = ["REAL_BACKEND_SYSTEMS", "RealParameterServer", "RealWorkerClient", "SharedDenseStorage"]
