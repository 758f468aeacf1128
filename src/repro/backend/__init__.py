"""Real (multiprocessing + shared-memory) execution backend.

The parameter-server runtime and its management policies (:mod:`repro.ps`)
normally run on the discrete-event simulator.  This package runs the *same*
runtime — classic PS variants and Lapse — on real operating-system processes
with parameter shards in shared memory, behind the same client API.  See
:mod:`repro.backend.real` for the execution model and
:mod:`repro.backend.shm` for the shared-memory store.
"""

from repro.backend.real import (
    REAL_BACKEND_SYSTEMS,
    RealParameterServer,
    RealWorkerClient,
)
from repro.backend.shm import SharedDenseStorage

__all__ = [
    "REAL_BACKEND_SYSTEMS",
    "RealParameterServer",
    "RealWorkerClient",
    "SharedDenseStorage",
]
