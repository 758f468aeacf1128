"""Hygiene of the process-based engines, checked after every test here."""

import gc
import multiprocessing
import os
from multiprocessing.shared_memory import SharedMemory

import pytest


@pytest.fixture(autouse=True)
def _no_process_or_shared_memory_left_behind(monkeypatch):
    """Whatever a test did — a failed run, a dropped server, a killed child —
    no child process and no ``/dev/shm`` entry it created may survive it
    (by name, so that tests running in other processes do not count)."""
    created = []
    create = SharedMemory.__init__

    def recording_create(self, *args, **kwargs):
        create(self, *args, **kwargs)
        created.append(self.name)

    monkeypatch.setattr(SharedMemory, "__init__", recording_create)
    yield
    gc.collect()  # dropping the last reference is a way to shut down
    assert multiprocessing.active_children() == []
    assert [name for name in created if os.path.exists(f"/dev/shm/{name}")] == []
