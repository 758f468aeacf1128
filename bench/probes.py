"""Layer probes: direct timed calls into public functions, one layer at a time.

Each probe times a batch of calls shaped like the workload it is attached to
and reports the median over ``BATCHES`` batches.  A probe isolates one layer
from the rest of the program, so a change in a probe without a change in the
workload's ``steps_per_s`` says the layer was not on the blocking path.

The identity probes at the end are not timings: they record whether the
sharded engine (``jobs=2``) reproduces the sequential engine bit for bit on
the KGE task.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from catalog import MF_RANK, PROBES

#: Batches per probe; the reported value is their median.
BATCHES = 30

#: PS value length of the KGE workload (ComplEx, d=4: 2 x (2 d)).
KGE_VALUE_LENGTH = 16


def _median_batch_seconds(batch, batches=BATCHES):
    """Median wall seconds of ``batch()`` over ``batches`` calls (one warm-up)."""
    batch()
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        batch()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probe_kernel(rng, quick):
    from repro.simnet import Simulator

    timeouts = 1000 if quick else 10000

    def batch():
        def chain():
            for _ in range(timeouts):
                yield 1e-6

        Simulator().run_process(chain())

    return {"probe.simnet.kernel.events_per_s": timeouts / _median_batch_seconds(batch)}


def probe_network(rng, quick):
    from repro.simnet import Network, Simulator

    sends = 500 if quick else 5000

    def batch():
        sim = Simulator()
        network = Network(sim)
        network.register("probe", 1)
        received = []
        network.attach_sink("probe", received.append)

        def sender():
            for index in range(sends):
                network.send(0, "probe", index, 64)
                yield 1e-6

        sim.run_process(sender())
        if len(received) != sends:
            raise RuntimeError(f"network probe lost messages: {len(received)}/{sends}")

    return {"probe.simnet.network.sends_per_s": sends / _median_batch_seconds(batch)}


def _storage_probe(suffix, batch_size, value_length, rng, quick):
    from repro.ps.storage import DenseStorage

    num_keys = 4 * batch_size
    rounds = 20 if quick else (400 if batch_size <= 8 else 40)
    store = DenseStorage(num_keys, value_length, initial_keys=range(num_keys))
    keys = [int(key) for key in rng.permutation(num_keys)[:batch_size]]
    updates = rng.normal(size=(batch_size, value_length))

    def gets():
        for _ in range(rounds):
            store.get_many(keys)

    def adds():
        for _ in range(rounds):
            store.add_many(keys, updates)

    rows = rounds * batch_size
    return {
        f"probe.ps.storage.get_many_ns_per_row_{suffix}": _median_batch_seconds(gets) / rows * 1e9,
        f"probe.ps.storage.add_many_ns_per_row_{suffix}": _median_batch_seconds(adds) / rows * 1e9,
    }


def probe_storage_b4(rng, quick):
    return _storage_probe("b4", 4, KGE_VALUE_LENGTH, rng, quick)


def probe_storage_b256(rng, quick):
    return _storage_probe("b256", 256, MF_RANK, rng, quick)


def probe_ps_base(rng, quick):
    """The server-handler data path of ``mf_classic``: one column factor per call."""
    from repro.config import ClusterConfig, ParameterServerConfig
    from repro.experiments.runner import make_parameter_server

    num_keys = 128
    rounds = 50 if quick else 2000
    ps = make_parameter_server(
        "classic",
        ClusterConfig(num_nodes=1, workers_per_node=1),
        ParameterServerConfig(num_keys=num_keys, value_length=MF_RANK),
    )
    state = ps.states[0]
    keys = [[int(key)] for key in rng.integers(0, num_keys, size=rounds)]
    update = rng.normal(size=(1, MF_RANK))

    def reads():
        for key in keys:
            state.read_local_many(key)

    def writes():
        for key in keys:
            state.write_local_many(key, update)

    return {
        "probe.ps.base.read_local_many_ns_per_row": _median_batch_seconds(reads) / rounds * 1e9,
        "probe.ps.base.write_local_many_ns_per_row": _median_batch_seconds(writes) / rounds * 1e9,
    }


def probe_ml(rng, quick):
    """Optimizer steps on the length-8 vectors the KGE task uses."""
    from repro.ml.optim import AdaGradPacking, adagrad_update, sgd_update

    rounds = 100 if quick else 2000
    packing = AdaGradPacking(8)
    packed = np.abs(rng.normal(size=packing.value_length))
    gradient = rng.normal(size=8)

    def sgd():
        for _ in range(rounds):
            sgd_update(gradient, 0.05)

    def adagrad():
        for _ in range(rounds):
            adagrad_update(packing, packed, gradient, 0.1)

    return {
        "probe.ml.sgd_update_ns": _median_batch_seconds(sgd) / rounds * 1e9,
        "probe.ml.adagrad_update_ns": _median_batch_seconds(adagrad) / rounds * 1e9,
    }


def probe_durability(rng, quick):
    """WAL appends of single-row deltas and checkpoints of a 1000-row store."""
    from repro.durability import WAL_DELTA, DeltaWAL, take_checkpoint
    from repro.ps.storage import DenseStorage

    rounds = 100 if quick else 2000
    rows = 1000
    values = rng.normal(size=(1, MF_RANK))
    store = DenseStorage(rows, MF_RANK, initial_keys=range(rows))

    def appends():
        wal = DeltaWAL(node=0)
        for key in range(rounds):
            wal.append(WAL_DELTA, (key,), values)

    def checkpoints():
        for index in range(10):
            take_checkpoint(store, node=0, lsn=index, now=0.0)

    return {
        "probe.durability.wal_append_ns_per_row": _median_batch_seconds(appends) / rounds * 1e9,
        "probe.durability.checkpoint_us_per_krow": _median_batch_seconds(checkpoints)
        / 10 / (rows / 1000.0) * 1e6,
    }


def probe_backend(rng, quick):
    """Shared-memory reads, and remote single-key pulls through the client API."""
    from repro.backend import SharedDenseStorage
    from repro.config import ClusterConfig, ParameterServerConfig
    from repro.experiments.runner import make_parameter_server

    batch_size, rounds = 256, (5 if quick else 40)
    num_keys = 4 * batch_size
    store = SharedDenseStorage(num_keys, MF_RANK, initial_keys=range(num_keys))
    try:
        keys = [int(key) for key in rng.permutation(num_keys)[:batch_size]]

        def gets():
            for _ in range(rounds):
                store.get_many(keys)

        get_ns = _median_batch_seconds(gets) / (rounds * batch_size) * 1e9
    finally:
        store.detach()

    pulls = 100 if quick else 1000
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1)
    ps_config = ParameterServerConfig(num_keys=64, value_length=MF_RANK)
    with make_parameter_server("lapse", cluster, ps_config, backend="real") as ps:
        remote_key = next(key for key in range(64) if ps.home_node(key) == 1)

        def worker(client, worker_id):
            samples = []
            if worker_id == 0:
                for _ in range(pulls + 10):
                    start = time.perf_counter_ns()
                    yield from client.pull([remote_key])
                    samples.append(time.perf_counter_ns() - start)
            yield from client.barrier()
            return samples[10:]

        samples = sorted(ps.run_workers(worker)[0])
    return {
        "probe.backend.shm_get_many_ns_per_row": get_ns,
        "probe.backend.pull_roundtrip_p50_us": samples[len(samples) // 2] / 1e3,
        "probe.backend.pull_roundtrip_p99_us": samples[int(len(samples) * 0.99)] / 1e3,
    }


_PROBE_FUNCTIONS = {
    "simnet.kernel": probe_kernel,
    "simnet.network": probe_network,
    "ps.storage.b4": probe_storage_b4,
    "ps.storage.b256": probe_storage_b256,
    "ps.base": probe_ps_base,
    "ml": probe_ml,
    "durability": probe_durability,
    "backend": probe_backend,
}


def run_probes(seed, quick):
    """Run every probe group; returns ``{"ok", "metrics"}``."""
    metrics = {}
    for group, probe in _PROBE_FUNCTIONS.items():
        values = probe(np.random.default_rng(seed), quick)
        expected = {name for name, _unit, _better in PROBES[group]}
        if set(values) != expected:
            raise RuntimeError(f"probe {group} returned {sorted(values)}")
        metrics.update(values)
    return {"ok": True, "metrics": metrics}


# --------------------------------------------------------- engine identity
#: (system, epochs) cells of the identity probe: default-``KGEScale`` KGE at
#: 4 nodes x 2 workers, ``jobs=1`` against ``jobs=2``.
IDENTITY_CELLS = (("lapse", 1), ("lapse", 2), ("hybrid", 2))


def identity_probes(seed, quick):
    """Count the cells on which ``jobs=2`` is not bit-identical to ``jobs=1``.

    Recorded, not fixed: a mismatch is a breach of the repo's bit-identity
    contract that belongs to a later issue, so it does not fail the run.
    """
    from repro.experiments.runner import KGEScale, run_kge_experiment

    scale = KGEScale(num_entities=100, num_triples=300) if quick else KGEScale()
    mismatches = 0
    details = []
    for system, epochs in IDENTITY_CELLS:
        observed = []
        for jobs in (1, 2):
            result = run_kge_experiment(
                system, num_nodes=4, workers_per_node=2, scale=scale,
                epochs=epochs, seed=seed, jobs=jobs,
            )
            observed.append(
                (
                    [repr(epoch.duration) for epoch in result.epochs],
                    result.remote_messages,
                    result.bytes_sent,
                    sorted(result.metrics.as_dict().items()),
                )
            )
        identical = observed[0] == observed[1]
        mismatches += not identical
        details.append({"system": system, "epochs": epochs, "identical": identical})
    return {
        "ok": True,
        "metrics": {
            "simnet.parallel.identity_checked": len(IDENTITY_CELLS),
            "simnet.parallel.identity_mismatches": mismatches,
        },
        "cells": details,
    }
