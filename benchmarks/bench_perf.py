"""Wall-clock performance harness for the simulator's hot paths.

Unlike the figure/table benchmarks (which regenerate the paper's *simulated*
results), this suite measures how fast the simulator itself runs on the host,
so that speedups and regressions of the Python data path are visible over
time.  It records:

* **storage microbenchmarks** — batched ``get_many`` / ``add_many`` /
  ``set_many`` on :class:`DenseStorage` and :class:`SparseStorage` against a
  per-key baseline that mirrors the pre-batch implementation (single-key ops,
  ``vstack`` gather, reallocation-per-update sparse adds),
* **server data-path microbenchmarks** — ``NodeState.read_local_many`` /
  ``write_local_many`` (the code every server handler runs) against the
  per-key read/write loop they replaced,
* **kernel event throughput** — events processed per wall-clock second by the
  discrete-event kernel,
* **engine comparison** — end-to-end MF (``classic``, ``lapse``) and W2V
  (``lapse``) wall-clock with the engine fast paths (immediate-dispatch ring,
  event pool, van/server sinks, message coalescing, fused worker steps)
  against the reference engine (``REPRO_DISABLE_FASTPATH=1``), interleaved in
  one process so machine noise cancels; the MF speedups are *asserted*, not
  hoped for, the W2V one is reported,
* **end-to-end workloads** — wall-clock seconds and steps per second for the
  paper's MF / KGE / W2V tasks across the classic, Lapse, stale, and replica
  parameter servers,
* **tracing overhead** — bit-identity of traced vs untraced runs (asserted)
  and the wall-clock cost of the dormant tracing hooks
  (see the "Observability" section of docs/architecture.md).

``BENCH_PERF.json`` at the repository root keeps a **run history** (schema 2):
each invocation appends a run entry instead of overwriting, so the perf
trajectory is tracked in-repo.  ``--compare <old.json>`` compares the end-to-
end results of this run against the latest entry of another report and exits
nonzero on a >20% steps-per-second regression (used by CI against the
committed file).

Every run also asserts **parity**: the batch path must produce bit-identical
results to the per-key path, and the engine fast paths must leave simulated
results bit-identical to the reference engine (this is the correctness guard
CI runs via ``--smoke``; absolute timings are recorded, never asserted,
because CI machines are noisy — only same-run *ratios* are asserted).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full run
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke    # CI-sized run
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke --compare BENCH_PERF.json
"""

import json
import multiprocessing
import os
import platform
import sys
import time

import numpy as np

from benchmark_utils import REPO_ROOT, make_arg_parser

from repro.config import ClusterConfig, ParameterServerConfig
from repro.experiments.runner import (
    KGEScale,
    MFScale,
    W2VScale,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)
from repro.ps.classic import ClassicSharedMemoryPS
from repro.ps.storage import DenseStorage, SparseStorage
from repro.simnet import Simulator

DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_PERF.json")

#: Current report schema: {"schema": 2, "runs": [run entries, oldest first]}.
SCHEMA = 2

#: Run-history entries kept in BENCH_PERF.json.
HISTORY_LIMIT = 20

#: Steps-per-second regression tolerated by ``--compare`` (machine noise).
REGRESSION_TOLERANCE = 0.20

#: Same-run floors asserted for the engine fast paths on end-to-end MF.
#: The reference engine shares the optimized message path (only the
#: semantically delicate transforms are toggled), so these are conservative
#: lower bounds on what the toggled transforms alone must deliver.  The
#: ``lapse`` floor sits between the per-entry fused lane (3.1-3.4x at
#: ``--smoke`` scale) and the block-visit kernel (4.9-5.1x), so the gate
#: fails if MF visits silently stop taking the kernel.
ENGINE_SPEEDUP_FLOORS = {"classic": 1.1, "lapse": 4.2}

#: W2V cell of the engine comparison (identity asserted, speed-up reported):
#: skip-gram on ``lapse``, where the fast engine runs all-resident pairs as
#: verified fused steps.
ENGINE_W2V_SCALE = W2VScale(vocabulary_size=200, num_sentences=30)


def _best_of(fn, repeats):
    """Run ``fn`` ``repeats`` times and return (best_seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


# --------------------------------------------------------------------- parity
class ParityError(AssertionError):
    """Raised when the batch path diverges from the per-key path."""


def _require(condition, message):
    if not condition:
        raise ParityError(message)


def check_storage_parity(num_keys=64, value_length=8, seed=0):
    """Assert that batch ops match sequences of single-key ops bit-for-bit."""
    rng = np.random.default_rng(seed)
    for dense in (True, False):
        make = DenseStorage if dense else SparseStorage
        batch_store = make(num_keys, value_length)
        single_store = make(num_keys, value_length)
        keys = list(range(0, num_keys, 2))
        values = rng.normal(size=(len(keys), value_length))
        batch_store.insert_many(keys, values)
        for index, key in enumerate(keys):
            single_store.insert(key, values[index])
        # Duplicate keys in one add batch must accumulate.
        add_keys = keys + keys[: len(keys) // 2]
        updates = rng.normal(size=(len(add_keys), value_length))
        batch_store.add_many(add_keys, updates)
        for index, key in enumerate(add_keys):
            single_store.add(key, updates[index])
        gathered = batch_store.get_many(keys)
        for index, key in enumerate(keys):
            _require(
                np.array_equal(gathered[index], single_store.get(key)),
                f"{make.__name__}: get_many/add_many diverges at key {key}",
            )
        # set_many must overwrite exactly like per-key set.
        new_values = rng.normal(size=(len(keys), value_length))
        batch_store.set_many(keys, new_values)
        for index, key in enumerate(keys):
            single_store.set(key, new_values[index])
            _require(
                np.array_equal(batch_store.get(key), single_store.get(key)),
                f"{make.__name__}: set_many diverges at key {key}",
            )
        removed = batch_store.remove_many(keys)
        for index, key in enumerate(keys):
            _require(
                np.array_equal(removed[index], single_store.remove(key)),
                f"{make.__name__}: remove_many diverges at key {key}",
            )
        _require(len(batch_store) == 0, f"{make.__name__}: remove_many left keys")


#: Systems covered by the determinism guard: the four pre-existing systems
#: (which must produce bit-identical simulated results through the
#: management-policy runtime) plus the hybrid composition.
DETERMINISM_SYSTEMS = ("classic", "lapse", "stale_ssp", "replica", "hybrid")


def check_end_to_end_determinism():
    """Assert that two identical runs produce identical simulated results.

    Runs every system of :data:`DETERMINISM_SYSTEMS` twice and requires the
    simulated epoch time, message count, and byte count to match exactly —
    the guard that the generic server runtime and the management policies
    stay bit-deterministic.
    """
    for system in DETERMINISM_SYSTEMS:
        first = run_mf_experiment(system, num_nodes=2, workers_per_node=2, epochs=1)
        second = run_mf_experiment(system, num_nodes=2, workers_per_node=2, epochs=1)
        _require(
            first.epoch_duration == second.epoch_duration
            and first.remote_messages == second.remote_messages
            and first.bytes_sent == second.bytes_sent,
            f"end-to-end run of {system!r} is not deterministic",
        )


def _run_reference_engine(fn):
    """Run ``fn`` with the engine fast paths disabled (reference engine).

    ``REPRO_DISABLE_FASTPATH`` is read at :class:`Simulator` construction
    time, so toggling the environment variable around the run is enough.
    """
    previous = os.environ.get("REPRO_DISABLE_FASTPATH")
    os.environ["REPRO_DISABLE_FASTPATH"] = "1"
    try:
        return fn()
    finally:
        if previous is None:
            del os.environ["REPRO_DISABLE_FASTPATH"]
        else:
            os.environ["REPRO_DISABLE_FASTPATH"] = previous


def _engine_cells(scale):
    """``name -> (run, steps)``: the workloads both engines are run on."""
    cells = {}
    for system in DETERMINISM_SYSTEMS:
        cells[system] = (
            lambda s=system: run_mf_experiment(
                s, num_nodes=2, workers_per_node=2, scale=scale, epochs=1
            ),
            scale.num_entries,
        )
    cells["w2v_lapse"] = (
        lambda: run_w2v_experiment(
            "lapse", num_nodes=2, workers_per_node=2, scale=ENGINE_W2V_SCALE,
            epochs=1, compute_error=False,
        ),
        ENGINE_W2V_SCALE.num_sentences,
    )
    return cells


def check_engine_bit_identity(scale):
    """Assert fast-path runs are bit-identical to the reference engine."""
    for name, (run_cell, _) in _engine_cells(scale).items():
        def run(run_cell=run_cell):
            result = run_cell()
            return (
                result.epoch_duration, result.remote_messages, result.bytes_sent,
                result.metrics.as_dict(),
            )
        fast = run()
        reference = _run_reference_engine(run)
        _require(
            fast == reference,
            f"{name!r}: engine fast paths diverge from the reference engine "
            f"(fast={fast}, reference={reference})",
        )


# ------------------------------------------------------------ engine speedup
def bench_engine(scale, repeats):
    """End-to-end runs under the fast vs reference engine, interleaved.

    Interleaving the two engines inside one process makes the ratio robust
    to machine-wide speed fluctuations, which absolute steps/s numbers are
    not.  Asserts :data:`ENGINE_SPEEDUP_FLOORS`; a cell without a floor
    (W2V) is reported only.
    """
    report = {}
    cells = _engine_cells(scale)
    for name in ("classic", "lapse", "w2v_lapse"):
        run, steps = cells[name]
        fast_best = float("inf")
        reference_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            fast_best = min(fast_best, time.perf_counter() - start)
            start = time.perf_counter()
            _run_reference_engine(run)
            reference_best = min(reference_best, time.perf_counter() - start)
        speedup = reference_best / fast_best
        report[name] = {
            "fast_steps_per_s": steps / fast_best,
            "reference_steps_per_s": steps / reference_best,
            "speedup": speedup,
        }
        floor = ENGINE_SPEEDUP_FLOORS.get(name)
        print(
            f"  engine/{name}: fast {steps / fast_best:10,.0f} steps/s, "
            f"reference {steps / reference_best:10,.0f} steps/s, "
            f"speedup {speedup:.2f}x "
            + (f"(floor {floor}x)" if floor is not None else "(reported, no floor)")
        )
        _require(
            floor is None or speedup >= floor,
            f"engine fast paths deliver only {speedup:.2f}x on {name} "
            f"(floor {floor}x)",
        )
    return report


# --------------------------------------------------------- storage microbench
def _per_key_get(store, keys):
    # Mirrors the pre-batch server path: one copy per key, then a vstack.
    return np.vstack([store.get(key) for key in keys])


def _per_key_add(store, keys, updates):
    for index, key in enumerate(keys):
        store.add(key, updates[index])


def _per_key_add_realloc(values, keys, updates):
    # Mirrors the seed SparseStorage.add: dict of rows, a new array per update.
    for index, key in enumerate(keys):
        values[key] = values[key] + updates[index]


def _per_key_set(store, keys, values):
    for index, key in enumerate(keys):
        store.set(key, values[index])


def bench_storage(batch_size, value_length, repeats, rounds=8):
    """Batch vs per-key wall-clock on both store kinds; returns a report dict."""
    rng = np.random.default_rng(1)
    report = {"batch_size": batch_size, "value_length": value_length, "rounds": rounds}
    num_keys = batch_size * 2
    for dense in (True, False):
        make = DenseStorage if dense else SparseStorage
        store = make(num_keys, value_length, initial_keys=range(num_keys))
        keys = list(rng.permutation(num_keys)[:batch_size])
        updates = rng.normal(size=(batch_size, value_length))
        # Seed-style dict-of-rows baseline for the sparse realloc-per-add path.
        dict_rows = {key: np.zeros(value_length) for key in range(num_keys)}

        def run_batch_get():
            for _ in range(rounds):
                out = store.get_many(keys)
            return out

        def run_per_key_get():
            for _ in range(rounds):
                out = _per_key_get(store, keys)
            return out

        def run_batch_add():
            for _ in range(rounds):
                store.add_many(keys, updates)

        def run_per_key_add():
            for _ in range(rounds):
                if dense:
                    _per_key_add(store, keys, updates)
                else:
                    _per_key_add_realloc(dict_rows, keys, updates)

        def run_batch_set():
            for _ in range(rounds):
                store.set_many(keys, updates)

        def run_per_key_set():
            for _ in range(rounds):
                _per_key_set(store, keys, updates)

        batch_get_s, batch_out = _best_of(run_batch_get, repeats)
        per_key_get_s, per_key_out = _best_of(run_per_key_get, repeats)
        _require(
            np.array_equal(batch_out, per_key_out),
            f"{make.__name__}: get_many != per-key gets",
        )
        batch_add_s, _ = _best_of(run_batch_add, repeats)
        per_key_add_s, _ = _best_of(run_per_key_add, repeats)
        batch_set_s, _ = _best_of(run_batch_set, repeats)
        per_key_set_s, _ = _best_of(run_per_key_set, repeats)
        report["dense" if dense else "sparse"] = {
            "get": _entry(per_key_get_s, batch_get_s, rounds),
            "add": _entry(per_key_add_s, batch_add_s, rounds),
            "set": _entry(per_key_set_s, batch_set_s, rounds),
        }
        if not dense:
            # add_many vs a per-key loop over the *current* slab store (the
            # realloc baseline above mirrors the seed implementation instead).
            # The duplicate-free batch resolves all slots with one gather off
            # the _slot_of mirror and lands one fancy +=.
            def run_store_per_key_add():
                for _ in range(rounds):
                    _per_key_add(store, keys, updates)

            store_per_key_add_s, _ = _best_of(run_store_per_key_add, repeats)
            report["sparse"]["add_vs_per_key_store"] = _entry(
                store_per_key_add_s, batch_add_s, rounds
            )
    # The slab-backed sparse store must beat the seed's realloc-per-update
    # add by a clear margin (this was the weakest batch path of the suite).
    # Committed runs measure 2.6-2.9x; the asserted floor leaves headroom for
    # noisy CI runners while still catching a real regression to the old
    # ~1.3x per-row path.
    _require(
        report["sparse"]["add"]["speedup"] >= 2.0,
        f"sparse add_many speedup {report['sparse']['add']['speedup']:.2f}x "
        "is below the 2.0x floor",
    )
    # Against per-key adds on the same slab store, the vectorized slot
    # resolution (dense _slot_of mirror) plus the duplicate-free fancy +=
    # must clear 1.8x (the dict-walk resolver managed only ~1.3x).
    per_key_store = report["sparse"]["add_vs_per_key_store"]["speedup"]
    _require(
        per_key_store >= 1.8,
        f"sparse add_many speedup over per-key store adds is "
        f"{per_key_store:.2f}x, below the 1.8x floor",
    )
    return report


def _entry(per_key_s, batch_s, rounds):
    return {
        "per_key_us": per_key_s / rounds * 1e6,
        "batch_us": batch_s / rounds * 1e6,
        "speedup": per_key_s / batch_s if batch_s > 0 else float("inf"),
    }


# ---------------------------------------------------------- server microbench
def bench_server(batch_size, value_length, repeats, rounds=8):
    """The server-handler data path: read_local_many / write_local_many."""
    rng = np.random.default_rng(2)
    num_keys = batch_size * 2
    cluster = ClusterConfig(num_nodes=1, workers_per_node=1)
    ps = ClassicSharedMemoryPS(
        cluster, ParameterServerConfig(num_keys=num_keys, value_length=value_length)
    )
    state = ps.states[0]
    keys = list(rng.permutation(num_keys)[:batch_size])
    updates = rng.normal(size=(batch_size, value_length))

    def per_key_read():
        # The seed server pull handler: latch + copy per key, then vstack.
        for _ in range(rounds):
            out = np.vstack([state.read_local(key) for key in keys])
        return out

    def batch_read():
        for _ in range(rounds):
            out = state.read_local_many(keys)
        return out

    def per_key_write():
        for _ in range(rounds):
            for index, key in enumerate(keys):
                state.write_local(key, updates[index])

    def batch_write():
        for _ in range(rounds):
            state.write_local_many(keys, updates)

    batch_read_s, batch_out = _best_of(batch_read, repeats)
    per_key_read_s, per_key_out = _best_of(per_key_read, repeats)
    _require(
        np.array_equal(batch_out, per_key_out),
        "server read_local_many != per-key read_local",
    )
    batch_write_s, _ = _best_of(batch_write, repeats)
    per_key_write_s, _ = _best_of(per_key_write, repeats)
    return {
        "batch_size": batch_size,
        "value_length": value_length,
        "rounds": rounds,
        "read": _entry(per_key_read_s, batch_read_s, rounds),
        "write": _entry(per_key_write_s, batch_write_s, rounds),
    }


# ------------------------------------------------------------ kernel throughput
def bench_kernel(num_yields, repeats):
    """Events processed per wall-clock second by the discrete-event kernel."""

    def run():
        sim = Simulator()

        def chain():
            for _ in range(num_yields):
                yield 1e-6
            return None

        sim.run_process(chain())
        return sim._sequence  # total events enqueued (timeouts + resumptions)

    seconds, events = _best_of(run, repeats)
    return {
        "yields": num_yields,
        "events": events,
        "seconds": seconds,
        "events_per_second": events / seconds if seconds > 0 else float("inf"),
    }


# ------------------------------------------------------------------ end to end
def bench_end_to_end(smoke, repeats, seed=0, backend="sim", jobs=1):
    """Wall-clock per epoch for the paper workloads across PS variants.

    ``backend="real"`` runs on actual worker processes instead of the
    simulator; only matrix factorization on the real-backend systems is
    measured there (the KGE/W2V tasks and the stale/replica/hybrid policies
    are simulator-only).  ``jobs`` forks the simulator across that many
    shard processes (simulated backend only) — results stay bit-identical,
    so throughput rows remain comparable across job counts.
    """
    if smoke:
        mf_scale = MFScale(num_rows=64, num_cols=32, num_entries=2000)
        kge_scale = KGEScale(num_entities=100, num_triples=300)
        w2v_scale = W2VScale(vocabulary_size=200, num_sentences=30)
        epochs = 1
    else:
        mf_scale = MFScale()
        kge_scale = KGEScale()
        w2v_scale = W2VScale()
        epochs = 2
    runs = []
    if backend == "real":
        mf_systems = ("classic", "classic_fast_local", "lapse")
        jobs = 1  # the real backend has no simulator to shard
    else:
        mf_systems = ("classic", "lapse", "stale_ssp", "replica", "hybrid")
    for system in mf_systems:
        runs.append(("matrix_factorization", system, mf_scale.num_entries, lambda s=system: run_mf_experiment(
            s, num_nodes=2, workers_per_node=2, scale=mf_scale, epochs=epochs, seed=seed, backend=backend, jobs=jobs)))
    if backend == "sim":
        for system in ("classic", "lapse", "replica", "hybrid"):
            runs.append(("kge_complex", system, kge_scale.num_triples, lambda s=system: run_kge_experiment(
                s, num_nodes=2, workers_per_node=2, scale=kge_scale, epochs=epochs, seed=seed, jobs=jobs)))
        for system in ("classic", "lapse", "stale_ssp", "replica", "hybrid"):
            runs.append(("word2vec", system, w2v_scale.num_sentences, lambda s=system: run_w2v_experiment(
                s, num_nodes=2, workers_per_node=2, scale=w2v_scale, epochs=epochs, seed=seed, jobs=jobs)))
    results = []
    for task, system, steps_per_epoch, fn in runs:
        seconds, result = _best_of(fn, repeats)
        results.append(
            {
                "task": task,
                "system": system,
                "backend": backend,
                "jobs": jobs,
                "num_nodes": 2,
                "workers_per_node": 2,
                "epochs": epochs,
                "steps_per_epoch": steps_per_epoch,
                "wall_seconds": seconds,
                "steps_per_wall_second": steps_per_epoch * epochs / seconds,
                "simulated_epoch_seconds": result.epoch_duration,
                "remote_messages": result.remote_messages,
            }
        )
        print(
            f"  {task:>22s} / {system:<10s} "
            f"{seconds:7.3f}s wall, {steps_per_epoch * epochs / seconds:9.0f} steps/s, "
            f"sim epoch {result.epoch_duration * 1e3:7.3f} ms"
        )
    return results


# ------------------------------------------------------- real-backend scaling
#: Wall-clock speedup 1 -> 4 worker processes asserted for the real backend.
REAL_SCALING_FLOOR = 2.0

#: Host cores needed before the scaling assertion is meaningful.
REAL_SCALING_MIN_CORES = 4


def bench_real_backend(smoke, seed=0):
    """Wall-clock scaling of the real (multiprocessing) backend, 1 -> 4 nodes.

    Runs MF end-to-end on classic and lapse with 1 and 4 single-worker nodes;
    per-entry compute is realized as actual busy-wait CPU time, so with >= 4
    host cores four worker processes must finish the epoch at least
    ``REAL_SCALING_FLOOR`` times faster than one.  On smaller hosts (or
    without the fork start method) the section reports itself skipped instead
    of asserting — the scaling claim needs real parallelism to test.
    """
    cores = os.cpu_count() or 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return {"skipped": "fork start method unavailable", "cores": cores}
    if cores < REAL_SCALING_MIN_CORES:
        return {
            "skipped": f"needs >= {REAL_SCALING_MIN_CORES} cores, host has {cores}",
            "cores": cores,
        }
    entries = 2000 if smoke else 6000
    # Compute-heavy relative to messaging, so scaling reflects the cores.
    scale = MFScale(
        num_rows=256, num_cols=64, num_entries=entries,
        rank=8, compute_time_per_entry=300e-6,
    )
    report = {"cores": cores, "entries": entries, "floor": REAL_SCALING_FLOOR}
    for system in ("classic", "lapse"):
        times = {}
        for num_nodes in (1, 4):
            result = run_mf_experiment(
                system,
                num_nodes=num_nodes,
                workers_per_node=1,
                scale=scale,
                epochs=1,
                compute_loss=False,
                seed=seed,
                backend="real",
            )
            times[num_nodes] = result.epoch_duration
        speedup = times[1] / times[4]
        report[system] = {
            "epoch_1proc_s": times[1],
            "epoch_4proc_s": times[4],
            "speedup": speedup,
        }
        print(
            f"  real/{system:<10s} 1 proc {times[1]:6.3f}s -> 4 procs "
            f"{times[4]:6.3f}s ({speedup:.2f}x)"
        )
        _require(
            speedup >= REAL_SCALING_FLOOR,
            f"real-backend {system} MF speedup 1->4 processes is "
            f"{speedup:.2f}x, below the {REAL_SCALING_FLOOR}x floor",
        )
    return report



# ------------------------------------------------------ parallel-engine scaling
#: Wall-clock speedup 1 -> 4 shard processes asserted for the parallel engine.
PARALLEL_SCALING_FLOOR = 2.0

#: Host cores needed before the shard-scaling assertion is meaningful.
PARALLEL_SCALING_MIN_CORES = 4


def bench_parallel_engine(smoke, seed=0):
    """Wall-clock scaling of the parallel simulation engine, 1 -> 4 shards.

    Runs the same multi-node MF workload through the sequential kernel
    (``jobs=1``) and through four shard processes (``jobs=4``).  The results
    are bit-identical by construction (asserted here on the simulated epoch
    fingerprint); the claim under test is that the *simulation itself* gets
    at least ``PARALLEL_SCALING_FLOOR`` times faster.  On hosts with fewer
    than ``PARALLEL_SCALING_MIN_CORES`` cores (or without the fork start
    method) the section reports itself skipped instead of asserting — shard
    processes cannot beat the sequential kernel without real parallelism.
    """
    cores = os.cpu_count() or 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return {"skipped": "fork start method unavailable", "cores": cores}
    if cores < PARALLEL_SCALING_MIN_CORES:
        return {
            "skipped": f"needs >= {PARALLEL_SCALING_MIN_CORES} cores, host has {cores}",
            "cores": cores,
        }
    entries = 6000 if smoke else 20000
    # Dense enough that per-shard event processing dominates the
    # window-synchronization barriers, and with room for the full-mode
    # 20000 distinct cells.
    scale = MFScale(num_rows=512, num_cols=128, num_entries=entries, rank=8)
    report = {"cores": cores, "entries": entries, "floor": PARALLEL_SCALING_FLOOR}
    for system in ("classic", "lapse"):
        times = {}
        fingerprints = {}
        for jobs in (1, 4):
            start = time.perf_counter()
            result = run_mf_experiment(
                system,
                num_nodes=4,
                workers_per_node=2,
                scale=scale,
                epochs=1,
                compute_loss=False,
                seed=seed,
                jobs=jobs,
            )
            times[jobs] = time.perf_counter() - start
            fingerprints[jobs] = (
                tuple(repr(epoch.duration) for epoch in result.epochs),
                result.remote_messages,
                result.bytes_sent,
            )
        _require(
            fingerprints[1] == fingerprints[4],
            f"parallel-engine {system} MF results diverged between jobs=1 "
            f"and jobs=4",
        )
        speedup = times[1] / times[4]
        report[system] = {
            "wall_1job_s": times[1],
            "wall_4jobs_s": times[4],
            "speedup": speedup,
        }
        print(
            f"  parallel/{system:<10s} 1 job {times[1]:6.3f}s -> 4 jobs "
            f"{times[4]:6.3f}s ({speedup:.2f}x)"
        )
        _require(
            speedup >= PARALLEL_SCALING_FLOOR,
            f"parallel-engine {system} MF speedup 1->4 shards is "
            f"{speedup:.2f}x, below the {PARALLEL_SCALING_FLOOR}x floor",
        )
    return report


# -------------------------------------------------------------------- tracing
#: Interleaved hooks-off overhead ratio tolerated before failing.  The policy
#: target is <= 2% (each disabled hook is one attribute load plus an
#: ``is not None`` check per operation/message); the asserted floor is far
#: looser because same-run wall-clock ratios on shared CI machines are noisy.
TRACING_OFF_OVERHEAD_CEILING = 1.25


def bench_tracing(scale, repeats, seed=0):
    """Tracing overhead and bit-identity on end-to-end MF (classic + lapse).

    Asserts the hard guarantee — a run with tracing *enabled* produces
    bit-identical simulated results (epoch durations, traffic, counters) to an
    untraced run — and measures what the dormant hooks cost by interleaving
    plain runs against ``TraceConfig(enabled=False)`` runs (the identical code
    path, so the ratio isolates machine noise plus the config check; asserted
    under :data:`TRACING_OFF_OVERHEAD_CEILING`).  The enabled-tracing ratio
    and a compact tracer summary (span count, per-op p50/p99) are recorded,
    never asserted.
    """
    from repro.obs import TraceConfig

    report = {"off_overhead_ceiling": TRACING_OFF_OVERHEAD_CEILING}
    for system in ("classic", "lapse"):
        def run(trace=None, s=system):
            return run_mf_experiment(
                s, num_nodes=2, workers_per_node=2, scale=scale, epochs=1,
                seed=seed, trace=trace,
            )

        def fingerprint(result):
            return (
                tuple(repr(epoch.duration) for epoch in result.epochs),
                result.remote_messages,
                result.bytes_sent,
                result.metrics.as_dict(),
            )

        times = {"off": float("inf"), "disabled": float("inf"), "on": float("inf")}
        plain = traced = None
        for _ in range(repeats):
            # Interleave the three variants so machine noise cancels.
            start = time.perf_counter()
            plain = run()
            times["off"] = min(times["off"], time.perf_counter() - start)
            start = time.perf_counter()
            run(trace=TraceConfig(enabled=False))
            times["disabled"] = min(times["disabled"], time.perf_counter() - start)
            start = time.perf_counter()
            traced = run(trace=TraceConfig())
            times["on"] = min(times["on"], time.perf_counter() - start)
        _require(
            fingerprint(plain) == fingerprint(traced),
            f"tracing changed simulated results on {system} MF "
            "(bit-identity contract violated)",
        )
        off_overhead = times["disabled"] / times["off"]
        summary = traced.tracer.summary()
        report[system] = {
            "wall_off_s": times["off"],
            "wall_disabled_s": times["disabled"],
            "wall_on_s": times["on"],
            "off_overhead": off_overhead,
            "on_overhead": times["on"] / times["off"],
            "span_count": summary["span_count"],
            "op_latency": {
                op: {"count": stats["count"], "p50": stats["p50"], "p99": stats["p99"]}
                for op, stats in summary["op_latency"].items()
            },
        }
        print(
            f"  tracing/{system:<10s} off {times['off']:6.3f}s, disabled-config "
            f"{times['disabled']:6.3f}s ({off_overhead:.2f}x), on "
            f"{times['on']:6.3f}s ({times['on'] / times['off']:.2f}x, "
            f"{summary['span_count']} spans), results bit-identical"
        )
        _require(
            off_overhead <= TRACING_OFF_OVERHEAD_CEILING,
            f"tracing-off overhead on {system} MF is {off_overhead:.2f}x, above "
            f"the {TRACING_OFF_OVERHEAD_CEILING}x ceiling",
        )
    return report


# ----------------------------------------------------------------- run history
def load_report(path):
    """Load a BENCH_PERF report, upgrading schema-1 files to a run list."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") == SCHEMA:
        return data
    if "end_to_end" in data:
        # Schema 1: a single run dict; wrap it as the sole history entry.
        return {"schema": SCHEMA, "runs": [data]}
    raise ValueError(f"unrecognized BENCH_PERF schema in {path}")


def append_run(path, run):
    """Append ``run`` to the history at ``path`` (keeping HISTORY_LIMIT)."""
    if os.path.exists(path):
        try:
            report = load_report(path)
        except (ValueError, json.JSONDecodeError) as error:
            print(
                f"WARNING: could not read existing history at {path} ({error}); "
                "starting a fresh run history"
            )
            report = {"schema": SCHEMA, "runs": []}
    else:
        report = {"schema": SCHEMA, "runs": []}
    report["runs"].append(run)
    report["runs"] = report["runs"][-HISTORY_LIMIT:]
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def compare_reports(current_run, old, tolerance=REGRESSION_TOLERANCE):
    """Compare end-to-end steps/s against the (pre-loaded) run ``old``.

    Returns the number of regressions beyond ``tolerance``.  Pairs are
    matched on (task, system); entries present on only one side are ignored
    (workload sets may evolve).
    """
    old_rates = {
        (entry["task"], entry["system"]): entry["steps_per_wall_second"]
        for entry in old["end_to_end"]
    }
    regressions = 0
    for entry in current_run["end_to_end"]:
        key = (entry["task"], entry["system"])
        old_rate = old_rates.get(key)
        if old_rate is None or old_rate <= 0:
            continue
        ratio = entry["steps_per_wall_second"] / old_rate
        marker = ""
        if ratio < 1.0 - tolerance:
            regressions += 1
            marker = "  << REGRESSION"
        print(
            f"  compare {key[0]:>22s}/{key[1]:<10s} "
            f"{old_rate:9.0f} -> {entry['steps_per_wall_second']:9.0f} steps/s "
            f"({ratio:5.2f}x){marker}"
        )
    return regressions


# ------------------------------------------------------------------------ main
def main(argv=None):
    parser = make_arg_parser(__doc__.splitlines()[0], default_out=DEFAULT_OUTPUT)
    parser.add_argument(
        "--compare",
        metavar="OLD_JSON",
        default=None,
        help="compare end-to-end steps/s against the latest run recorded in "
        "OLD_JSON and exit nonzero on a >20%% regression",
    )
    args = parser.parse_args(argv)

    repeats = 2 if args.smoke else 5
    storage_batch = 256 if args.smoke else 1024
    kernel_yields = 20_000 if args.smoke else 100_000
    engine_scale = MFScale(num_rows=64, num_cols=32, num_entries=2000)

    # Load the comparison baseline up front: --compare may point at the same
    # file this run appends to (the committed BENCH_PERF.json).  Only runs of
    # the same mode are comparable — smoke and full use different workload
    # scales, so cross-mode ratios would be artifacts.
    compare_baseline = None
    if args.compare:
        mode = "smoke" if args.smoke else "full"
        candidates = [
            entry
            for entry in load_report(args.compare)["runs"]
            if entry.get("mode") == mode
            and entry.get("backend", "sim") == args.backend
            and entry.get("jobs", 1) == args.jobs
        ]
        if candidates:
            compare_baseline = candidates[-1]
        else:
            print(
                f"note: {args.compare} has no {mode!r}-mode {args.backend!r}-backend "
                "run to compare against; skipping the regression check"
            )

    print("parity: batch vs per-key storage ops ...", flush=True)
    check_storage_parity()
    print("parity: end-to-end determinism ...", flush=True)
    check_end_to_end_determinism()
    print("parity: fast paths vs reference engine ...", flush=True)
    check_engine_bit_identity(engine_scale)

    print("storage microbenchmarks ...", flush=True)
    storage = bench_storage(storage_batch, 32, repeats)
    print("server data-path microbenchmarks ...", flush=True)
    server = bench_server(storage_batch, 32, repeats)
    print("kernel event throughput ...", flush=True)
    kernel = bench_kernel(kernel_yields, repeats)
    print("engine fast-path speedup (interleaved fast vs reference) ...", flush=True)
    engine = bench_engine(engine_scale, repeats=4 if args.smoke else 6)
    print("end-to-end workloads ...", flush=True)
    end_to_end = bench_end_to_end(
        args.smoke, repeats=1 if args.smoke else 2, seed=args.seed,
        backend=args.backend, jobs=args.jobs,
    )
    print("real-backend scaling (1 -> 4 worker processes) ...", flush=True)
    real_backend = bench_real_backend(args.smoke, seed=args.seed)
    if "skipped" in real_backend:
        print(f"  skipped: {real_backend['skipped']}")
    print("parallel-engine scaling (1 -> 4 shard processes) ...", flush=True)
    parallel_engine = bench_parallel_engine(args.smoke, seed=args.seed)
    if "skipped" in parallel_engine:
        print(f"  skipped: {parallel_engine['skipped']}")
    print("tracing overhead and bit-identity ...", flush=True)
    tracing = bench_tracing(engine_scale, repeats=2 if args.smoke else 4, seed=args.seed)

    run = {
        "schema_run": 2,
        "mode": "smoke" if args.smoke else "full",
        "backend": args.backend,
        "jobs": args.jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "parity": "ok",
        "storage": storage,
        "server": server,
        "kernel": kernel,
        "engine": engine,
        "end_to_end": end_to_end,
        "real_backend": real_backend,
        "parallel_engine": parallel_engine,
        "tracing": tracing,
    }
    report = append_run(args.out, run)
    print(f"wrote {args.out} ({len(report['runs'])} runs in history)")

    for kind in ("dense", "sparse"):
        for op in ("get", "add", "set"):
            entry = storage[kind][op]
            print(
                f"  storage/{kind}/{op}: {entry['speedup']:.1f}x "
                f"({entry['per_key_us']:.0f}us -> {entry['batch_us']:.0f}us)"
            )
    entry = storage["sparse"]["add_vs_per_key_store"]
    print(
        f"  storage/sparse/add vs per-key store adds: {entry['speedup']:.1f}x "
        f"({entry['per_key_us']:.0f}us -> {entry['batch_us']:.0f}us)"
    )
    for op in ("read", "write"):
        entry = server[op]
        print(
            f"  server/{op}: {entry['speedup']:.1f}x "
            f"({entry['per_key_us']:.0f}us -> {entry['batch_us']:.0f}us)"
        )
    print(f"  kernel: {kernel['events_per_second']:,.0f} events/s")

    if compare_baseline is not None:
        print(f"comparing against {args.compare} ...")
        regressions = compare_reports(run, compare_baseline)
        if regressions:
            print(f"FAILED: {regressions} end-to-end regressions beyond "
                  f"{REGRESSION_TOLERANCE:.0%}")
            return 1
        print("no end-to-end regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
