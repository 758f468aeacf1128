"""One benchmark repetition, in a process of its own.

``run.py`` starts this file once per repetition so that no repetition inherits
heap, caches or lazily-built plans from an earlier one.  It builds the
workload's inputs from the seed, times set-up and the timed region separately,
checks the outputs, and prints one JSON object as the last line of stdout.

The program is driven only through its public entry points:
``repro.data.generate_*``, ``make_parameter_server`` / ``make_elastic_mf``, the
trainers' ``train`` / ``run_epoch``, ``ps.metrics()``, ``ps.network.stats`` and
``ps.all_parameters()``.  (The engine bookkeeping ``_last_effective_jobs`` /
``_last_fallback_reason`` has no public accessor; it is read the way
``experiments.runner`` reads it.)

Modes:

``run``        set-up (several times, timed), the timed region, verification.
``profile``    the same with the timed region under cProfile, folded by layer.
``obs``        the same with ``TraceConfig()`` installed.
``reference``  the same inputs on the sequential simulator (engine checks).
``probes``     the layer probes.
``identity``   the KGE jobs=1 vs jobs=2 identity probes.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import platform
import pstats
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
for _path in (BENCH_DIR, SRC_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from catalog import MF_RANK, WORKLOAD_BY_NAME  # noqa: E402

#: Builds timed per repetition; the repetition's set-up time is the import of
#: the program (paid once per process) plus the median build.
BUILDS_PER_REP = 3


def reference_kernel():
    """A fixed mix of interpreter and small-array numpy work, like the simulator's."""
    table = {}
    vector = np.arange(8.0)
    total = 0.0
    for index in range(6000):
        table[index & 255] = index
        total += index * 0.5
        if not index & 7:
            vector = vector * 0.999 + 0.5
            total += float(vector[3])
    return total


def host_speed_sample(calls=21):
    """Median seconds of one ``reference_kernel`` call: how fast the host is now."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def import_program():
    """Import everything ``build`` needs; returns the seconds it took."""
    start = time.perf_counter()
    import repro.data  # noqa: F401
    import repro.durability  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.ml  # noqa: F401
    import repro.obs  # noqa: F401

    return time.perf_counter() - start


class Built:
    """What set-up produces: the PS, its trainer, and how to run the epochs."""

    def __init__(self, ps, trainer, steps_per_epoch, elastic=None):
        self.ps = ps
        self.trainer = trainer
        self.steps_per_epoch = steps_per_epoch
        self.elastic = elastic

    def close(self):
        shutdown = getattr(self.ps, "shutdown", None)
        if shutdown is not None:
            shutdown()


def build(workload, size, seed, reference=False, trace=None):
    """Data generation + PS/trainer construction (the ``setup_s`` region)."""
    from repro.config import ClusterConfig, ParameterServerConfig
    from repro.experiments.runner import make_parameter_server

    backend = "sim" if reference else workload.backend
    jobs = 1 if reference else workload.jobs
    cluster = ClusterConfig(
        num_nodes=workload.nodes, workers_per_node=workload.workers_per_node, seed=seed
    )
    if workload.task == "mf":
        from repro.data import generate_matrix
        from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer

        matrix = generate_matrix(
            size["rows"], size["cols"], size["entries"], rank=MF_RANK, seed=seed
        )
        ps = make_parameter_server(
            workload.system,
            cluster,
            ParameterServerConfig(num_keys=size["cols"], value_length=MF_RANK),
            backend=backend,
            jobs=jobs,
            trace=trace,
        )
        config = MatrixFactorizationConfig(
            rank=MF_RANK, compute_time_per_entry=workload.compute_time_per_entry
        )
        trainer = MatrixFactorizationTrainer(ps, matrix, config, seed=seed)
        return Built(ps, trainer, matrix.num_entries)
    if workload.task == "churn":
        from repro.durability import DurabilityConfig
        from repro.experiments.runner import MFScale, make_elastic_mf

        scale = MFScale(
            num_rows=size["rows"],
            num_cols=size["cols"],
            num_entries=size["entries"],
            rank=MF_RANK,
            compute_time_per_entry=workload.compute_time_per_entry,
        )
        elastic, trainer = make_elastic_mf(
            workload.system,
            num_nodes=workload.nodes,
            initial_nodes=workload.extra["initial_nodes"],
            scale=scale,
            workers_per_node=workload.workers_per_node,
            seed=seed,
            durability=DurabilityConfig(),
            trace=trace,
        )
        return Built(elastic.ps, trainer, trainer.matrix.num_entries, elastic=elastic)
    if workload.task == "kge":
        from repro.data import generate_knowledge_graph
        from repro.experiments.runner import KGEScale
        from repro.ml import KGEConfig, KGETrainer
        from repro.ml.kge import KGEKeySpace

        scale = KGEScale()
        graph = generate_knowledge_graph(
            num_entities=size["entities"],
            num_relations=scale.num_relations,
            num_triples=size["triples"],
            seed=seed,
        )
        config = KGEConfig(
            model="complex",
            entity_dim=scale.entity_dim,
            num_negatives=scale.num_negatives,
            compute_time_per_triple=scale.compute_time_per_triple,
        )
        keyspace = KGEKeySpace(graph, config)
        ps = make_parameter_server(
            workload.system,
            cluster,
            ParameterServerConfig(
                num_keys=keyspace.num_keys, value_length=config.value_length
            ),
            jobs=jobs,
            trace=trace,
        )
        return Built(ps, KGETrainer(ps, graph, config, seed=seed), graph.num_triples)
    if workload.task == "w2v":
        from repro.data import generate_corpus
        from repro.experiments.runner import W2VScale
        from repro.ml import Word2VecConfig, Word2VecTrainer

        scale = W2VScale()
        corpus = generate_corpus(
            vocabulary_size=size["vocabulary"],
            num_sentences=size["sentences"],
            mean_sentence_length=scale.mean_sentence_length,
            skew=scale.word_skew,
            seed=seed,
        )
        config = Word2VecConfig(
            dim=scale.dim,
            window=scale.window,
            num_negatives=scale.num_negatives,
            compute_time_per_pair=scale.compute_time_per_pair,
            presample_size=scale.presample_size,
            presample_refresh=scale.presample_refresh,
        )
        ps = make_parameter_server(
            workload.system,
            cluster,
            ParameterServerConfig(num_keys=2 * size["vocabulary"], value_length=scale.dim),
            jobs=jobs,
            trace=trace,
        )
        return Built(ps, Word2VecTrainer(ps, corpus, config, seed=seed), corpus.num_sentences)
    raise ValueError(f"unknown task {workload.task!r}")


#: Where in an epoch the churn workload's join and drain fire, as a share of
#: the previous epoch's duration.  Not 0.5: with 4 (then 6) workers an epoch
#: has 4 (then 6) subepochs, so the exact middle is a subepoch boundary and
#: which side the event lands on — and with it the epoch's length — would
#: depend on the seed.
MID_EPOCH = 0.4


def timed_region(workload, built):
    """The timed region: ``trainer.train(epochs)`` or the elastic epoch sequence."""
    trainer = built.trainer
    if workload.task in ("mf", "kge"):
        return trainer.train(num_epochs=workload.epochs, compute_loss=False)
    if workload.task == "w2v":
        return trainer.train(num_epochs=workload.epochs, compute_error=False)
    # churn: the join fires mid-epoch 2, the drain mid-epoch 4 (1-based).
    elastic, ps = built.elastic, built.ps
    results = []
    for index in range(workload.epochs):
        if index == 1:
            elastic.join_at(
                ps.simulated_time + MID_EPOCH * results[-1].duration, workload.extra["join_node"]
            )
        if index == 3:
            elastic.drain_at(
                ps.simulated_time + MID_EPOCH * results[-1].duration, workload.extra["drain_node"]
            )
        results.append(elastic.run_epoch(trainer, compute_loss=False))
    return results


def quality(workload, trainer):
    """The task's own quality measure (lower is better on all three tasks)."""
    if workload.task in ("mf", "churn"):
        return float(trainer.training_rmse())
    if workload.task == "kge":
        return float(trainer.evaluation_loss())
    return float(trainer.evaluation_error())


def fingerprint(epochs, ps, metrics):
    """sha256 over everything a simulated run is required to repeat exactly."""
    digest = hashlib.sha256()
    for epoch in epochs:
        digest.update(repr(epoch.duration).encode())
    stats = ps.network.stats
    digest.update(repr((stats.remote_messages, stats.bytes_sent)).encode())
    digest.update(repr(sorted(metrics.as_dict().items())).encode())
    digest.update(np.ascontiguousarray(ps.all_parameters()).tobytes())
    return digest.hexdigest()


def churn_checks(workload, built):
    """No key lost, the drained node owns nothing, one active owner per key."""
    elastic, ps = built.elastic, built.ps
    drained = workload.extra["drain_node"]
    active = set(elastic.membership.active_nodes())
    num_keys = ps.ps_config.num_keys
    holders = np.zeros(num_keys, dtype=np.int64)
    stray = 0
    for node, state in enumerate(ps.states):
        keys = np.fromiter(state.storage.keys(), dtype=np.int64)
        if node in active:
            holders[keys] += 1
        else:
            stray += len(keys)
    owners = ps.current_owners(range(num_keys))
    return {
        "no_lost_keys": elastic.lost_keys == 0,
        "drained_node_empty": drained not in active
        and len(ps.states[drained].storage) == 0,
        "single_active_owner": stray == 0
        and bool(np.all(holders == 1))
        and all(int(owner) in active for owner in owners),
    }


def cpu_seconds():
    """(own, reaped children's) user+system CPU seconds of this process."""
    times = os.times()
    return times.user + times.system, times.children_user + times.children_system


def run_workload(args):
    import_s = import_program()
    workload = WORKLOAD_BY_NAME[args.workload]
    size = workload.quick_size if args.quick else workload.size
    reference = args.mode == "reference"
    trace = None
    if args.mode == "obs":
        from repro.obs import TraceConfig

        trace = TraceConfig()

    build_samples = []
    built = None
    for _ in range(1 if reference else BUILDS_PER_REP):
        if built is not None:
            built.close()
        start = time.perf_counter()
        built = build(workload, size, args.seed, reference=reference, trace=trace)
        build_samples.append(time.perf_counter() - start)

    initial_quality = quality(workload, built.trainer)
    profiler = cProfile.Profile() if args.mode == "profile" else None
    kernel_before = host_speed_sample()
    own_before, children_before = cpu_seconds()
    wall_start = time.perf_counter()
    if profiler is not None:
        epochs = profiler.runcall(timed_region, workload, built)
    else:
        epochs = timed_region(workload, built)
    wall = time.perf_counter() - wall_start
    own_after, _ = cpu_seconds()
    kernel_after = host_speed_sample()

    ps = built.ps
    metrics = ps.metrics()
    stats = ps.network.stats
    final_quality = quality(workload, built.trainer)
    durations = [float(epoch.duration) for epoch in epochs]
    scheduled = built.steps_per_epoch * workload.epochs
    completed = built.steps_per_epoch * len(epochs)
    checks = {
        "steps_completed": completed == scheduled,
        "quality_improved": math.isfinite(final_quality)
        and math.isfinite(initial_quality)
        and final_quality < initial_quality,
    }
    if workload.task == "churn":
        checks.update(churn_checks(workload, built))
    effective_jobs = getattr(ps, "_last_effective_jobs", 1)
    fallback_reason = getattr(ps, "_last_fallback_reason", None)
    if workload.jobs > 1 and not reference:
        checks["sharded"] = effective_jobs == workload.jobs and fallback_reason is None
    history = getattr(ps, "shard_load_history", None) or []
    digest = fingerprint(epochs, ps, metrics)
    counters = dict(metrics.as_dict())
    counters.update(
        messages_sent=stats.messages_sent,
        remote_messages=stats.remote_messages,
        bytes_sent=stats.bytes_sent,
        delivery_events=stats.delivery_events,
        coalesced_messages=stats.coalesced_messages,
        local_read_fraction=metrics.local_read_fraction,
    )
    built.close()
    # Children are counted once reaped: shard processes at each epoch's end,
    # the real backend's workers and servers by ``shutdown`` at the latest.
    _, children_after = cpu_seconds()
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "ok": all(checks.values()),
        "steps_scheduled": scheduled,
        "steps_completed": completed,
        "import_s": import_s,
        "build_samples_s": build_samples,
        "setup_s": import_s + statistics.median(build_samples),
        "wall_s": wall,
        "kernel_s": [kernel_before, kernel_after],
        "epoch_durations_s": durations,
        "epoch_s": sum(durations) / len(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "child_peak_rss_mb": usage_children.ru_maxrss / 1024.0,
        "cpu_s": (own_after - own_before) + (children_after - children_before),
        "fingerprint": digest,
        "quality": {"initial": initial_quality, "final": final_quality},
        "counters": counters,
        "engine": {
            "effective_jobs": effective_jobs,
            "fallback_reason": fallback_reason,
            "load_skew": float(history[-1]["skew"]) if history else 0.0,
        },
        "checks": checks,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    if profiler is not None:
        from layers import fold

        profile = pstats.Stats(profiler)
        if args.pstats:
            profile.dump_stats(args.pstats)
        result["layers"] = fold(profile, os.path.join(SRC_DIR, "repro"))
        result["profile_total_s"] = profile.total_tt
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode",
        default="run",
        choices=("run", "profile", "obs", "reference", "probes", "identity"),
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--pstats", default=None, help="write the raw profile here")
    args = parser.parse_args(argv)
    if args.mode == "probes":
        import probes

        result = probes.run_probes(args.seed, args.quick)
    elif args.mode == "identity":
        import probes

        result = probes.identity_probes(args.seed, args.quick)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
