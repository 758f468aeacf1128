"""Profile the simulator's hot path: top functions for one epoch per system.

Future perf PRs should start from data, not guesses: this helper runs one
epoch of a task (``--task mf`` — the default —, ``kge`` or ``w2v``) per
parameter-server variant under ``cProfile`` and prints the top-N functions by
cumulative time, so the current bottleneck distribution is one command away::

    PYTHONPATH=src python benchmarks/profile_hotpath.py
    PYTHONPATH=src python benchmarks/profile_hotpath.py --sort tottime --top 30
    PYTHONPATH=src python benchmarks/profile_hotpath.py --systems classic lapse
    PYTHONPATH=src python benchmarks/profile_hotpath.py --task w2v --systems lapse
    REPRO_DISABLE_FASTPATH=1 PYTHONPATH=src python benchmarks/profile_hotpath.py

For sampling-based profiles of longer runs (no instrumentation skew), run the
same workloads under ``py-spy`` instead — see the "Simulation engine
performance" section of docs/architecture.md.
"""

import cProfile
import io
import pstats
import sys
import time

from benchmark_utils import make_arg_parser

from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_matrix
from repro.experiments.runner import (
    KGEScale,
    MFScale,
    W2VScale,
    make_parameter_server,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)
from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer

#: Systems profiled by default (the bench_perf end-to-end set).
DEFAULT_SYSTEMS = ("classic", "classic_fast_local", "lapse", "stale_ssp", "replica", "hybrid")


#: ``--task`` -> (runner, step unit, steps of a scale).  A step is the unit
#: of ``BENCH_PERF.json``: a matrix entry, a triple, a sentence.
TASKS = {
    "mf": (run_mf_experiment, "entries", lambda scale: scale.num_entries),
    "kge": (run_kge_experiment, "triples", lambda scale: scale.num_triples),
    "w2v": (run_w2v_experiment, "sentences", lambda scale: scale.num_sentences),
}


def profile_system(
    system, scale, sort, top, num_nodes=2, workers_per_node=2,
    seed=0, backend="sim", jobs=1, task="mf",
):
    """Profile one ``task`` epoch on ``system`` and print the top-``top`` functions."""
    run_experiment, unit, steps_of = TASKS[task]
    # Warm-up run outside the profile: import costs and lazily built caches
    # (lanes, dispatch tables, epoch plans) would otherwise dominate.
    kwargs = dict(
        num_nodes=num_nodes, workers_per_node=workers_per_node, scale=scale,
        epochs=1, seed=seed, jobs=jobs,
    )
    if task == "mf":
        kwargs["backend"] = backend  # KGE and W2V run on the simulator only
    start = time.perf_counter()
    run_experiment(system, **kwargs)
    warm_seconds = time.perf_counter() - start

    profile = cProfile.Profile()
    profile.enable()
    run_experiment(system, **kwargs)
    profile.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    steps = steps_of(scale)
    print(f"\n=== {system}: one {task.upper()} epoch, {steps} {unit}, "
          f"backend={backend} jobs={jobs} seed={seed}, "
          f"~{steps / warm_seconds:,.0f} steps/s unprofiled ===")
    # Drop the pstats preamble up to the column header for compact output.
    lines = buffer.getvalue().splitlines()
    header = next(i for i, line in enumerate(lines) if "ncalls" in line)
    print("\n".join(lines[header:]).rstrip())
    if task == "mf" and backend == "sim" and jobs == 1:
        print(mf_kernel_share(system, scale, num_nodes, workers_per_node, seed))


def mf_kernel_share(system, scale, num_nodes, workers_per_node, seed):
    """One more MF epoch on a trainer built here: how many entries took the
    block-visit kernel, and the shape of the level schedules it ran."""
    matrix = generate_matrix(
        scale.num_rows, scale.num_cols, scale.num_entries, rank=scale.rank, seed=seed
    )
    ps = make_parameter_server(
        system,
        ClusterConfig(num_nodes=num_nodes, workers_per_node=workers_per_node, seed=seed),
        ParameterServerConfig(num_keys=scale.num_cols, value_length=scale.rank),
    )
    config = MatrixFactorizationConfig(
        rank=scale.rank, compute_time_per_entry=scale.compute_time_per_entry
    )
    trainer = MatrixFactorizationTrainer(ps, matrix, config, seed=seed)
    trainer.run_epoch(compute_loss=False)
    fused, declined = trainer.fused_steps, trainer.declined_steps
    if fused + declined == 0:
        return "block-visit kernel: no runner offered (every entry takes the event loop)"
    visits = [bounds for plan in trainer._plans.values() for _, bounds in plan.levels.values()]
    levels = sum(len(bounds) - 1 for bounds in visits)
    return (
        f"block-visit kernel: {fused} of {fused + declined} entries "
        f"({fused / (fused + declined):.0%}; the rest take the event loop), "
        f"{len(visits)} visits, {levels} levels, "
        f"{fused / max(1, levels):.1f} entries per level"
    )


def main(argv=None):
    # Shared benchmark CLI (--seed/--out/--smoke/--backend/--jobs) plus the
    # profiler-specific flags; --out and --smoke are accepted but unused here
    # (the profile is a printed report, not a JSON artifact).
    parser = make_arg_parser(__doc__.splitlines()[0])
    parser.add_argument(
        "--systems", nargs="+", default=list(DEFAULT_SYSTEMS),
        help=f"PS variants to profile (default: {' '.join(DEFAULT_SYSTEMS)})",
    )
    parser.add_argument(
        "--sort", default="cumulative", choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument("--top", type=int, default=20, help="functions to print (default: 20)")
    parser.add_argument("--entries", type=int, default=2000, help="MF matrix entries")
    parser.add_argument(
        "--task", default="mf", choices=sorted(TASKS),
        help="workload to profile: matrix factorization (64 x 32, --entries), "
        "ComplEx KGE or skip-gram W2V at the bench_perf smoke scales (default: mf)",
    )
    args = parser.parse_args(argv)
    if args.task != "mf" and args.backend != "sim":
        parser.error("--task kge/w2v run on the simulator only (--backend sim)")

    scale = {
        "mf": MFScale(num_rows=64, num_cols=32, num_entries=args.entries),
        "kge": KGEScale(num_entities=100, num_triples=300),
        "w2v": W2VScale(vocabulary_size=200, num_sentences=30),
    }[args.task]
    for system in args.systems:
        profile_system(
            system, scale, args.sort, args.top,
            seed=args.seed, backend=args.backend, jobs=args.jobs, task=args.task,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
