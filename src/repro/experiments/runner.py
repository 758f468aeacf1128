"""Build parameter servers by name and run the paper's ML tasks on them.

The experiment figures compare a fixed set of *systems*:

============================  =====================================================
name                          meaning
============================  =====================================================
``classic``                   Classic PS with PS-Lite-style inter-process local
                              access (the "Classic PS (PS-Lite)" lines).
``classic_fast_local``        Classic PS with shared-memory local access but still
                              static allocation ("Classic PS with fast local
                              access").
``lapse``                     Lapse: dynamic parameter allocation + shared memory.
``lapse_clustering_only``     Lapse using only the data-clustering PAL technique
                              (no latency hiding); KGE figures only.
``stale_ssp``                 Stale PS with client-based synchronization (Petuum
                              SSP).
``stale_ssppush``             Stale PS with server-based synchronization (Petuum
                              SSPPush).
``lowlevel``                  The task-specific low-level DSGD implementation
                              (matrix factorization only, Figure 9).
``replica``                   Replication-based PS (beyond the paper's systems):
                              eager hot-key replication, local writes, and a
                              time-triggered synchronization loop.
``replica_clock``             The same replica PS with clock-triggered
                              synchronization (updates propagate when workers
                              advance their clocks).
``hybrid``                    Hybrid management (beyond the paper's systems;
                              the NuPS direction of the paper's outlook):
                              replicate hot keys, relocate the long tail —
                              per-key composition of the relocation and
                              replication policies.
============================  =====================================================

``run_*_experiment`` functions build the cluster at a given parallelism
(``num_nodes`` x ``workers_per_node``), run the task for a number of epochs and
return a :class:`TaskRunResult` with epoch run times, losses, PS metrics and
network traffic.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.config import ClusterConfig, CostModel, ParameterServerConfig
from repro.errors import ExperimentError
from repro.ml.results import EpochResult
from repro.ps import ClassicIPCPS, ClassicSharedMemoryPS
from repro.ps.base import ParameterServer
from repro.ps.metrics import PSMetrics
from repro.ps.partition import ElasticPartitioner, KeyPartitioner

if TYPE_CHECKING:
    from repro.cluster import ClusterSchedule

#: Systems compared across the evaluation (see module docstring).
SYSTEMS = (
    "classic",
    "classic_fast_local",
    "lapse",
    "lapse_clustering_only",
    "stale_ssp",
    "stale_ssppush",
    "lowlevel",
    "replica",
    "replica_clock",
    "hybrid",
)

#: Hot-key threshold used by the ``hybrid`` system: a node replicates a key
#: it reads remotely this many times; colder keys stay relocatable.
HYBRID_HOT_KEY_THRESHOLD = 2

#: Worker threads per node used throughout the paper's evaluation.
PAPER_WORKERS_PER_NODE = 4


def make_parameter_server(
    system: str,
    cluster: ClusterConfig,
    ps_config: ParameterServerConfig,
    partitioner: Optional[KeyPartitioner] = None,
    durability: Optional[Any] = None,
    backend: str = "sim",
    jobs: int = 1,
    trace: Optional[Any] = None,
) -> ParameterServer:
    """Instantiate the PS variant named ``system`` on ``cluster``.

    ``partitioner`` optionally overrides the default range partitioner — the
    elastic experiments pass an :class:`~repro.ps.partition.ElasticPartitioner`
    restricted to the initially active nodes.  ``durability`` optionally
    installs the durability subsystem (a
    :class:`~repro.durability.DurabilityConfig`): per-node WAL + checkpoints;
    ``None`` leaves the fast path untouched.  ``trace`` optionally installs
    the tracing/telemetry subsystem (a :class:`~repro.obs.TraceConfig`):
    per-op spans, latency histograms, counter time series, and Perfetto
    export via ``ps.tracer`` — observation only, so traced runs stay
    bit-identical; ``None`` leaves the fast path untouched.

    ``backend`` selects the execution substrate: ``"sim"`` (default) runs on
    the discrete-event simulator, ``"real"`` on actual processes with
    shared-memory parameter shards (:class:`repro.backend.RealParameterServer`
    — classic, classic_fast_local, and lapse only).  The real backend returns
    an object satisfying the same client/metrics API; call ``shutdown()`` on
    it (or use it as a context manager) to release the shared memory.

    ``jobs > 1`` shards the simulated nodes of a static, non-durable
    cluster across that many forked processes with conservative time-window
    sync (:mod:`repro.simnet.parallel`) — results bit-identical to
    ``jobs=1``.  Runs the window protocol does not shard (elastic clusters,
    durable stores, single-node clusters, zero-latency cost models) fall
    back to ``jobs=1`` at run time with a once-per-reason warning; the
    reason is recorded on the run result.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and backend == "real":
        raise ExperimentError(
            "jobs > 1 applies to the simulator; the real backend has its own "
            "process-level parallelism"
        )
    if backend == "real":
        from repro.backend import REAL_BACKEND_SYSTEMS, RealParameterServer

        if system not in REAL_BACKEND_SYSTEMS:
            raise ExperimentError(
                f"system {system!r} is not available on the real backend; "
                f"choose one of {', '.join(REAL_BACKEND_SYSTEMS)}"
            )
        if partitioner is not None:
            raise ExperimentError(
                "the real backend does not support custom partitioners "
                "(elastic clusters run on the simulator)"
            )
        if durability is not None:
            raise ExperimentError(
                "the real backend does not support the durability subsystem"
            )
        return RealParameterServer(system, cluster, ps_config, trace=trace)
    if backend != "sim":
        raise ExperimentError(f"unknown backend {backend!r}; choose 'sim' or 'real'")
    ps = _make_sim_ps(system, cluster, ps_config, partitioner, durability, trace)
    ps.jobs = jobs
    if jobs > 1:
        # The sharded engine and the fork machinery of its first run load
        # here, not inside that run.
        for module in ("repro.simnet.parallel", "multiprocessing.popen_fork"):
            importlib.import_module(module)
    return ps


def _make_sim_ps(
    system: str,
    cluster: ClusterConfig,
    ps_config: ParameterServerConfig,
    partitioner: Optional[KeyPartitioner],
    durability: Optional[Any],
    trace: Optional[Any] = None,
) -> ParameterServer:
    extras = dict(partitioner=partitioner, durability=durability, trace=trace)
    if system == "classic":
        return ClassicIPCPS(cluster, ps_config, **extras)
    if system == "classic_fast_local":
        return ClassicSharedMemoryPS(cluster, ps_config, **extras)
    # Every other system loads its module only when built.
    if system in ("lapse", "lapse_clustering_only"):
        from repro.ps.lapse import LapsePS

        return LapsePS(cluster, ps_config, **extras)
    if system in ("stale_ssp", "stale_ssppush"):
        from repro.ps.stale import StalePS

        push = system == "stale_ssppush"
        return StalePS(cluster, replace(ps_config, stale_server_push=push), **extras)
    if system in ("replica", "replica_clock"):
        from repro.ps.replica import ReplicaPS

        trigger = "time" if system == "replica" else "clock"
        return ReplicaPS(cluster, replace(ps_config, replica_sync_trigger=trigger), **extras)
    if system == "hybrid":
        from repro.ps.hybrid import HybridPS

        # Threshold > 1 so that one-off reads stay relocatable: only keys a
        # node keeps coming back to are replicated there.
        return HybridPS(
            cluster,
            replace(
                ps_config,
                replica_sync_trigger="time",
                hot_key_threshold=HYBRID_HOT_KEY_THRESHOLD,
            ),
            **extras,
        )
    raise ExperimentError(f"unknown system {system!r}")


@dataclass(frozen=True)
class TaskRunResult:
    """Result of running one task on one system at one parallelism level."""

    task: str
    system: str
    num_nodes: int
    workers_per_node: int
    epochs: List[EpochResult]
    metrics: Optional[PSMetrics]
    remote_messages: int
    bytes_sent: int
    #: Execution substrate the run used: "sim" (epoch durations are simulated
    #: time) or "real" (epoch durations are wall-clock time).
    backend: str = "sim"
    #: Shard count of the parallel simulation engine (1 = sequential kernel).
    jobs: int = 1
    #: Why the parallel engine refused to shard the run (``None`` when it ran
    #: sharded or when ``jobs=1`` was requested in the first place).
    parallel_fallback_reason: Optional[str] = None
    #: Shard count the last epoch actually used (1 after a fallback).
    effective_jobs: int = 1
    #: Training steps a fused runner ran (block-visit entries, verified
    #: steps) and handed back to the per-step path, the latter by reason,
    #: real-backend block visits whose write lost a race, and the
    #: simulator's commits of block-visit numerics with the visits they ran
    #: (:class:`~repro.ml.common.FusedLaneCounts`); all 0 where the system
    #: or engine offers no runner.
    fused_steps: int = 0
    declined_steps: int = 0
    decline_reasons: Dict[str, int] = field(default_factory=dict)
    visit_conflicts: int = 0
    visit_commits: int = 0
    committed_visits: int = 0
    #: The run's :class:`~repro.obs.Tracer` when tracing was enabled (call
    #: ``result.tracer.export(path)`` / ``.summary()``); ``None`` otherwise.
    tracer: Optional[Any] = field(default=None, compare=False, repr=False)

    @property
    def epoch_duration(self) -> float:
        """Mean epoch run time (simulated or wall seconds, per ``backend``)."""
        return sum(epoch.duration for epoch in self.epochs) / len(self.epochs)

    @property
    def final_loss(self) -> Optional[float]:
        """Loss after the last epoch (None if not computed)."""
        return self.epochs[-1].loss

    @property
    def parallelism(self) -> str:
        """Human-readable parallelism label, e.g. ``"4x4"``."""
        return f"{self.num_nodes}x{self.workers_per_node}"


def _task_result(
    task: str,
    system: str,
    ps: ParameterServer,
    epochs: List[EpochResult],
    trainer: Any,
    backend: str = "sim",
) -> TaskRunResult:
    """What a finished run of ``trainer`` on ``ps`` reports; a traced run
    also exports its fusion and fallback decisions."""
    result = TaskRunResult(
        task=task,
        system=system,
        num_nodes=ps.cluster.num_nodes,
        workers_per_node=ps.cluster.workers_per_node,
        epochs=epochs,
        metrics=ps.metrics(),
        remote_messages=ps.network.stats.remote_messages,
        bytes_sent=ps.network.stats.bytes_sent,
        backend=backend,
        jobs=ps.jobs,
        parallel_fallback_reason=ps._last_fallback_reason,
        effective_jobs=ps._last_effective_jobs,
        fused_steps=trainer.fused_steps,
        declined_steps=trainer.declined_steps,
        decline_reasons=dict(trainer.decline_reasons),
        visit_conflicts=trainer.visit_conflicts,
        visit_commits=trainer.visit_commits,
        committed_visits=trainer.committed_visits,
        tracer=ps.tracer,
    )
    if ps.tracer is not None:
        ps.tracer.decisions = {
            "fused_steps": result.fused_steps,
            "declined_steps": result.declined_steps,
            "decline_reasons": result.decline_reasons,
            "visit_conflicts": result.visit_conflicts,
            "visit_commits": result.visit_commits,
            "committed_visits": result.committed_visits,
            "parallel_fallback_reason": result.parallel_fallback_reason,
        }
    return result


# ------------------------------------------------------------------ workloads
@dataclass(frozen=True)
class MFScale:
    """Scaled-down matrix-factorization workload (paper: 10m x 1m / 3.4m x 3m, 1b entries).

    The defaults are chosen so that, with the default cost model, the
    communication-to-computation ratio reproduces the qualitative behaviour of
    Figure 6: the classic PS does not benefit from distribution while Lapse
    scales with the number of nodes.
    """

    num_rows: int = 256
    num_cols: int = 64
    num_entries: int = 12000
    rank: int = 8
    compute_time_per_entry: float = 25e-6


@dataclass(frozen=True)
class KGEScale:
    """Scaled-down KGE workload (paper: DBpedia-500k, 3M triples).

    The default corresponds to the "small" model configuration (frequent PS
    accesses relative to computation — high communication overhead); the
    figure-7 benchmarks pass explicit scales for the large models, whose
    higher per-triple computation time reproduces their lower
    communication-to-computation ratio (Table 4).
    """

    num_entities: int = 300
    num_relations: int = 8
    num_triples: int = 1200
    entity_dim: int = 4
    num_negatives: int = 2
    compute_time_per_triple: float = 10e-6


@dataclass(frozen=True)
class W2VScale:
    """Scaled-down word-vector workload (paper: One Billion Word benchmark)."""

    vocabulary_size: int = 800
    num_sentences: int = 120
    mean_sentence_length: int = 6
    dim: int = 8
    window: int = 2
    num_negatives: int = 3
    compute_time_per_pair: float = 60e-6
    word_skew: float = 0.8
    presample_size: int = 100
    presample_refresh: int = 80


def _cluster(num_nodes: int, workers_per_node: int, seed: int, cost_model: Optional[CostModel]) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=num_nodes,
        workers_per_node=workers_per_node,
        seed=seed,
        cost_model=cost_model or CostModel(),
    )


def run_mf_experiment(
    system: str,
    num_nodes: int,
    scale: Optional[MFScale] = None,
    workers_per_node: int = PAPER_WORKERS_PER_NODE,
    epochs: int = 1,
    compute_loss: bool = False,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    durability: Optional[Any] = None,
    backend: str = "sim",
    jobs: int = 1,
    trace: Optional[Any] = None,
) -> TaskRunResult:
    """Run DSGD matrix factorization (Figures 6 and 9).

    With ``backend="real"`` the same workload executes on actual worker
    processes (classic, classic_fast_local, lapse) and epoch durations are
    wall-clock seconds.  ``trace`` installs the tracing subsystem (ignored by
    the handle-free ``lowlevel`` baseline).
    """
    from repro.data.synthetic_matrix import generate_matrix
    from repro.ml.matrix_factorization import MatrixFactorizationConfig, MatrixFactorizationTrainer

    scale = scale or MFScale()
    matrix = generate_matrix(
        scale.num_rows, scale.num_cols, scale.num_entries, rank=scale.rank, seed=seed
    )
    cluster = _cluster(num_nodes, workers_per_node, seed, cost_model)
    mf_config = MatrixFactorizationConfig(
        rank=scale.rank, compute_time_per_entry=scale.compute_time_per_entry
    )
    if system == "lowlevel" and backend != "sim":
        raise ExperimentError("the low-level baseline only runs on the simulator")
    if system == "lowlevel":
        from repro.manual import LowLevelDSGD, LowLevelDSGDConfig

        baseline = LowLevelDSGD(
            cluster,
            matrix,
            LowLevelDSGDConfig(
                rank=scale.rank, compute_time_per_entry=scale.compute_time_per_entry
            ),
            seed=seed,
        )
        epoch_results = baseline.train(num_epochs=epochs, compute_loss=compute_loss)
        return TaskRunResult(
            task="matrix_factorization",
            system=system,
            num_nodes=num_nodes,
            workers_per_node=workers_per_node,
            epochs=epoch_results,
            metrics=None,
            remote_messages=baseline.remote_messages,
            bytes_sent=baseline.bytes_sent,
        )
    ps_config = ParameterServerConfig(num_keys=scale.num_cols, value_length=scale.rank)
    ps = make_parameter_server(
        system,
        cluster,
        ps_config,
        durability=durability,
        backend=backend,
        jobs=jobs,
        trace=trace,
    )
    try:
        trainer = MatrixFactorizationTrainer(ps, matrix, mf_config, seed=seed)
        epoch_results = trainer.train(num_epochs=epochs, compute_loss=compute_loss)
        return _task_result("matrix_factorization", system, ps, epoch_results, trainer, backend)
    finally:
        if backend == "real":
            ps.shutdown()


def run_kge_experiment(
    system: str,
    num_nodes: int,
    model: str = "complex",
    scale: Optional[KGEScale] = None,
    workers_per_node: int = PAPER_WORKERS_PER_NODE,
    epochs: int = 1,
    compute_loss: bool = False,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    durability: Optional[Any] = None,
    backend: str = "sim",
    jobs: int = 1,
    trace: Optional[Any] = None,
) -> TaskRunResult:
    """Run knowledge-graph-embedding training (Figures 1 and 7, Table 5)."""
    from repro.data.synthetic_graph import generate_knowledge_graph
    from repro.ml.kge import KGEConfig, KGEKeySpace, KGETrainer

    scale = scale or KGEScale()
    graph = generate_knowledge_graph(
        num_entities=scale.num_entities,
        num_relations=scale.num_relations,
        num_triples=scale.num_triples,
        seed=seed,
    )
    kge_config = KGEConfig(
        model=model,
        entity_dim=scale.entity_dim,
        num_negatives=scale.num_negatives,
        compute_time_per_triple=scale.compute_time_per_triple,
        latency_hiding=system != "lapse_clustering_only",
    )
    keyspace = KGEKeySpace(graph, kge_config)
    cluster = _cluster(num_nodes, workers_per_node, seed, cost_model)
    ps_config = ParameterServerConfig(
        num_keys=keyspace.num_keys, value_length=kge_config.value_length
    )
    ps = make_parameter_server(
        system,
        cluster,
        ps_config,
        durability=durability,
        backend=backend,
        jobs=jobs,
        trace=trace,
    )
    try:
        trainer = KGETrainer(ps, graph, kge_config, seed=seed)
        epoch_results = trainer.train(num_epochs=epochs, compute_loss=compute_loss)
        return _task_result(f"kge_{model}", system, ps, epoch_results, trainer, backend)
    finally:
        if backend == "real":
            ps.shutdown()


# ------------------------------------------------------------ elastic clusters
def make_elastic_mf(
    system: str,
    num_nodes: int,
    initial_nodes: Optional[Sequence[int]] = None,
    schedule: Optional[ClusterSchedule] = None,
    scale: Optional[MFScale] = None,
    workers_per_node: int = PAPER_WORKERS_PER_NODE,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    durability: Optional[Any] = None,
    trace: Optional[Any] = None,
):
    """Build an elastic matrix-factorization run: ``(elastic, trainer)``.

    ``num_nodes`` is the cluster *capacity*; ``initial_nodes`` (default: all)
    are active at start, the rest is reserve that a scheduled ``join`` can
    bring in.  The PS is built over an
    :class:`~repro.ps.partition.ElasticPartitioner` restricted to the initial
    nodes, so reserve nodes hold no keys until they join.

    Drive epochs with ``elastic.run_epoch(trainer, compute_loss=...)``.
    """
    if system == "lowlevel":
        raise ExperimentError("the low-level baseline does not support elastic clusters")
    from repro.cluster import ElasticCluster
    from repro.data.synthetic_matrix import generate_matrix
    from repro.ml.matrix_factorization import MatrixFactorizationConfig, MatrixFactorizationTrainer

    scale = scale or MFScale()
    matrix = generate_matrix(
        scale.num_rows, scale.num_cols, scale.num_entries, rank=scale.rank, seed=seed
    )
    cluster = _cluster(num_nodes, workers_per_node, seed, cost_model)
    ps_config = ParameterServerConfig(num_keys=scale.num_cols, value_length=scale.rank)
    partitioner = ElasticPartitioner(scale.num_cols, num_nodes, active_nodes=initial_nodes)
    ps = make_parameter_server(
        system,
        cluster,
        ps_config,
        partitioner=partitioner,
        durability=durability,
        trace=trace,
    )
    elastic = ElasticCluster(ps, initial_nodes=initial_nodes, schedule=schedule)
    mf_config = MatrixFactorizationConfig(
        rank=scale.rank, compute_time_per_entry=scale.compute_time_per_entry
    )
    trainer = MatrixFactorizationTrainer(ps, matrix, mf_config, seed=seed)
    return elastic, trainer


def run_elastic_mf_experiment(
    system: str,
    num_nodes: int,
    initial_nodes: Optional[Sequence[int]] = None,
    schedule: Optional[ClusterSchedule] = None,
    scale: Optional[MFScale] = None,
    workers_per_node: int = PAPER_WORKERS_PER_NODE,
    epochs: int = 1,
    compute_loss: bool = False,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    durability: Optional[Any] = None,
    trace: Optional[Any] = None,
) -> TaskRunResult:
    """Elastic counterpart of :func:`run_mf_experiment`.

    Runs the same DSGD workload while the scripted ``schedule`` joins, drains,
    or fails nodes.  With an empty schedule and a full initial node set the
    run is bit-identical to :func:`run_mf_experiment` (asserted by the
    test-suite).
    """
    elastic, trainer = make_elastic_mf(
        system,
        num_nodes=num_nodes,
        initial_nodes=initial_nodes,
        schedule=schedule,
        scale=scale,
        workers_per_node=workers_per_node,
        seed=seed,
        cost_model=cost_model,
        durability=durability,
        trace=trace,
    )
    epoch_results = [
        elastic.run_epoch(trainer, compute_loss=compute_loss) for _ in range(epochs)
    ]
    return _task_result("matrix_factorization", system, elastic.ps, epoch_results, trainer)


def run_w2v_experiment(
    system: str,
    num_nodes: int,
    scale: Optional[W2VScale] = None,
    workers_per_node: int = PAPER_WORKERS_PER_NODE,
    epochs: int = 1,
    compute_error: bool = False,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    backend: str = "sim",
    jobs: int = 1,
    trace: Optional[Any] = None,
) -> TaskRunResult:
    """Run skip-gram word-vector training (Figure 8)."""
    from repro.data.synthetic_corpus import generate_corpus
    from repro.ml.word2vec import Word2VecConfig, Word2VecTrainer

    scale = scale or W2VScale()
    corpus = generate_corpus(
        vocabulary_size=scale.vocabulary_size,
        num_sentences=scale.num_sentences,
        mean_sentence_length=scale.mean_sentence_length,
        skew=scale.word_skew,
        seed=seed,
    )
    w2v_config = Word2VecConfig(
        dim=scale.dim,
        window=scale.window,
        num_negatives=scale.num_negatives,
        compute_time_per_pair=scale.compute_time_per_pair,
        latency_hiding=system not in ("classic", "classic_fast_local"),
        presample_size=scale.presample_size,
        presample_refresh=scale.presample_refresh,
    )
    cluster = _cluster(num_nodes, workers_per_node, seed, cost_model)
    ps_config = ParameterServerConfig(
        num_keys=2 * scale.vocabulary_size, value_length=scale.dim
    )
    ps = make_parameter_server(
        system, cluster, ps_config, backend=backend, jobs=jobs, trace=trace
    )
    try:
        trainer = Word2VecTrainer(ps, corpus, w2v_config, seed=seed)
        epoch_results = trainer.train(num_epochs=epochs, compute_error=compute_error)
        return _task_result("word2vec", system, ps, epoch_results, trainer, backend)
    finally:
        if backend == "real":
            ps.shutdown()
