"""What the benchmark runs and what it reports.

This module is data: the seven workloads with their sizes and rationale, the
four end-to-end metrics with their bounds, every per-layer metric with its
unit, and the file -> layer map.  ``BENCHMARK.json`` at the repository root is
the driver-facing copy of the workload/metric tables; ``bench/tests`` checks
that the two agree.  Nothing here imports ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# ------------------------------------------------------------------- layers
#: Layers are this repo's modules, by file (see ``LAYER_RULES``).
LAYERS = (
    "simnet.kernel",
    "simnet.network",
    "simnet.parallel",
    "ps.base",
    "ps.policy",
    "ps.storage",
    "ml",
    "pal",
    "cluster",
    "durability",
    "backend",
    "obs",
    "data",
    "other",
)

#: (path under ``src/repro/``, layer).  A path ending in ``/`` maps a whole
#: package.  ``simnet/`` and ``ps/`` are split across layers, so their files
#: are listed one by one: a new file there is *unmapped* until it is added
#: here (``bench/tests`` fails on an unmapped file).
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("simnet/__init__.py", "simnet.kernel"),
    ("simnet/kernel.py", "simnet.kernel"),
    ("simnet/events.py", "simnet.kernel"),
    ("simnet/process.py", "simnet.kernel"),
    ("simnet/queues.py", "simnet.kernel"),
    ("simnet/clock.py", "simnet.kernel"),
    ("simnet/node.py", "simnet.kernel"),
    ("simnet/network.py", "simnet.network"),
    ("simnet/parallel.py", "simnet.parallel"),
    ("ps/__init__.py", "ps.base"),
    ("ps/base.py", "ps.base"),
    ("ps/futures.py", "ps.base"),
    ("ps/messages.py", "ps.base"),
    ("ps/metrics.py", "ps.base"),
    ("ps/policy.py", "ps.policy"),
    ("ps/classic.py", "ps.policy"),
    ("ps/lapse.py", "ps.policy"),
    ("ps/stale.py", "ps.policy"),
    ("ps/replica.py", "ps.policy"),
    ("ps/hybrid.py", "ps.policy"),
    ("ps/partition.py", "ps.policy"),
    ("ps/storage.py", "ps.storage"),
    ("ml/", "ml"),
    ("pal/", "pal"),
    ("cluster/", "cluster"),
    ("durability/", "durability"),
    ("backend/", "backend"),
    ("obs/", "obs"),
    ("data/", "data"),
    # The functions of config.py that run inside a timed region are the
    # message cost model (``message_size`` / ``message_time``).
    ("config.py", "simnet.network"),
    ("__init__.py", "other"),
    ("errors.py", "other"),
    ("experiments/", "other"),
    ("manual/", "other"),
    ("consistency/", "other"),
)

#: ``run.py`` fails a traced run whose ``other`` layer exceeds this share of
#: the profiled time: the split would no longer explain the wall-clock.
OTHER_SHARE_LIMIT = 0.02


def layer_of(relative_path: str) -> Optional[str]:
    """Layer of a file given its path under ``src/repro/`` (``None`` = unmapped)."""
    path = relative_path.replace("\\", "/")
    for rule, layer in LAYER_RULES:
        if path == rule or (rule.endswith("/") and path.startswith(rule)):
            return layer
    return None


# ---------------------------------------------------------------- workloads
@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs, engine, and why it is here."""

    name: str
    #: One line for BENCHMARK.json (<= 200 characters); names the clock of
    #: ``epoch_s``.
    why: str
    #: ``mf`` | ``kge`` | ``w2v`` | ``churn`` (elastic MF with durability).
    task: str
    system: str
    nodes: int
    workers_per_node: int
    epochs: int
    #: Generator arguments at full and at ``--quick`` scale.
    size: Dict[str, int]
    quick_size: Dict[str, int]
    jobs: int = 1
    backend: str = "sim"
    #: Simulated compute seconds per MF entry; 0 on the real backend so that
    #: wall-clock measures the backend and not busy-waits.
    compute_time_per_entry: float = 25e-6
    #: Clock of ``epoch_s``: simulated seconds, or wall seconds on ``real``.
    clock: str = "simulated"
    #: Layers this workload makes work / leaves (nearly) idle: a faster layer
    #: should raise ``steps_per_s`` on the first and leave it flat on the
    #: second (README interaction table, self-tests).
    stresses: Tuple[str, ...] = ()
    bypasses: Tuple[str, ...] = ()
    #: One extra repetition with ``TraceConfig()`` (``obs.on_overhead_ratio``).
    obs_run: bool = False
    #: Run the KGE engine-identity probes in this workload's traced run.
    identity_probes: bool = False
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def needs_reference(self) -> bool:
        """Whether a second child runs the same inputs on the sequential
        simulator, for the checks that compare engines."""
        return self.jobs > 1 or self.backend != "sim"


_MF_CLASSIC = dict(rows=512, cols=128, entries=10000)
_MF_CLASSIC_QUICK = dict(rows=64, cols=32, entries=1500)
_MF_LAPSE = dict(rows=1024, cols=256, entries=80000)
_MF_LAPSE_QUICK = dict(rows=128, cols=32, entries=4000)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="mf_classic",
        why="Message-bound: classic PS, every MF access is a message, so kernel, "
        "network and server handlers dominate and numerics do not. epoch_s clock: simulated.",
        task="mf", system="classic", nodes=4, workers_per_node=2, epochs=2,
        size=_MF_CLASSIC, quick_size=_MF_CLASSIC_QUICK,
        stresses=("ps.base", "simnet.kernel", "simnet.network"),
        bypasses=(
            "ml", "ps.storage", "ps.policy", "pal", "cluster", "durability", "backend",
            "simnet.parallel",
        ),
        obs_run=True,
    ),
    Workload(
        name="mf_lapse",
        why="Locality-bound: Lapse relocates MF blocks, a few dozen remote messages per "
        "epoch; fused local steps make ml and storage dominate. epoch_s clock: simulated.",
        task="mf", system="lapse", nodes=2, workers_per_node=2, epochs=2,
        size=_MF_LAPSE, quick_size=_MF_LAPSE_QUICK,
        stresses=("ml", "ps.base", "ps.storage"),
        bypasses=("simnet.kernel", "simnet.network", "pal", "cluster", "durability", "backend"),
    ),
    Workload(
        name="kge_lapse",
        why="ROADMAP target: ComplEx on Lapse, tiny-vector numerics plus data clustering and "
        "latency hiding, multi-key pulls at batch 4. epoch_s clock: simulated.",
        task="kge", system="lapse", nodes=2, workers_per_node=2, epochs=2,
        size=dict(entities=1000, triples=1300), quick_size=dict(entities=150, triples=300),
        stresses=("ml", "pal", "ps.policy", "ps.storage"),
        bypasses=("cluster", "durability", "backend", "simnet.parallel"),
        obs_run=True,
    ),
    Workload(
        name="w2v_lapse",
        why="ROADMAP target: skip-gram on Lapse, skewed hot keys and presampled negatives, "
        "most localize/relocation traffic per step. epoch_s clock: simulated.",
        task="w2v", system="lapse", nodes=2, workers_per_node=2, epochs=2,
        size=dict(vocabulary=2000, sentences=200), quick_size=dict(vocabulary=200, sentences=40),
        stresses=("ps.policy", "ps.base", "ps.storage", "ml", "pal"),
        bypasses=("cluster", "durability", "backend", "simnet.parallel"),
    ),
    Workload(
        name="mf_classic_jobs2",
        why="Sharded engine: mf_classic's configuration at jobs=2, where shard sync does "
        "most of the work; must match jobs=1 bit for bit. epoch_s clock: simulated.",
        task="mf", system="classic", nodes=4, workers_per_node=2, epochs=2, jobs=2,
        size=dict(rows=512, cols=128, entries=2200), quick_size=_MF_CLASSIC_QUICK,
        stresses=("simnet.parallel",),
        bypasses=("ml", "ps.storage", "ps.policy", "pal", "cluster", "durability", "backend"),
        identity_probes=True,
    ),
    Workload(
        name="mf_lapse_real",
        why="Real backend: Lapse MF on OS processes and shared memory, 2 nodes x 1 worker, "
        "zero simulated compute so wall time is the backend. epoch_s clock: wall.",
        task="mf", system="lapse", nodes=2, workers_per_node=1, epochs=2, backend="real",
        size=dict(rows=1024, cols=256, entries=40000), quick_size=_MF_LAPSE_QUICK,
        compute_time_per_entry=0.0, clock="wall",
        stresses=("backend", "ml"),
        bypasses=(
            "ps.base", "simnet.kernel", "simnet.network", "simnet.parallel", "cluster",
            "durability",
        ),
    ),
    Workload(
        name="mf_lapse_churn",
        why="Elastic + durable: Lapse MF while node 2 joins and node 1 drains, WAL and lazy "
        "checkpoints on; only user of cluster and durability. epoch_s clock: simulated.",
        task="churn", system="lapse", nodes=3, workers_per_node=2, epochs=5,
        size=dict(rows=512, cols=128, entries=3500), quick_size=_MF_CLASSIC_QUICK,
        stresses=("cluster", "durability", "ps.policy"),
        bypasses=("backend", "simnet.parallel", "pal"),
        extra=dict(initial_nodes=(0, 1), join_node=2, drain_node=1),
    ),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: Rank of every MF factorisation the benchmark runs.
MF_RANK = 8

# ------------------------------------------------------------------ metrics
#: (name, unit, better, bound).  ``bound`` is the share of the parent's median
#: by which the metric may worsen.  The host-clock metrics are reported in
#: reference seconds (``run.host_speed``) and still spread by 3-10 % between
#: runs of one commit on this host, hence the wide bounds.  ``epoch_s`` is
#: simulated on six workloads and repeats exactly for a fixed seed:
#: ``compare`` holds it to bound 0 there (``EXACT_ON_SIMULATED``); the bound
#: below only has to cover the spread between *different* seeds (up to 9 %),
#: which the driver's acceptance check measures.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_s", "steps/s", "higher", 0.25),
    ("epoch_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: End-to-end metrics that must not differ at all between two result sets of
#: one seed when the workload's clock is simulated.
EXACT_ON_SIMULATED = ("epoch_s",)


def _layer_metrics():
    for layer in LAYERS:
        yield (f"{layer}.self_s", "s", "lower")
        yield (f"{layer}.calls", "count", "lower")


#: Counters read from public results of untraced runs.  ``exact`` marks the
#: ones that repeat exactly on the simulator for a fixed seed.
COUNTERS = (
    ("simnet.network.remote_msgs_per_step", "msgs/step", "lower", True),
    ("simnet.network.bytes_per_step", "B/step", "lower", True),
    ("simnet.network.coalesced_share", "share", "higher", True),
    ("simnet.network.delivery_events", "count", "lower", True),
    ("ps.base.server_msgs_per_step", "msgs/step", "lower", True),
    ("ps.base.local_read_share", "share", "higher", True),
    ("ps.base.queued_ops", "count", "lower", True),
    ("ps.base.forwarded_ops", "count", "lower", True),
    ("ps.policy.relocations", "count", "lower", True),
    ("ps.policy.localize_calls", "count", "lower", True),
    ("ps.policy.cache_hit_share", "share", "higher", True),
    ("ps.policy.relocation_time_p50_s", "s", "lower", True),
    ("cluster.rebalanced_keys", "count", "lower", True),
    ("cluster.rebalance_time_mean_s", "s", "lower", True),
    ("durability.wal_appends", "count", "lower", True),
    ("durability.wal_bytes", "B", "lower", True),
    ("durability.checkpoints", "count", "lower", True),
    ("durability.lost_keys", "count", "lower", True),
    ("simnet.parallel.wall_ratio_vs_jobs1", "ratio", "lower", False),
    ("simnet.parallel.load_skew", "ratio", "lower", True),
    ("simnet.parallel.effective_jobs", "count", "higher", True),
    ("simnet.parallel.fallbacks", "count", "lower", True),
    ("simnet.parallel.child_peak_rss_mb", "MB", "lower", False),
    ("simnet.parallel.identity_checked", "count", "higher", True),
    ("simnet.parallel.identity_mismatches", "count", "lower", True),
    ("backend.mirrored_counter_mismatches", "count", "lower", False),
    ("backend.leaked_shm_segments", "count", "lower", False),
    ("backend.orphan_processes", "count", "lower", False),
    ("backend.child_peak_rss_mb", "MB", "lower", False),
    ("host.cpu_s", "s", "lower", False),
    ("host.cpu_per_wall", "ratio", "lower", False),
    ("host.speed_ratio", "ratio", "lower", False),
    ("host.raw_steps_per_s", "steps/s", "higher", False),
    ("obs.on_overhead_ratio", "ratio", "lower", False),
    ("trace.overhead_ratio", "ratio", "lower", False),
)

#: Layer probes: probe group -> its metrics.  Every traced run executes all
#: of them (about 3 s together); each is shaped after the workload named in
#: ``bench/README.md``.
PROBES = {
    "simnet.kernel": (("probe.simnet.kernel.events_per_s", "events/s", "higher"),),
    "simnet.network": (("probe.simnet.network.sends_per_s", "1/s", "higher"),),
    "ps.storage.b4": (
        ("probe.ps.storage.get_many_ns_per_row_b4", "ns/row", "lower"),
        ("probe.ps.storage.add_many_ns_per_row_b4", "ns/row", "lower"),
    ),
    "ps.storage.b256": (
        ("probe.ps.storage.get_many_ns_per_row_b256", "ns/row", "lower"),
        ("probe.ps.storage.add_many_ns_per_row_b256", "ns/row", "lower"),
    ),
    "ps.base": (
        ("probe.ps.base.read_local_many_ns_per_row", "ns/row", "lower"),
        ("probe.ps.base.write_local_many_ns_per_row", "ns/row", "lower"),
    ),
    "ml": (
        ("probe.ml.sgd_update_ns", "ns", "lower"),
        ("probe.ml.adagrad_update_ns", "ns", "lower"),
    ),
    "durability": (
        ("probe.durability.wal_append_ns_per_row", "ns/row", "lower"),
        ("probe.durability.checkpoint_us_per_krow", "us/krow", "lower"),
    ),
    "backend": (
        ("probe.backend.shm_get_many_ns_per_row", "ns/row", "lower"),
        ("probe.backend.pull_roundtrip_p50_us", "us", "lower"),
        ("probe.backend.pull_roundtrip_p99_us", "us", "lower"),
    ),
}

#: Every per-layer metric as (name, unit, better), in reporting order.  A
#: metric that does not apply to a workload (a durability counter on a run
#: without durability, the identity probes outside ``mf_classic_jobs2``) is
#: reported as 0.
PER_LAYER = (
    tuple(_layer_metrics())
    + tuple(entry[:3] for entry in COUNTERS)
    + tuple(metric for group in PROBES.values() for metric in group)
)

PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}
EXACT_COUNTERS = tuple(name for name, _unit, _better, exact in COUNTERS if exact)
