"""Bit-identity sweep: traced runs vs untraced runs.

The tracing subsystem (``repro.obs``) claims to be *pure observation*: the
hooks read already-computed simulated times and append to Python lists, but
schedule no kernel events, send no messages, and draw from no RNG.  This
sweep runs every system with tracing enabled and requires exact equality of
simulated epoch durations (full float precision), message and byte counts,
training losses, the aggregated PS metric counters, and (spot-checked) the
final model parameters.

It also covers composition with the parallel shard engine: a ``jobs=2``
traced run must merge the shard-recorded span buffers into the same trace a
sequential traced run produces.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import (
    KGEScale,
    MFScale,
    W2VScale,
    make_parameter_server,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)
from repro.obs import TraceConfig

#: Every PS variant of the runner that supports all three workloads.
SYSTEMS = (
    "classic",
    "classic_fast_local",
    "lapse",
    "stale_ssp",
    "stale_ssppush",
    "replica",
    "hybrid",
)

MF = MFScale(num_rows=32, num_cols=16, num_entries=300, rank=4)
KGE = KGEScale(num_entities=40, num_relations=4, num_triples=60, entity_dim=2)
W2V = W2VScale(vocabulary_size=50, num_sentences=8)

NODES = dict(num_nodes=4, workers_per_node=2, epochs=2, seed=3)


def _fingerprint(result):
    return (
        tuple(repr(epoch.duration) for epoch in result.epochs),
        tuple(repr(epoch.loss) for epoch in result.epochs),
        result.remote_messages,
        result.bytes_sent,
        result.metrics.as_dict() if result.metrics else None,
    )


@pytest.mark.parametrize("system", SYSTEMS)
def test_mf_traced_identical(system):
    plain = run_mf_experiment(system, scale=MF, compute_loss=True, **NODES)
    traced = run_mf_experiment(
        system, scale=MF, compute_loss=True, trace=TraceConfig(), **NODES
    )
    assert plain.tracer is None
    assert traced.tracer is not None
    assert traced.tracer.span_count() > 0
    assert _fingerprint(plain) == _fingerprint(traced)


@pytest.mark.parametrize("system", ("classic", "lapse"))
def test_kge_traced_identical(system):
    plain = run_kge_experiment(system, scale=KGE, compute_loss=True, **NODES)
    traced = run_kge_experiment(
        system, scale=KGE, compute_loss=True, trace=TraceConfig(), **NODES
    )
    assert _fingerprint(plain) == _fingerprint(traced)


@pytest.mark.parametrize("system", ("lapse",))
def test_w2v_traced_identical(system):
    plain = run_w2v_experiment(system, scale=W2V, compute_error=True, **NODES)
    traced = run_w2v_experiment(
        system, scale=W2V, compute_error=True, trace=TraceConfig(), **NODES
    )
    assert _fingerprint(plain) == _fingerprint(traced)


def test_disabled_config_is_untraced():
    """``TraceConfig(enabled=False)`` installs nothing (the off switch)."""
    result = run_mf_experiment(
        "lapse", scale=MF, trace=TraceConfig(enabled=False), **NODES
    )
    assert result.tracer is None


def _train_mf(system, trace):
    from repro.config import ClusterConfig, ParameterServerConfig
    from repro.data import generate_matrix
    from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer

    cluster = ClusterConfig(num_nodes=4, workers_per_node=2)
    matrix = generate_matrix(num_rows=32, num_cols=16, num_entries=300, seed=3)
    ps = make_parameter_server(
        system,
        cluster,
        ParameterServerConfig(num_keys=matrix.num_cols, value_length=4),
        trace=trace,
    )
    trainer = MatrixFactorizationTrainer(
        ps, matrix, MatrixFactorizationConfig(rank=4), seed=3
    )
    trainer.train(num_epochs=2, compute_loss=False)
    return trainer.column_factors(), trainer.row_factors


@pytest.mark.parametrize("system", ("lapse", "hybrid"))
def test_mf_model_parameters_bit_identical(system):
    """Final model parameters match exactly, not just aggregate counters."""
    plain_cols, plain_rows = _train_mf(system, trace=None)
    traced_cols, traced_rows = _train_mf(system, trace=TraceConfig())
    assert np.array_equal(plain_cols, traced_cols)
    assert np.array_equal(plain_rows, traced_rows)


def test_jobs2_traced_identical_and_merged():
    """Tracing composes with the parallel engine: same results, same spans."""
    seq = run_mf_experiment(
        "lapse", scale=MF, compute_loss=True, trace=TraceConfig(), **NODES
    )
    par = run_mf_experiment(
        "lapse", scale=MF, compute_loss=True, trace=TraceConfig(), jobs=2, **NODES
    )
    assert par.jobs == 2
    assert _fingerprint(seq) == _fingerprint(par)
    # The shard processes recorded the spans; the merged driver-side buffers
    # must contain exactly what the sequential run recorded.
    assert par.tracer.span_count() == seq.tracer.span_count()
    seq_traces = {t.node: t for t in seq.tracer.node_traces()}
    par_traces = {t.node: t for t in par.tracer.node_traces()}
    assert set(seq_traces) == set(par_traces) == set(range(4))
    for node, seq_trace in seq_traces.items():
        par_trace = par_traces[node]
        assert sorted(seq_trace.ops) == sorted(par_trace.ops)
        assert sorted(seq_trace.server) == sorted(par_trace.server)
        assert sorted(seq_trace.net) == sorted(par_trace.net)
        assert sorted(seq_trace.reloc) == sorted(par_trace.reloc)


#: sha256 over every node's op spans, heatmap, latency histograms and counter
#: samples of the traced MF run below, recorded at the commit whose asserted
#: lane still emitted one ``fused_pull`` / ``fused_push`` span per entry as
#: the trainer stepped through them (``try_pull`` / ``push`` / ``advance``).
PER_ENTRY_LANE_TRACES = {
    "lapse": "bc8f049567c45ea51e41d7200704f4ab5a50dede980aa1dc60c57e69f6b78a1e",
    "hybrid": "bc8f049567c45ea51e41d7200704f4ab5a50dede980aa1dc60c57e69f6b78a1e",
    "classic_fast_local": "00abfe49742d6719ff0d663c55b04321323df903485adc6332b5125fe1ba9a9a",
}


@pytest.mark.parametrize("system", sorted(PER_ENTRY_LANE_TRACES))
def test_mf_block_visit_reports_the_per_entry_spans(system, monkeypatch):
    """The block-visit kernel replays the worker clock once per visit and
    reports the spans from the replayed instants: same spans, in the same
    order, as when every entry was stepped through on its own."""
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    result = run_mf_experiment(
        system, scale=MF, compute_loss=False, trace=TraceConfig(), **NODES
    )
    traces = result.tracer.node_traces()
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(repr(trace.ops).encode())
        digest.update(
            repr(sorted((key, sorted(buckets.items())) for key, buckets in trace.heat.items())).encode()
        )
        digest.update(
            repr(sorted((name, sorted(vars(stat).items())) for name, stat in trace.hist.items())).encode()
        )
        digest.update(repr(trace.samples).encode())
    assert digest.hexdigest() == PER_ENTRY_LANE_TRACES[system]
    fused = [op for trace in traces for op in trace.ops if op[0].startswith("fused_")]
    event = [op for trace in traces for op in trace.ops if op[0] in ("pull", "push")]
    # 238 entries x 2 epochs; static allocation fuses only the visits whose
    # block is local and sends the others through the event loop.
    expected = {"classic_fast_local": (208, 744)}.get(system, (952, 0))
    assert (len(fused), len(event)) == expected


def test_w2v_spans_identical_whether_pairs_fuse_or_not(monkeypatch):
    """A verified fused step reports the ``pull``/``push`` spans (type, worker,
    times, key count), heatmap counts and latency histograms of the event
    path it replaces: the trace of a run where most pairs fuse equals the
    trace of the same run with the runner withheld."""
    from repro.ps.base import FusedLocalSteps, WorkerClient

    taken = []
    verified_step = FusedLocalSteps.step

    def counting_step(self, keys, compute_time, kernel):
        wake = verified_step(self, keys, compute_time, kernel)
        taken.append(wake is not None)
        return wake

    monkeypatch.setattr(FusedLocalSteps, "step", counting_step)

    def run():
        result = run_w2v_experiment(
            "lapse", scale=W2V, compute_error=False, trace=TraceConfig(), **NODES
        )
        return result, result.tracer.node_traces()

    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    fused, fused_traces = run()
    assert 0 < sum(taken) < len(taken)  # both lanes contributed spans
    monkeypatch.setattr(WorkerClient, "fused_local_steps", lambda self: None)
    event, event_traces = run()
    assert _fingerprint(fused) == _fingerprint(event)
    assert any(op[0] in ("pull", "push") for trace in fused_traces for op in trace.ops)
    for fused_trace, event_trace in zip(fused_traces, event_traces):
        assert fused_trace.ops == event_trace.ops
        assert fused_trace.heat == event_trace.heat
        assert {name: vars(stat) for name, stat in fused_trace.hist.items()} == {
            name: vars(stat) for name, stat in event_trace.hist.items()
        }
        assert fused_trace.samples == event_trace.samples
