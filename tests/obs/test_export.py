"""Trace export: Chrome trace-event schema, elastic markers, report CLI.

Covers the Perfetto/Chrome trace-event JSON produced by
``Tracer.export`` — schema validity (``validate_trace``), the span
taxonomy (op/server/net/relocation lanes, instant markers, counter
series), an elastic lifecycle whose relocations and membership events
must appear in the exported timeline, and the ``python -m
repro.obs.report`` command-line summarizer.
"""

import json

import pytest

from repro.cluster import ClusterSchedule
from repro.errors import ObservabilityError
from repro.experiments import MFScale, run_mf_experiment
from repro.experiments.runner import make_elastic_mf
from repro.obs import TraceConfig, load_trace, validate_trace
from repro.obs.export import NETWORK_TID, RELOCATION_TID, SERVER_TID
from repro.obs.report import main as report_main

MF = MFScale(num_rows=32, num_cols=16, num_entries=300, rank=4)
NODES = dict(num_nodes=4, workers_per_node=2, epochs=2, seed=3)


@pytest.fixture(scope="module")
def traced_run():
    return run_mf_experiment("lapse", scale=MF, trace=TraceConfig(), **NODES)


@pytest.fixture(scope="module")
def document(traced_run):
    return traced_run.tracer.to_dict()


def test_export_is_schema_valid(document):
    validate_trace(document)


def test_export_roundtrips_through_file(tmp_path, traced_run):
    path = tmp_path / "trace.json"
    exported = traced_run.tracer.export(str(path))
    validate_trace(exported)
    loaded = load_trace(str(path))
    assert loaded == json.loads(json.dumps(exported))


def test_export_covers_all_lanes(document):
    events = document["traceEvents"]
    phases = {event["ph"] for event in events}
    assert "X" in phases and "M" in phases and "C" in phases
    tids = {event["tid"] for event in events if event["ph"] == "X"}
    assert SERVER_TID in tids  # server handling lane
    assert NETWORK_TID in tids  # wire messages lane
    assert RELOCATION_TID in tids  # lapse relocations lane
    assert 0 in tids  # per-worker op spans
    pids = {event["pid"] for event in events if event["ph"] == "X"}
    assert pids == set(range(NODES["num_nodes"]))


def test_export_metadata_and_summary(document):
    repro = document["repro"]
    assert repro["system"] == "lapse"
    assert repro["time_domain"] == "sim"
    assert repro["summary"]["span_count"] > 0
    assert repro["heatmap"]  # per-key access heatmap present
    assert document["displayTimeUnit"] == "ms"


def test_elastic_lifecycle_markers_and_relocations(tmp_path):
    """A join mid-run shows up as membership markers plus relocation spans."""
    schedule = ClusterSchedule().join(0.002, node=2)
    elastic, trainer = make_elastic_mf(
        "lapse",
        num_nodes=3,
        initial_nodes=(0, 1),
        schedule=schedule,
        scale=MF,
        workers_per_node=2,
        seed=3,
        trace=TraceConfig(),
    )
    for _ in range(2):
        elastic.run_epoch(trainer)
    tracer = elastic.ps.tracer
    document = tracer.export(str(tmp_path / "elastic.json"))
    validate_trace(document)
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    names = {e["name"] for e in instants}
    assert any(name.startswith("membership:join") for name in names), names
    assert any(name.startswith("rebalance:") for name in names), names
    relocations = [
        e
        for e in document["traceEvents"]
        if e["ph"] == "X" and e.get("cat") == "relocation"
    ]
    assert relocations  # ownership moved during the join and the training


def test_report_cli(tmp_path, traced_run, capsys):
    path = tmp_path / "trace.json"
    traced_run.tracer.export(str(path))
    assert report_main([str(path), "--validate", "--top", "3"]) == 0
    output = capsys.readouterr().out
    assert "schema OK" in output
    assert "system=lapse" in output
    assert "Operation latency" in output
    assert "Hottest keys" in output


def test_report_cli_rejects_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"traceEvents": [{"ph": "Z", "name": 3}]}))
    assert report_main([str(path), "--validate"]) == 1


def test_validate_rejects_malformed_events():
    with pytest.raises(ObservabilityError):
        validate_trace({"traceEvents": [{"ph": "X", "name": "op"}]})
    with pytest.raises(ObservabilityError):
        validate_trace({"traceEvents": "nope"})
    with pytest.raises(ObservabilityError):
        validate_trace([])


def test_selective_kinds():
    """Per-kind switches drop exactly their span families."""
    config = TraceConfig(server=False, network=False, metrics_interval=None)
    result = run_mf_experiment("lapse", scale=MF, trace=config, **NODES)
    for trace in result.tracer.node_traces():
        assert not trace.server
        assert not trace.net
        assert not trace.samples
        assert trace.ops  # op spans still recorded


def test_report_shows_the_decisions_of_a_traced_churn_run(tmp_path, capsys):
    """A churn run's fused and declined steps (by reason), visit conflicts,
    visit commits and parallel fallback travel in the exported trace to the
    report.  With a WAL every visit commits on its own."""
    from repro.durability import DurabilityConfig
    from repro.experiments.runner import run_elastic_mf_experiment

    result = run_elastic_mf_experiment(
        "lapse",
        num_nodes=3,
        initial_nodes=(0, 1),
        schedule=ClusterSchedule().join(0.002, node=2),
        scale=MF,
        workers_per_node=2,
        epochs=2,
        seed=3,
        durability=DurabilityConfig(checkpoint_interval=0.002),
        trace=TraceConfig(),
    )
    reasons = result.decline_reasons
    assert result.fused_steps > 0 and {"checkpoint", "membership event"} <= set(reasons)
    path = tmp_path / "churn.json"
    result.tracer.export(str(path))
    assert load_trace(str(path))["repro"]["decisions"] == {
        "fused_steps": result.fused_steps,
        "declined_steps": result.declined_steps,
        "decline_reasons": reasons,
        "visit_conflicts": 0,
        "visit_commits": result.visit_commits,
        "committed_visits": result.visit_commits,
        "parallel_fallback_reason": None,
    }
    assert report_main([str(path)]) == 0
    output = capsys.readouterr().out
    assert f"Decisions: {result.fused_steps} steps fused, {result.declined_steps} declined" in output
    for reason, count in reasons.items():
        assert f"declined  {count:>8}  {reason}" in output
    assert "visit conflicts: 0" in output and "parallel fallback: none" in output
    commits = result.visit_commits
    assert commits > 0
    assert f"visit commits: {commits} ({commits} visits, 1.00 per commit)" in output
