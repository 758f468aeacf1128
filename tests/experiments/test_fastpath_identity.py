"""Bit-identity sweep: engine fast paths vs one event at a time.

The hot-path machinery (immediate-dispatch ring, event pool, callback tokens,
van/server sinks, message coalescing, fused worker steps) claims to leave
simulated results *bit-identical*.  This sweep runs every system on every
workload twice — once as shipped, once with every worker step an event of its
own (``WorkerClient.fused_local_steps`` withheld) on the plain ``(time,
sequence)`` heap kernel of ``tests/simnet/reference_order.py`` — and requires
exact equality of simulated epoch durations (full float precision), message
and byte counts, training losses, and (for MF) the aggregated PS metric
counters.  ``test_golden_digests`` pins the same cells to recorded digests,
but not their losses.
"""

import os
import sys

import pytest

from repro.experiments import (
    KGEScale,
    MFScale,
    W2VScale,
    run_kge_experiment,
    run_mf_experiment,
    run_w2v_experiment,
)
from repro.ps.base import WorkerClient

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "simnet"))
import reference_order  # noqa: E402

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


def _fingerprint(result):
    """Everything the fast paths must preserve, at full float precision."""
    return {
        "durations": tuple(repr(epoch.duration) for epoch in result.epochs),
        "losses": tuple(repr(epoch.loss) for epoch in result.epochs),
        "remote_messages": result.remote_messages,
        "bytes_sent": result.bytes_sent,
    }


def _run_both(monkeypatch, fn):
    """``fn()`` as shipped, then with no fused runner on the heap-only kernel."""
    fast = fn()
    with monkeypatch.context() as plain:
        plain.setattr(WorkerClient, "fused_local_steps", lambda self: None)
        plain.setattr("repro.ps.base.Simulator", reference_order.HeapOnlySimulator)
        reference = fn()
    return fast, reference


@pytest.mark.parametrize("system", SYSTEMS)
def test_mf_bit_identical(system, monkeypatch):
    def run():
        return run_mf_experiment(
            system, num_nodes=2, workers_per_node=2, scale=MF, epochs=2
        )

    fast, reference = _run_both(monkeypatch, run)
    assert _fingerprint(fast) == _fingerprint(reference)
    # The fused/fast paths must also keep every PS metric counter intact
    # (local/remote split, latch accounting, relocation counts, ...).
    assert fast.metrics.as_dict() == reference.metrics.as_dict()


@pytest.mark.parametrize("system", SYSTEMS)
def test_kge_bit_identical(system, monkeypatch):
    def run():
        return run_kge_experiment(
            system, num_nodes=2, workers_per_node=2, scale=KGE, epochs=1
        )

    fast, reference = _run_both(monkeypatch, run)
    assert _fingerprint(fast) == _fingerprint(reference)


@pytest.mark.parametrize("system", SYSTEMS)
def test_w2v_bit_identical(system, monkeypatch):
    def run():
        return run_w2v_experiment(
            system, num_nodes=2, workers_per_node=2, scale=W2V, epochs=1
        )

    fast, reference = _run_both(monkeypatch, run)
    assert _fingerprint(fast) == _fingerprint(reference)


@pytest.mark.parametrize("system", ("lapse", "hybrid"))
def test_elastic_mf_bit_identical(system, monkeypatch):
    """Elastic lifecycles must match too, fused block visits included.

    The elastic runtime relocates keys *mid-epoch* (joins trigger rebalances
    while workers run), which would break the fused visits' privacy window;
    a visit therefore runs only its entries done before the next event, and
    none while a rebalance still moves one of its keys, and the remaining fast
    paths must stay bit-identical.
    """
    from repro.cluster import ClusterSchedule
    from repro.experiments.runner import run_elastic_mf_experiment

    def run():
        schedule = ClusterSchedule().join(0.002, node=2)
        return run_elastic_mf_experiment(
            system,
            num_nodes=3,
            initial_nodes=(0, 1),
            schedule=schedule,
            scale=MF,
            workers_per_node=2,
            epochs=2,
        )

    fast, reference = _run_both(monkeypatch, run)
    assert _fingerprint(fast) == _fingerprint(reference)
    assert fast.metrics.as_dict() == reference.metrics.as_dict()
