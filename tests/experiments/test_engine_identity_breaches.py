"""Two known breaches of the engines' bit-identity contract, pinned.

Both are orderings of *same-instant* relocation transfers that the three
engines resolve differently.  They are pinned as strict ``xfail`` rather than
fixed here: the fix reorders events, which changes every golden digest
(``test_golden_digests``), so it belongs in a change of its own.  A strict
``xfail`` turns into a failure the day a breach stops reproducing, which is
the signal to delete its pin.
"""

import pytest

from repro.experiments import KGEScale, run_kge_experiment

CELL = dict(num_nodes=4, workers_per_node=2, seed=0)


def _fingerprint(result):
    return (
        tuple(repr(epoch.duration) for epoch in result.epochs),
        result.remote_messages,
        result.bytes_sent,
        result.metrics.as_dict(),
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "fast != reference: lapse KGE, 4 nodes x 2 workers, 200 entities / 600 "
        "triples gives epoch 0.03307882 s / 4694 remote messages on the fast "
        "engine and 0.03270075 s / 4760 under REPRO_DISABLE_FASTPATH=1 (default "
        "KGEScale: 0.06561939 / 11886 vs 0.06425305 / 11694).  _server_receive "
        "draws the handler's tie-break sequence when the message *arrives*, the "
        "generator _server_loop when its service *starts*; when two servers each "
        "queue a message behind busy periods that end at the same instant (nodes "
        "0 and 2, both free at t=0.0010837144, both handlers at t=0.0010852144) "
        "their RelocationTransfers to node 3 are sent, and handled, in opposite "
        "order."
    ),
)
def test_fast_engine_equals_reference_engine_at_mid_scale(monkeypatch):
    scale = KGEScale(num_entities=200, num_triples=600)
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    fast = run_kge_experiment("lapse", scale=scale, **CELL)
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    reference = run_kge_experiment("lapse", scale=scale, **CELL)
    assert _fingerprint(fast) == _fingerprint(reference)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "jobs=2 != jobs=1: lapse KGE at the default KGEScale, 4 nodes x 2 "
        "workers, 1 epoch gives epoch 0.0656193864 s sequentially and "
        "0.0656193992 s sharded, with equal message counts.  The first "
        "divergence is again two same-instant RelocationTransfers (nodes 0 and "
        "1 -> node 3, both delivered at t=0.0324861120) that the shard merge "
        "hands to node 3's server in the opposite order."
    ),
)
def test_jobs2_equals_jobs1_at_default_kge_scale(monkeypatch):
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    sequential = run_kge_experiment("lapse", **CELL)
    sharded = run_kge_experiment("lapse", jobs=2, **CELL)
    assert sharded.effective_jobs == 2
    assert _fingerprint(sequential) == _fingerprint(sharded)
