"""A known breach of the engines' bit-identity contract, pinned.

It is an ordering of *same-instant* relocation transfers that the sequential
and the sharded engine resolve differently.  It is pinned as a strict
``xfail`` rather than fixed here: the fix reorders events, which changes every
golden digest (``test_golden_digests``), so it belongs in a change of its own.
A strict ``xfail`` turns into a failure the day the breach stops reproducing,
which is the signal to delete its pin.
"""

import pytest

from repro.experiments import run_kge_experiment

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
        "jobs=2 != jobs=1: lapse KGE at the default KGEScale, 4 nodes x 2 "
        "workers, 1 epoch gives epoch 0.0656193864 s sequentially and "
        "0.0656193992 s sharded, with equal message counts.  The first "
        "divergence is two same-instant RelocationTransfers (nodes 0 and "
        "1 -> node 3, both delivered at t=0.0324861120) that the shard merge "
        "hands to node 3's server in the opposite order."
    ),
)
def test_jobs2_equals_jobs1_at_default_kge_scale():
    sequential = run_kge_experiment("lapse", **CELL)
    sharded = run_kge_experiment("lapse", jobs=2, **CELL)
    assert sharded.effective_jobs == 2
    assert _fingerprint(sequential) == _fingerprint(sharded)
