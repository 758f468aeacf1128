"""Fused MF block visits against the withheld runner under generated churn.

A seeded generator scripts joins, drains, fails and rejoins at arbitrary
instants of each epoch — a fail may follow a join or drain of the same node,
and a node may fail, come back and fail again at consecutive instants.  The
oracle is the fused-vs-withheld check of ``test_mf_kernel.py``: equal
durations, counters, traffic, parameters and row factors, per-key WAL
records and checkpoints on a logged store, ``fused + declined == steps`` and
every declined entry under a known reason.  Resumed visits (a visit offered
again once the hazard that cut it has passed) are exactly what the random
instants exercise.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest

from repro.cluster.membership import ACTIVE, FAILED, JOINING, LEFT
from repro.cluster.schedule import DRAIN, FAIL, JOIN, REJOIN
from repro.durability import DurabilityConfig
from repro.experiments.runner import make_elastic_mf
from repro.errors import ParameterServerError
from repro.ps.base import WorkerClient
from test_mf_kernel import REASONS, SWEEP_SCALE, durable_log, live_store, observe

#: Cluster capacity; node 0 is the seed node and never leaves.
CAPACITY = 4
EPOCHS = 4


def epoch_events(rng, states, start, duration):
    """Random membership events ``(time, kind, node)`` for the epoch that
    begins at ``start``, legal from the lifecycle ``states`` at its boundary.

    Each node but the seed may first join (if it has left), drain (if
    active) or rejoin (if failed); a node that is then up may fail, then
    alternate rejoin and fail.  A draining node never fails: its drain
    completes at the next boundary, and a fail drawn past the epoch's end
    would apply after that, to a node that has left.  The first event lands
    anywhere from the boundary to 90 % of ``duration`` (the previous
    epoch's), each next one at the same instant, the next representable
    one, or later.  Joins and drains fire mid-epoch;
    fails, and whatever the script puts behind one, are held to the next
    boundary, where they apply in script order.
    """
    events = []
    for node, state in sorted(states.items()):
        if node == 0:
            continue
        script = []
        if state == LEFT and rng.random() < 0.5:
            script.append(JOIN)
        elif state == ACTIVE and rng.random() < 0.3:
            script.append(DRAIN)
        elif state == FAILED and rng.random() < 0.6:
            script.append(REJOIN)
        up = script[-1] != DRAIN if script else state in (ACTIVE, JOINING)
        if up and rng.random() < 0.4:
            script.append(FAIL)
            while rng.random() < 0.4:
                script += [REJOIN, FAIL]
            if rng.random() < 0.6:
                script.append(REJOIN)
        time = start + float(rng.choice([0.0, rng.uniform(0.0, 0.9)])) * duration
        for kind in script:
            events.append((time, kind, node))
            gap = rng.integers(3)
            if gap == 1:
                time = math.nextafter(time, math.inf)
            elif gap == 2:
                time += float(rng.uniform(0.0, 0.2)) * duration
    return events


def generated_churn(seed, system, durability, withhold):
    """``EPOCHS`` elastic epochs under the events :func:`epoch_events` draws
    (from ``seed``) at every boundary with nothing left pending."""
    rng = np.random.default_rng(seed)
    initial = [0] + [node for node in range(1, CAPACITY) if rng.random() < 0.6]
    elastic, trainer = make_elastic_mf(
        system,
        num_nodes=CAPACITY,
        initial_nodes=initial,
        scale=SWEEP_SCALE,
        workers_per_node=2,
        seed=seed,
        durability=DurabilityConfig(checkpoint_interval=0.002) if durability else None,
    )
    ps = elastic.ps
    scripted, epochs = [], []
    withheld = mock.patch.object(WorkerClient, "fused_local_steps", lambda self: None)
    with withheld if withhold else contextlib.nullcontext():
        for _ in range(EPOCHS):
            if epochs and not elastic._pending:
                states = {node: elastic.membership.state_of(node) for node in range(CAPACITY)}
                for time, kind, node in epoch_events(
                    rng, states, ps.simulated_time, epochs[-1].duration
                ):
                    getattr(elastic, f"{kind}_at")(time, node)
                    scripted.append((time, kind, node))
            epochs.append(elastic.run_epoch(trainer, compute_loss=False))
    return trainer, epochs, scripted


#: (seed, system, logged) of the generated schedules.
GENERATED = [(seed, ("lapse", "hybrid")[seed % 2], seed % 3 != 0) for seed in range(40)]

#: A hybrid owner's last broadcast, sent at the epoch boundary where it
#: crashes, reaches a subscriber that recovery has just made the key's owner
#: from its own replica: the delta arrives for a key the node no longer
#: replicates.  Whether the new owner applies it depends on the recovery
#: source (a WAL-recovered value already holds it; a replica does not).
STALE_BROADCAST = pytest.mark.xfail(
    raises=ParameterServerError, strict=True, reason="delta for a key the node no longer replicates"
)


def generated_case(seed, system, logged):
    marks = STALE_BROADCAST if seed == 15 else ()
    return pytest.param(
        seed, system, logged, id=f"{seed}-{system}-{'wal' if logged else 'volatile'}", marks=marks
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed,system,logged", [generated_case(*case) for case in GENERATED])
def test_fused_equals_withheld_under_generated_churn(seed, system, logged):
    trainer, epochs, scripted = generated_churn(seed, system, logged, withhold=False)
    oracle = generated_churn(seed, system, logged, withhold=True)
    assert scripted == oracle[2]
    assert observe(trainer, epochs) == observe(*oracle[:2])
    assert trainer.fused_steps > 0
    assert trainer.fused_steps + trainer.declined_steps == EPOCHS * trainer.matrix.num_entries
    assert sum(trainer.decline_reasons.values()) == trainer.declined_steps
    assert set(trainer.decline_reasons) <= REASONS
    if logged:
        log = durable_log(trainer.ps)
        assert log == durable_log(oracle[0].ps)
        for node, entry in log.items():
            if entry["replays"] and node in trainer.ps.durability.wals:
                assert entry["replays"][-1] == live_store(trainer.ps, node)


@STALE_BROADCAST
def test_broadcast_of_a_crashed_owner_reaches_its_recovered_successor():
    """Shrunk from generated seed 15 (hybrid, no WAL): node 3 owns key 14,
    node 2 is its only subscriber.  Node 3 broadcasts at the boundary of the
    fourth epoch and fails at it; recovery installs key 14 on node 2 from
    node 2's replica before the broadcast lands there."""
    elastic, trainer = make_elastic_mf(
        "hybrid", num_nodes=CAPACITY, initial_nodes=[0, 3], scale=SWEEP_SCALE,
        workers_per_node=2, seed=15,
    )
    for time, kind, node in [
        (0.0041464019560434745, JOIN, 1),
        (0.0036641263999999956, JOIN, 2),
        (0.0036641263999999956, FAIL, 3),
        (0.003664126399999996, REJOIN, 3),
        (0.010790081600000001, FAIL, 3),
        (0.011126949059427838, REJOIN, 3),
        (0.016409909600000022, FAIL, 1),
        (0.016409909600000022, REJOIN, 1),
        (0.021457002389436163, FAIL, 3),
    ]:
        getattr(elastic, f"{kind}_at")(time, node)
    for _ in range(EPOCHS):
        elastic.run_epoch(trainer, compute_loss=False)
