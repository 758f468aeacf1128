"""The MF block-visit kernel against the per-entry event loop.

A visit the runner takes (``FusedLocalSteps.visit``) runs its entries level by
level (``level_schedule``) instead of one pull / update / push at a time.  The
oracle is the same trainer with the runner withheld: model, row factors, epoch
durations, every counter and the traffic must agree byte for byte.  A visit
the runner refuses takes the event loop; every refusal has a test.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_matrix
from repro.data.synthetic_matrix import SyntheticMatrix
from repro.durability import DurabilityConfig
from repro.experiments.runner import MFScale, make_elastic_mf, make_parameter_server
from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer
from repro.ml.matrix_factorization import level_schedule
from repro.ps.base import WorkerClient

RANKS = (1, 2, 8, 33)
SYSTEMS = ("lapse", "hybrid", "classic_fast_local")


def coordinate_matrix(num_rows, num_cols, rows, cols, seed):
    """A matrix from explicit coordinates; a cell may be revealed repeatedly."""
    rng = np.random.default_rng(seed)
    empty = np.empty((0, 0))
    return SyntheticMatrix(
        num_rows=num_rows,
        num_cols=num_cols,
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        values=rng.normal(size=len(rows)),
        true_row_factors=empty,
        true_col_factors=empty,
    )


def train(
    system, matrix, rank=4, compute_time=2e-6, nodes=2, workers=2, jobs=1, seed=3,
    withhold=False, durability=None,
):
    """Two epochs; ``withhold`` hands the trainer no runner (the oracle)."""
    ps = make_parameter_server(
        system,
        ClusterConfig(num_nodes=nodes, workers_per_node=workers, seed=seed),
        ParameterServerConfig(num_keys=matrix.num_cols, value_length=rank),
        jobs=jobs,
        durability=durability,
    )
    config = MatrixFactorizationConfig(rank=rank, compute_time_per_entry=compute_time)
    trainer = MatrixFactorizationTrainer(ps, matrix, config, seed=seed)
    if withhold:
        with mock.patch.object(WorkerClient, "fused_local_steps", lambda self: None):
            epochs = trainer.train(num_epochs=2, compute_loss=False)
    else:
        epochs = trainer.train(num_epochs=2, compute_loss=False)
    return trainer, epochs


def observe(trainer, epochs):
    ps = trainer.ps
    return {
        "parameters": ps.all_parameters().tobytes(),
        "row_factors": trainer.row_factors.tobytes(),
        "durations": [repr(epoch.duration) for epoch in epochs],
        "metrics": ps.metrics().as_dict(),
        "network": repr(ps.network.stats),
        "latches": [state.latches.acquisitions for state in ps.states],
        "now": repr(ps.simulated_time),
    }


def observe_across_engines(trainer, epochs):
    """``observe`` without the physical batching of deliveries, which differs
    between the fast, the reference and the sharded engine."""
    seen = observe(trainer, epochs)
    stats = trainer.ps.network.stats
    seen["network"] = (stats.messages_sent, stats.remote_messages, stats.bytes_sent)
    return seen


def assert_kernel_equals_event_loop(system, matrix, **kwargs):
    kernel = train(system, matrix, **kwargs)
    oracle = train(system, matrix, withhold=True, **kwargs)
    assert observe(*kernel) == observe(*oracle)
    assert (oracle[0].fused_steps, oracle[0].declined_steps) == (0, 0)
    return kernel


# ------------------------------------------------------------ the schedule
@st.composite
def visits(draw):
    """Rows and columns of one visit; small ranges force long chains."""
    size = draw(st.integers(0, 60))
    num_rows = draw(st.sampled_from([1, 2, 5, 40]))
    num_cols = draw(st.sampled_from([1, 2, 5, 40]))
    rows, cols = (
        draw(st.lists(st.integers(0, bound - 1), min_size=size, max_size=size))
        for bound in (num_rows, num_cols)
    )
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


@given(visit=visits())
@settings(max_examples=200, deadline=None)
def test_levels_partition_the_visit_and_respect_every_dependency(visit):
    rows, cols = visit
    order, bounds = level_schedule(rows, cols)
    assert sorted(order.tolist()) == list(range(len(rows)))
    assert bounds[0] == 0 and bounds[-1] == len(rows)
    assert all(low < high for low, high in zip(bounds, bounds[1:]))
    level = np.zeros(len(rows), dtype=np.int64)
    for number, (low, high) in enumerate(zip(bounds, bounds[1:]), start=1):
        members = order[low:high]
        level[members] = number
        assert len(set(rows[members].tolist())) == len(members)
        assert len(set(cols[members].tolist())) == len(members)
    for entry in range(len(rows)):
        before = np.arange(entry)
        same_row = level[before[rows[:entry] == rows[entry]]]
        same_col = level[before[cols[:entry] == cols[entry]]]
        previous = [found[-1] for found in (same_row, same_col) if len(found)]
        assert level[entry] == 1 + max(previous, default=0)


def test_a_single_row_or_a_single_column_is_one_entry_per_level():
    chain = np.zeros(7, dtype=np.int64)
    spread = np.arange(7, dtype=np.int64)
    for rows, cols in ((chain, spread), (spread, chain)):
        order, bounds = level_schedule(rows, cols)
        assert order.tolist() == list(range(7))
        assert bounds == list(range(8))
    assert level_schedule(spread, spread)[1] == [0, 7]


# -------------------------------------------------- kernel vs event loop
@st.composite
def matrices(draw):
    """Coordinate lists with repeated cells, a single row or a single column
    (every entry of a visit then depends on the one before), and so few
    entries that some (worker, block) cells stay empty."""
    shape = draw(st.sampled_from(["scattered", "single_row", "single_column"]))
    num_rows = 1 if shape == "single_row" else draw(st.integers(2, 12))
    num_cols = draw(st.integers(4, 12))
    size = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, num_rows, size=size)
    cols = rng.integers(0, num_cols, size=size)
    if shape == "single_column":
        cols[:] = cols[0]
    return coordinate_matrix(num_rows, num_cols, rows, cols, seed=int(rng.integers(2**31)))


@given(
    matrix=matrices(),
    rank=st.sampled_from(RANKS),
    compute_time=st.sampled_from([0.0, 2e-6]),
    system=st.sampled_from(SYSTEMS),
)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_event_loop_on_generated_matrices(matrix, rank, compute_time, system):
    assert_kernel_equals_event_loop(system, matrix, rank=rank, compute_time=compute_time)


GOLDEN_SCALE = dict(num_rows=32, num_cols=16, num_entries=300)


@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_kernel_equals_event_loop_at_the_golden_digest_scale(system, rank):
    matrix = generate_matrix(rank=rank, seed=3, **GOLDEN_SCALE)
    trainer, _ = assert_kernel_equals_event_loop(system, matrix, rank=rank)
    total = 2 * matrix.num_entries
    if system == "classic_fast_local":
        # Static allocation: a visit is all-local or all-remote (aligned
        # blocks); the remote ones have no resident column to fuse.
        assert trainer.fused_steps > 0 and trainer.declined_steps > 0
        assert trainer.fused_steps + trainer.declined_steps == total
    else:
        assert (trainer.fused_steps, trainer.declined_steps) == (total, 0)


#: sha256 of the misaligned runs below at the parent commit, whose per-entry
#: asserted lane fused the resident columns of a straddling block one by one.
PARENT_DIGESTS = {
    "lapse": "33dc93bb96f4e47b5aac1d75140bed16d32a38272dbd2703a0056869625c43d4",
    "hybrid": "33dc93bb96f4e47b5aac1d75140bed16d32a38272dbd2703a0056869625c43d4",
    "classic_fast_local": "55921d0b3743eea9d1d315736129086c0ec032984c7e98b58705562a4015b2f4",
}


@pytest.mark.parametrize("system", SYSTEMS)
def test_kernel_equals_event_loop_with_misaligned_blocks(system):
    """3 nodes x 2 workers over 100 columns: six blocks of 16-17 columns on
    nodes owning 33-34, so under static allocation a block can straddle two
    nodes and its visits are refused (non-resident columns)."""
    matrix = generate_matrix(60, 100, 900, rank=8, seed=5)
    trainer, epochs = assert_kernel_equals_event_loop(system, matrix, rank=8, nodes=3, seed=5)
    if system == "classic_fast_local":
        assert trainer.declined_steps > trainer.fused_steps > 0
    else:
        assert (trainer.fused_steps, trainer.declined_steps) == (2 * matrix.num_entries, 0)
    digest = hashlib.sha256()
    digest.update(repr([epoch.duration for epoch in epochs]).encode())
    digest.update(repr(sorted(trainer.ps.metrics().as_dict().items())).encode())
    digest.update(repr(trainer.ps.network.stats).encode())
    digest.update(trainer.ps.all_parameters().tobytes())
    digest.update(trainer.row_factors.tobytes())
    assert digest.hexdigest() == PARENT_DIGESTS[system]


@pytest.mark.parametrize("system", ("lapse", "classic_fast_local"))
def test_kernel_at_jobs2_equals_event_loop(system):
    """Sharded, the visits run in the forked shard processes (which inherit
    the withheld runner of the oracle run)."""
    matrix = generate_matrix(rank=4, seed=3, **GOLDEN_SCALE)
    sharded = assert_kernel_equals_event_loop(system, matrix, jobs=2)
    assert sharded[0].ps._last_effective_jobs == 2
    sequential = train(system, matrix)
    assert observe_across_engines(*sharded) == observe_across_engines(*sequential)
    assert (sharded[0].fused_steps, sharded[0].declined_steps) == (
        sequential[0].fused_steps,
        sequential[0].declined_steps,
    )


# ---------------------------------------------------------------- refusals
def visit_once(ps, block_keys, entry_keys, prepare=None):
    """One ``visit`` at t = 1e-3 by a worker of node 0; (taken, untouched)."""
    client = ps.client(0, 0)
    runner = client.fused_local_steps()
    outcome = {}

    def snapshot():
        state = ps.states[0]
        return (
            state.metrics.as_dict(),
            state.latches.acquisitions,
            ps.all_parameters().tobytes(),
            ps.sim.pending_events,
            runner.clock,
        )

    def kernel(columns):
        outcome["kernel_ran"] = True
        return columns + 1.0

    def worker():
        yield 1e-3
        if prepare is not None:
            prepare(ps)
        before = snapshot()
        outcome["taken"] = runner.visit(
            block_keys, np.asarray(entry_keys, dtype=np.int64), 2e-6, kernel
        )
        outcome["untouched"] = snapshot() == before
        wake = runner.drain()
        if wake is not None:
            yield wake

    ps.sim.process(worker())
    ps.run()
    return outcome["taken"], outcome["untouched"], runner, "kernel_ran" in outcome


def small_server(system, durability=None):
    """12 keys range-partitioned over 2 nodes: 0-5 | 6-11."""
    return make_parameter_server(
        system,
        ClusterConfig(num_nodes=2, workers_per_node=2, seed=1),
        ParameterServerConfig(num_keys=12, value_length=2),
        durability=durability,
    )


def test_visit_takes_a_resident_unguarded_block():
    taken, untouched, runner, kernel_ran = visit_once(small_server("lapse"), [0, 1, 2], [1, 1, 2])
    assert (taken, untouched, kernel_ran) == (True, False, True)
    assert (runner.taken, runner.declined) == (3, 0)


def test_visit_refuses_a_non_resident_column():
    taken, untouched, runner, kernel_ran = visit_once(small_server("lapse"), [5, 6], [5, 5, 5])
    assert (taken, untouched, kernel_ran) == (False, True, False)
    assert (runner.taken, runner.declined) == (0, 3)


def test_visit_refuses_a_guarded_key_under_hybrid():
    def subscribe_node_1(ps):
        # Node 1 holds a replica of key 2: writes on node 0 feed a broadcast.
        ps.states[0].subscribers[2].add(1)
        ps.states[1].replicas[2] = np.zeros(2)

    # Guarded although no entry of the visit touches key 2: the whole block
    # is read and written back.
    taken, untouched, _, kernel_ran = visit_once(
        small_server("hybrid"), [0, 1, 2], [0, 1], prepare=subscribe_node_1
    )
    assert (taken, untouched, kernel_ran) == (False, True, False)
    taken, _, _, _ = visit_once(small_server("hybrid"), [0, 1], [0, 1], prepare=subscribe_node_1)
    assert taken


def test_visit_refuses_a_logged_store():
    ps = small_server("lapse", durability=DurabilityConfig())
    taken, untouched, _, kernel_ran = visit_once(ps, [0, 1, 2], [1, 1, 2])
    assert (taken, untouched, kernel_ran) == (False, True, False)


def test_durable_training_takes_the_event_loop():
    """One WAL record per push, as the per-entry writes log them."""
    matrix = generate_matrix(rank=4, seed=3, **GOLDEN_SCALE)
    trainer, epochs = train("lapse", matrix, durability=DurabilityConfig())
    oracle = train("lapse", matrix, withhold=True, durability=DurabilityConfig())
    assert observe(trainer, epochs) == observe(*oracle)
    assert (trainer.fused_steps, trainer.declined_steps) == (0, 2 * matrix.num_entries)
    plain = train("lapse", matrix)
    logged, unlogged = observe(trainer, epochs), observe(*plain)
    for name in ("parameters", "row_factors", "durations", "network"):
        assert logged[name] == unlogged[name]
    assert trainer.ps.metrics().wal_appends >= 2 * matrix.num_entries


def test_the_ipc_classic_offers_no_runner(monkeypatch):
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    trainer, _ = train("classic", generate_matrix(rank=4, seed=3, **GOLDEN_SCALE))
    assert (trainer.fused_steps, trainer.declined_steps) == (0, 0)


def test_reference_engine_offers_no_runner(monkeypatch):
    matrix = generate_matrix(rank=4, seed=3, **GOLDEN_SCALE)
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    fast = train("lapse", matrix)
    monkeypatch.setenv("REPRO_DISABLE_FASTPATH", "1")
    reference = train("lapse", matrix)
    assert observe_across_engines(*fast) == observe_across_engines(*reference)
    assert (reference[0].fused_steps, reference[0].declined_steps) == (0, 0)


def test_elastic_cluster_offers_no_runner(monkeypatch):
    monkeypatch.delenv("REPRO_DISABLE_FASTPATH", raising=False)
    scale = MFScale(rank=4, **GOLDEN_SCALE)
    elastic, trainer = make_elastic_mf("lapse", num_nodes=2, scale=scale, workers_per_node=2)
    elastic.run_epoch(trainer, compute_loss=False)
    assert (trainer.fused_steps, trainer.declined_steps) == (0, 0)
    assert trainer.ps.metrics().pulls_local > 0
