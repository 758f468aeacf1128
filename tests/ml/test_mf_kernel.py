"""The MF block-visit kernel against the per-entry event loop.

A visit the runner takes (``FusedLocalSteps.visit``) runs its entries level by
level (``level_schedule``) instead of one pull / update / push at a time.  The
oracle is the same trainer with the runner withheld: model, row factors, epoch
durations, every counter and the traffic must agree byte for byte.  The
entries a visit leaves — all of them when it refuses, the tail a checkpoint or
a membership event cuts off — take the event loop; every reason has a test.
"""

import contextlib
import dataclasses
import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ElasticCluster
from repro.config import ClusterConfig, ParameterServerConfig
from repro.data import generate_matrix
from repro.data.synthetic_matrix import SyntheticMatrix
from repro.durability import DurabilityConfig, replay_records
from repro.experiments.runner import MFScale, make_elastic_mf, make_parameter_server
from repro.ml import MatrixFactorizationConfig, MatrixFactorizationTrainer
from repro.ml.matrix_factorization import level_schedule
from repro.pal.parameter_blocking import keys_of_block
from repro.ps.base import FusedLocalSteps, WorkerClient
from repro.ps.partition import ElasticPartitioner

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
    # Counts per channel, not the order in which the channels first carried
    # a message: same-instant sends may open them in either order.
    stats = ps.network.stats
    channels = dict(sorted(stats.per_channel_messages.items()))
    return {
        "parameters": ps.all_parameters().tobytes(),
        "row_factors": trainer.row_factors.tobytes(),
        "durations": [repr(epoch.duration) for epoch in epochs],
        "metrics": ps.metrics().as_dict(),
        "network": repr(dataclasses.replace(stats, per_channel_messages=channels)),
        "latches": [state.latches.acquisitions for state in ps.states],
        "now": repr(ps.simulated_time),
    }


def observe_across_engines(trainer, epochs):
    """``observe`` without the physical batching of deliveries, which differs
    between the sequential and the sharded engine."""
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


def loop_entries(trainer, indices, columns, first_key):
    """The event loop's steps on ``indices``, with ``columns`` as the block's
    store: returns the update each entry pushes."""
    matrix, config = trainer.matrix, trainer.config
    row_factors = trainer.row_factors
    updates = []
    for index in indices.tolist():
        row, col = int(matrix.rows[index]), int(matrix.cols[index]) - first_key
        col_factor = columns[col].copy()
        row_factor = row_factors[row]
        error = float(row_factor @ col_factor) - float(matrix.values[index])
        grad_row = error * col_factor + config.regularization * row_factor
        grad_col = error * row_factor + config.regularization * col_factor
        row_factors[row] = row_factor - config.learning_rate * grad_row
        update = -config.learning_rate * grad_col
        columns[col] = col_factor + update
        updates.append(update)
    return np.array(updates).reshape(len(updates), columns.shape[1])


@pytest.mark.parametrize("start,count", [(0, None), (0, 7), (5, None), (5, 30), (40, 1)])
def test_levels_of_an_inner_run_equal_the_loop_after_the_entries_before_it(start, count):
    """A visit resumed at entry ``start`` runs entries ``start`` onwards on
    the factors the event loop left: the kernel filtered to ``start <= order
    < start + count`` leaves columns, row factors and per-entry updates
    bit-identical to the loop over that run."""
    matrix = generate_matrix(rank=4, seed=3, **GOLDEN_SCALE)
    ps = make_parameter_server(
        "lapse",
        ClusterConfig(num_nodes=2, workers_per_node=1, seed=3),
        ParameterServerConfig(num_keys=matrix.num_cols, value_length=4),
    )
    trainer = MatrixFactorizationTrainer(ps, matrix, MatrixFactorizationConfig(rank=4), seed=3)
    plan = trainer._plan(2)
    visit = max(plan.entries, key=lambda cell: len(plan.entries[cell]))
    indices = plan.entries[visit]
    assert len(indices) > 45
    first_key = keys_of_block(visit[1], matrix.num_cols, plan.schedule.num_blocks)[0]
    run = indices[start:] if count is None else indices[start:start + count]
    columns = np.random.default_rng(7).normal(size=(matrix.num_cols - first_key, 4))
    initial_rows = trainer.row_factors.copy()
    loop_entries(trainer, indices[:start], columns, first_key)
    before_rows, before_columns = trainer.row_factors.copy(), columns.copy()
    expected_updates = loop_entries(trainer, run, columns, first_key)
    expected = (columns.tobytes(), trainer.row_factors.tobytes(), expected_updates.tobytes())
    trainer.row_factors[:] = before_rows
    deltas = np.full((len(run), 4), np.nan)
    kernel = trainer._run_levels(
        plan, visit, first_key, before_columns, deltas, count, start=start
    )
    assert (kernel.tobytes(), trainer.row_factors.tobytes(), deltas.tobytes()) == expected
    assert not np.array_equal(trainer.row_factors, initial_rows)


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
def visit_once(ps, block_keys, entry_keys, prepare=None, compute_time=2e-6, fused=True):
    """One ``visit`` at t = 1e-3 by a worker of node 0, then the entries it
    left on the event path (all of them without ``fused``); returns
    ``(taken, untouched, runner, kernel_ran)``."""
    client = ps.client(0, 0)
    runner = client.fused_local_steps()
    outcome = {}

    def snapshot():
        state = ps.states[0]
        log = ps.durability.wals[0].records if ps.durability is not None else ()
        return (
            state.metrics.as_dict(),
            state.latches.acquisitions,
            ps.all_parameters().tobytes(),
            ps.sim.pending_events,
            runner.clock,
            len(log),
        )

    def kernel(columns, deltas, count):
        # Entry k adds k + 1 to its column, so every entry's update differs.
        outcome["kernel_ran"] = True
        for index, key in enumerate(entry_keys[:count]):
            columns[list(block_keys).index(key)] += index + 1.0
            if deltas is not None:
                deltas[index] = index + 1.0
        return columns

    def worker():
        yield 1e-3
        if prepare is not None:
            prepare(ps)
        before = snapshot()
        taken = runner.visit(
            block_keys, np.asarray(entry_keys, dtype=np.int64), compute_time, kernel
        ) if fused else 0
        outcome["taken"] = taken
        outcome["untouched"] = snapshot() == before
        wake = runner.drain()
        if wake is not None:
            yield wake
        for index in range(taken, len(entry_keys)):
            key = entry_keys[index]
            yield from client.pull([key])
            client.push_async([key], np.full((1, ps.ps_config.value_length), index + 1.0))
            if compute_time > 0:
                yield compute_time

    ps.sim.process(worker())
    ps.run()
    return outcome["taken"], outcome["untouched"], runner, "kernel_ran" in outcome


def entry_instants(ps, entries, compute_time, start=1e-3):
    """Per entry of a visit issued at ``start``, by the event path's own
    additions: when its push lands, one access delay after its read, and
    when it is done — the later of that and the worker's resume, which is
    earlier when ``compute_time`` is shorter than the delay."""
    delay = ps.cluster.cost_model.local_access_time(shared_memory=True)
    clock = start
    writes, ends = [], []
    for _ in range(entries):
        read_at = clock + delay
        clock = read_at + compute_time
        writes.append(read_at + delay)
        ends.append(max(read_at + delay, clock))
    return writes, ends


def small_server(system, durability=None):
    """12 keys range-partitioned over 2 nodes: 0-5 | 6-11."""
    return make_parameter_server(
        system,
        ClusterConfig(num_nodes=2, workers_per_node=2, seed=1),
        ParameterServerConfig(num_keys=12, value_length=2),
        durability=durability,
    )


def elastic_server(durability=None):
    """``small_server``'s keys on nodes 0 and 1 of three; node 2 is reserve."""
    ps = make_parameter_server(
        "lapse",
        ClusterConfig(num_nodes=3, workers_per_node=2, seed=1),
        ParameterServerConfig(num_keys=12, value_length=2),
        partitioner=ElasticPartitioner(12, 3, active_nodes=[0, 1], kind="range"),
        durability=durability,
    )
    return ElasticCluster(ps, initial_nodes=[0, 1])


def test_visit_takes_a_resident_unguarded_block():
    taken, untouched, runner, kernel_ran = visit_once(small_server("lapse"), [0, 1, 2], [1, 1, 2])
    assert (taken, untouched, kernel_ran) == (3, False, True)
    assert (runner.taken, runner.declined) == (3, 0)


def test_visit_refuses_a_non_resident_column():
    taken, untouched, runner, kernel_ran = visit_once(small_server("lapse"), [5, 6], [5, 5, 5])
    assert (taken, untouched, kernel_ran) == (0, True, False)
    assert (runner.taken, runner.declined) == (0, 3)
    assert runner.reasons == {"not resident": 3}


def test_visit_refuses_a_guarded_key_under_hybrid():
    def subscribe_node_1(ps):
        # Node 1 holds a replica of key 2: writes on node 0 feed a broadcast.
        ps.states[0].subscribers[2].add(1)
        ps.states[1].replicas[2] = np.zeros(2)

    # Guarded although no entry of the visit touches key 2: the whole block
    # is read and written back.
    taken, untouched, runner, kernel_ran = visit_once(
        small_server("hybrid"), [0, 1, 2], [0, 1], prepare=subscribe_node_1
    )
    assert (taken, untouched, kernel_ran) == (0, True, False)
    assert runner.reasons == {"guarded": 2}
    taken, _, _, _ = visit_once(small_server("hybrid"), [0, 1], [0, 1], prepare=subscribe_node_1)
    assert taken == 2


@pytest.mark.parametrize("compute_time", [2e-6, 0.0])
def test_visit_refuses_a_write_at_or_past_the_next_checkpoint(compute_time):
    """A logged visit writes at its issue instant what the event path writes
    later, so it runs only the entries whose push lands before node 0's next
    lazy checkpoint is due; the rest take the event path, where the first of
    them triggers the checkpoint.  A visit logs one single-row ``delta`` per
    entry it runs, in entry order, and triggers no checkpoint: per key and
    per checkpoint the log is the one the event path alone writes."""
    entry_keys = [1, 1, 2]
    writes, _ = entry_instants(small_server("lapse"), len(entry_keys), compute_time)
    for entry, write_at in enumerate(writes):
        for due, expected in [(write_at, entry), (math.nextafter(write_at, math.inf), entry + 1)]:

            def checkpoint_due(ps, due=due):
                ps.durability._next_checkpoint_at[0] = due

            logs = []
            for fused in (True, False):
                ps = small_server("lapse", durability=DurabilityConfig())
                taken, untouched, runner, _ = visit_once(
                    ps, [0, 1, 2], entry_keys, checkpoint_due, compute_time, fused
                )
                logs.append((durable_log(ps), live_store(ps, 0)))
                if fused:
                    assert (taken, untouched) == (expected, not expected)
                    assert runner.reasons == ({"checkpoint": 3 - expected} if expected < 3 else {})
                    # The baseline, and one where the event path's write reached the due time.
                    assert len(ps.durability.checkpoints[0]) == (1 if expected == 3 else 2)
                    records = ps.durability.wals[0].records
            assert logs[0] == logs[1]
    assert [(r.kind, r.keys, r.values.tolist()) for r in records[-3:]] == [
        ("delta", (1,), [[1.0, 1.0]]),
        ("delta", (1,), [[2.0, 2.0]]),
        ("delta", (2,), [[3.0, 3.0]]),
    ]


def durable_log(ps):
    """Per node: each key's WAL records in log order, each checkpoint as
    (instant, keys, values, records of the node before it), and the store
    each checkpoint plus its WAL suffix replays to.  LSN values are left out:
    a visit logs its entries as one group, so records of *different* keys
    (and nodes) interleave differently than on the event path."""
    manager = ps.durability
    logs = {}
    for node, wal in manager.wals.items():
        per_key = {}
        for record in wal.records:
            for key, row in zip(record.keys, record.values):
                per_key.setdefault(key, []).append((record.kind, row.tobytes()))
        checkpoints, replays = [], []
        for checkpoint in manager.checkpoints[node].checkpoints:
            suffix = wal.records_since(checkpoint.lsn)
            checkpoints.append((
                repr(checkpoint.taken_at),
                checkpoint.keys.tobytes(),
                checkpoint.values.tobytes(),
                len(wal.records) - len(suffix),
            ))
            state = checkpoint.as_state()
            replay_records(state, suffix)
            replays.append(sorted((key, row.tobytes()) for key, row in state.items()))
        logs[node] = {"records": per_key, "checkpoints": checkpoints, "replays": replays}
    return logs


def live_store(ps, node):
    keys, values = ps.states[node].storage.snapshot()
    return sorted(zip(keys.tolist(), (row.tobytes() for row in values)))


def test_durable_training_equals_the_event_loop():
    """Logged visits are unobservable: with the runner withheld the run has
    the same results, every key's WAL records in the same order, the same
    checkpoints, and every checkpoint plus its WAL suffix replays to the live
    store.  Entries whose write reaches a checkpoint take the event loop until
    the checkpoint has fired; the visit then resumes, so of 476 entries only
    14 leave the kernel (30 checkpoints fire)."""
    matrix = generate_matrix(rank=4, seed=3, **GOLDEN_SCALE)
    durability = DurabilityConfig(checkpoint_interval=2e-4)
    trainer, epochs = train("lapse", matrix, durability=durability)
    oracle = train("lapse", matrix, withhold=True, durability=durability)
    assert observe(trainer, epochs) == observe(*oracle)
    log = durable_log(trainer.ps)
    assert log == durable_log(oracle[0].ps)
    for node, entry in log.items():
        assert len(entry["checkpoints"]) > 1
        assert all(replay == live_store(trainer.ps, node) for replay in entry["replays"])
    assert (trainer.fused_steps, trainer.declined_steps) == (462, 14)
    assert trainer.decline_reasons == {"checkpoint": 14}
    assert trainer.fused_steps + trainer.declined_steps == 2 * matrix.num_entries
    plain = train("lapse", matrix)
    logged, unlogged = observe(trainer, epochs), observe(*plain)
    for name in ("parameters", "row_factors", "durations", "network"):
        assert logged[name] == unlogged[name]


def test_the_ipc_classic_offers_no_runner():
    trainer, _ = train("classic", generate_matrix(rank=4, seed=3, **GOLDEN_SCALE))
    assert (trainer.fused_steps, trainer.declined_steps) == (0, 0)


def test_mf_model_parameters_equal_the_withheld_run():
    """The trainer's own accessors read the same final model either way."""
    matrix = generate_matrix(rank=4, seed=3, **GOLDEN_SCALE)
    fused, _ = train("lapse", matrix)
    oracle, _ = train("lapse", matrix, withhold=True)
    assert fused.fused_steps == 2 * matrix.num_entries
    assert np.array_equal(fused.column_factors(), oracle.column_factors())
    assert np.array_equal(fused.row_factors, oracle.row_factors)


def server_state(ps):
    return (
        ps.metrics().as_dict(),
        [state.latches.acquisitions for state in ps.states],
        ps.all_parameters().tobytes(),
        repr(ps.simulated_time),
        (ps.network.stats.messages_sent, ps.network.stats.bytes_sent),
    )


@pytest.mark.parametrize("compute_time", [2e-6, 0.0])
def test_elastic_visit_declines_through_a_membership_event(compute_time):
    """A visit runs its entries' whole simulated spans at once, so on an
    elastic cluster it runs only the entries done — push landed and worker
    resumed — before the next pending membership event; the rest take the
    event path, and the run equals the event path's, join included."""
    entry_keys = [1, 1, 2]
    _, ends = entry_instants(elastic_server().ps, len(entry_keys), compute_time)
    for entry, end in enumerate(ends):
        for due, expected in [(end, entry), (math.nextafter(end, math.inf), entry + 1)]:
            seen = []
            for fused in (True, False):
                elastic = elastic_server()
                elastic.join_at(due, node=2)
                taken, untouched, runner, _ = visit_once(
                    elastic.ps, [0, 1, 2], entry_keys, compute_time=compute_time, fused=fused
                )
                seen.append((server_state(elastic.ps), elastic.membership.state_of(2)))
                if fused:
                    assert (taken, untouched) == (expected, not expected)
                    assert runner.reasons == (
                        {"membership event": 3 - expected} if expected < 3 else {}
                    )
            assert seen[0] == seen[1]
            assert seen[0][1] == "active"


def test_elastic_fusion_declines_only_entries_a_join_reaches():
    """Visits fuse on an elastic cluster, except the entries of the visit a
    join falls into that end at or after it and begin before it has fired:
    the cut visit resumes right after the join, and the rebalance names none
    of the keys visited afterwards."""
    elastic, trainer = make_elastic_mf(
        "lapse",
        num_nodes=3,
        initial_nodes=(0, 1),
        scale=MFScale(num_rows=32, num_cols=16, num_entries=300, rank=4),
        workers_per_node=2,
    )
    entries = trainer.matrix.num_entries
    counts = []
    for index in range(3):
        if index == 1:
            elastic.join_at(elastic.ps.simulated_time + 0.4 * epoch.duration, node=2)
        fused, declined = trainer.fused_steps, trainer.declined_steps
        epoch = elastic.run_epoch(trainer, compute_loss=False)
        counts.append((trainer.fused_steps - fused, trainer.declined_steps - declined))
    assert counts[0] == counts[2] == (entries, 0)
    assert counts[1] == (entries - 1, 1)
    assert trainer.decline_reasons == {"membership event": 1}


def test_unsettled_keys_decline_while_other_keys_fuse_before_the_next_settle():
    """A join of node 2 re-homes keys 4-5 to node 1 and 8-11 to node 2 and
    relocates them there.  Until those relocations land, a visit of a block
    with a moving key runs nothing; a block no rebalance names fuses at once,
    with no boundary settle in between.  Once landed, the moved keys are
    simply gone from node 0."""
    elastic = elastic_server()
    elastic.join_at(0.99e-3, node=2)
    ps = elastic.ps
    runner = ps.client(0, 0).fused_local_steps()
    seen = []

    def visit(block):
        taken = runner.visit(block, np.array(block), 2e-6, lambda columns, deltas, count: columns)
        seen.append((taken, elastic.fusion_horizon(block)))
        return runner.drain()

    def worker():
        yield 1e-3  # the relocations are on the wire
        for block in ([4, 5], [0, 1, 2]):
            wake = visit(block)
            if wake is not None:
                yield wake
        yield 1e-3  # they have landed
        visit([4, 5])

    ps.sim.process(worker())
    ps.run()
    assert seen == [(0, -math.inf), (3, math.inf), (0, math.inf)]
    assert runner.reasons == {"unsettled keys": 2, "not resident": 2}


def test_an_empty_visit_on_a_durable_elastic_store_is_taken_and_does_nothing():
    """No entry, no instant to check: all (none) of its entries are taken
    even with a membership event and a checkpoint due at the issue instant,
    and nothing is run, logged or scheduled."""
    elastic = elastic_server(durability=DurabilityConfig())
    elastic.join_at(1e-3, node=2)

    def checkpoint_due(ps):
        ps.durability._next_checkpoint_at[0] = 1e-3

    taken, untouched, runner, kernel_ran = visit_once(
        elastic.ps, [0, 1, 2], [], prepare=checkpoint_due
    )
    assert (taken, untouched, kernel_ran) == (0, True, False)
    assert (runner.taken, runner.declined) == (0, 0)


# ------------------------------------- fused vs withheld on changing clusters
SWEEP_SCALE = MFScale(num_rows=32, num_cols=18, num_entries=300, rank=4)
SWEEP_DURABILITY = {"volatile": None, "wal": DurabilityConfig(checkpoint_interval=0.002)}
SWEEP_SCHEDULES = ("static", "join", "drain", "fail_rejoin")


def churn(system, durability, schedule, jobs, seed, withhold, scale=SWEEP_SCALE):
    """Three elastic epochs on up to 3 nodes x 2 workers.  Node 2 joins
    (from reserve) or node 1 drains 40 % into the second epoch; node 2
    crashes and restarts at the boundary before it."""
    elastic, trainer = make_elastic_mf(
        system,
        num_nodes=3,
        initial_nodes=(0, 1) if schedule == "join" else None,
        scale=scale,
        workers_per_node=2,
        seed=seed,
        durability=SWEEP_DURABILITY[durability],
        jobs=jobs,
    )
    ps = elastic.ps
    epochs = []
    withheld = mock.patch.object(WorkerClient, "fused_local_steps", lambda self: None)
    with withheld if withhold else contextlib.nullcontext():
        for index in range(3):
            if index == 1:
                mid_epoch = ps.simulated_time + 0.4 * epochs[-1].duration
                if schedule == "join":
                    elastic.join_at(mid_epoch, node=2)
                elif schedule == "drain":
                    elastic.drain_at(mid_epoch, node=1)
                elif schedule == "fail_rejoin":
                    elastic.fail_at(ps.simulated_time, 2)
                    elastic.rejoin_at(ps.simulated_time, 2)
            epochs.append(elastic.run_epoch(trainer, compute_loss=False))
    return trainer, epochs


#: The cells tier-1 runs; the rest of the matrix is ``-m slow``.
SWEEP_TIER1 = {
    ("lapse", "wal", "join", 1, 0),
    ("hybrid", "volatile", "drain", 1, 0),
    ("lapse", "wal", "fail_rejoin", 1, 1),
    ("classic_fast_local", "wal", "drain", 2, 1),
}


def sweep_cells():
    for cell in itertools.product(SYSTEMS, SWEEP_DURABILITY, SWEEP_SCHEDULES, (1, 2), (0, 1)):
        system, _, schedule, _, _ = cell
        if system == "classic_fast_local" and schedule == "fail_rejoin":
            continue  # a static allocation cannot re-home a failed node's keys
        marks = () if cell in SWEEP_TIER1 else pytest.mark.slow
        yield pytest.param(*cell, marks=marks, id="-".join(map(str, cell)))


@contextlib.contextmanager
def recorded_visits():
    """``(taken, entries, start, cut)`` of every ``FusedLocalSteps.visit`` in
    this process: ``start`` is the block entry a resumed visit begins at,
    ``cut`` whether a hazard (not a refusal) stopped it short."""
    seen = []
    visit = FusedLocalSteps.visit

    def recording(self, block_keys, entry_keys, compute_time, kernel):
        taken = visit(self, block_keys, entry_keys, compute_time, kernel)
        seen.append((taken, len(entry_keys), kernel.keywords["start"], self.hazard is not None))
        return taken

    with mock.patch.object(FusedLocalSteps, "visit", recording):
        yield seen


REASONS = {"not resident", "guarded", "checkpoint", "membership event", "unsettled keys"}


@pytest.mark.parametrize("system,durability,schedule,jobs,seed", sweep_cells())
def test_fused_equals_withheld_on_elastic_and_durable_clusters(
    system, durability, schedule, jobs, seed
):
    """Every cell: equal durations, counters, traffic, parameters and row
    factors; on a logged store also equal per-key WAL records and
    checkpoints, and each node's latest checkpoint replays to its store.
    Sharded, fewer events make other windows, and with them another physical
    batching of deliveries (as between engines).  Every declined entry has a
    reason, and where a checkpoint or a mid-epoch event can reach a visit, a
    sequential ``lapse`` / ``hybrid`` run splits some visit and, unless every
    hazard cut came at a visit's last entry, resumes one past its hazard
    (shard children keep what they record)."""
    with recorded_visits() as visits:
        fused = churn(system, durability, schedule, jobs, seed, withhold=False)
    oracle = churn(system, durability, schedule, jobs, seed, withhold=True)
    seen = observe if jobs == 1 else observe_across_engines
    assert seen(*fused) == seen(*oracle)
    trainer = fused[0]
    assert trainer.fused_steps > 0
    assert trainer.fused_steps + trainer.declined_steps == 3 * trainer.matrix.num_entries
    assert sum(trainer.decline_reasons.values()) == trainer.declined_steps
    assert set(trainer.decline_reasons) <= REASONS
    hazard = durability == "wal" or schedule in ("join", "drain")
    if jobs == 1 and hazard and system != "classic_fast_local":
        assert any(0 < taken < entries for taken, entries, _, _ in visits)
        if any(cut and entries - taken > 1 for taken, entries, _, cut in visits):
            assert any(start > 0 for _, _, start, _ in visits)
    if durability == "wal":
        log = durable_log(trainer.ps)
        assert log == durable_log(oracle[0].ps)
        for node, entry in log.items():
            assert entry["replays"][-1] == live_store(trainer.ps, node)


def test_without_compute_time_a_cut_visit_is_never_resumed():
    """With no compute time the worker resumes before its own push lands
    (``t3 < t2``): a visit offered then could read the block before that
    write, so a cut visit's entries all stay on the event path, and the run
    still equals the withheld one — WAL per key and checkpoints included."""
    scale = MFScale(num_rows=32, num_cols=18, num_entries=300, rank=4, compute_time_per_entry=0.0)
    with recorded_visits() as visits:
        fused = churn("lapse", "wal", "join", 1, 0, withhold=False, scale=scale)
    oracle = churn("lapse", "wal", "join", 1, 0, withhold=True, scale=scale)
    assert observe(*fused) == observe(*oracle)
    assert durable_log(fused[0].ps) == durable_log(oracle[0].ps)
    assert any(cut and entries - taken > 1 for taken, entries, _, cut in visits)
    assert all(start == 0 for _, _, start, _ in visits)
