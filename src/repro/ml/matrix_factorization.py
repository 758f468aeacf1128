"""DSGD matrix factorization with the parameter-blocking PAL technique.

The task of §4 / Figure 6: factorize a sparse matrix ``V ≈ W H`` by stochastic
gradient descent.  Row factors ``W`` are partitioned with the data (each
worker owns the rows of its data partition and keeps them in worker-local
memory); column factors ``H`` live in the parameter server, one key per
column.

Parameter blocking (Gemulla et al. [15]) makes the column-factor accesses
local: an epoch is split into ``num_workers`` subepochs; in each subepoch a
worker processes only the entries whose column falls into its assigned block
and the blocks rotate between subepochs.  On a PS with dynamic parameter
allocation the rotation is a single ``localize`` call per worker and subepoch;
on a classic PS every column access goes to the column's static owner; on a
stale PS a clock advance per subepoch refreshes the replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.config import derive_seed
from repro.data.synthetic_matrix import SyntheticMatrix, predictions
from repro.errors import ExperimentError
from repro.ml.common import FusedLaneCounts, lane_counts, maybe_localize, subepoch_synchronization
from repro.ml.metrics import rmse
from repro.ml.results import EpochResult
from repro.pal.parameter_blocking import BlockSchedule, block_of_keys, keys_of_block
from repro.ps.base import ParameterServer, commit_visits


@dataclass(frozen=True)
class MatrixFactorizationConfig:
    """Hyper-parameters of the DSGD matrix factorization task.

    Attributes:
        rank: Factorization rank (the paper uses 100; scaled down here).
        learning_rate: SGD step size.
        regularization: L2 regularization weight.
        compute_time_per_entry: Simulated computation time charged per
            processed matrix entry (controls the communication-to-computation
            ratio, cf. Table 4).
        init_scale: Standard deviation of the random factor initialization.
    """

    rank: int = 8
    learning_rate: float = 0.05
    regularization: float = 0.02
    compute_time_per_entry: float = 2e-6
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ExperimentError(f"rank must be >= 1, got {self.rank}")
        if self.learning_rate <= 0:
            raise ExperimentError("learning_rate must be positive")
        if self.regularization < 0:
            raise ExperimentError("regularization must be non-negative")
        if self.compute_time_per_entry < 0:
            raise ExperimentError("compute_time_per_entry must be non-negative")
        if self.init_scale < 0:
            raise ExperimentError("init_scale must be non-negative")


def level_schedule(rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Dependency levels of the entries ``(rows[k], cols[k])`` of one block visit.

    SGD steps on entries that share neither row nor column touch disjoint
    factors and commute (the DSGD argument, applied inside a visit).  With
    ``level[k] = 1 + max(level of the previous entry in the same row, level of
    the previous entry in the same column)`` (0 where there is none), the
    rows and the columns within a level are distinct, and running the levels
    in order hands every entry exactly the operands the sequential loop would:
    its row's and its column's earlier entries sit in lower levels, their
    later ones in higher levels.

    Returns ``(order, bounds)``: entry positions sorted by level, and the
    offsets such that level ``k + 1`` is ``order[bounds[k]:bounds[k + 1]]``.
    """
    rows, cols = rows.tolist(), cols.tolist()
    row_level = [0] * (max(rows, default=-1) + 1)
    col_level = [0] * (max(cols, default=-1) + 1)
    levels = []
    for row, col in zip(rows, cols):
        level = row_level[row]
        if col_level[col] > level:
            level = col_level[col]
        level += 1
        row_level[row] = col_level[col] = level
        levels.append(level)
    levels = np.array(levels, dtype=np.int64)
    # No entry has level 0, so the running count of levels 0..k is bounds[k].
    bounds = np.cumsum(np.bincount(levels, minlength=1))
    return np.argsort(levels, kind="stable"), bounds.tolist()


@dataclass(frozen=True)
class _EpochPlan:
    """Work assignment for one epoch at a given worker count.

    The elastic cluster runtime runs epochs with whatever workers are active
    at the time; data and blocks are (re)partitioned per participant count.
    Plans are cached, and with a static cluster the single cached plan is
    identical to the pre-elastic fixed assignment.

    ``entries`` holds the per-(worker, block) entry index arrays in visit
    order.  ``layouts`` holds, per kernel call of whole visits, the level
    layout (:meth:`MatrixFactorizationTrainer._level_layout`), keyed by the
    visits' ``(cell, start, end, width)``: the same commits recur every epoch.
    """

    schedule: BlockSchedule
    entries: Dict[Tuple[int, int], "np.ndarray"]
    layouts: Dict[tuple, tuple] = field(default_factory=dict)


class VisitKernel(NamedTuple):
    """The kernel :meth:`~repro.ps.base.FusedLocalSteps.visit` takes for one
    block visit from entry ``start`` on: called, it runs the visit alone;
    visits pending together run as one ``batch`` (``_run_levels``) call."""

    batch: Callable[[list], None]
    plan: _EpochPlan
    cell: Tuple[int, int]
    first_key: int
    start: int

    def __call__(
        self, columns: np.ndarray, deltas: Optional[np.ndarray] = None, count: Optional[int] = None
    ) -> np.ndarray:
        self.batch([(self, columns, deltas, count)])
        return columns


class MatrixFactorizationTrainer(FusedLaneCounts):
    """Runs DSGD matrix factorization epochs on a parameter server.

    The same trainer runs on every PS variant: it localizes blocks when the PS
    supports it, advances the clock on the stale PS, and otherwise relies on
    plain pull/push.  :meth:`run_epoch` optionally takes the subset of worker
    clients that participate (elastic clusters), re-partitioning data and
    blocks for that worker count.
    """

    def __init__(
        self,
        ps: ParameterServer,
        matrix: SyntheticMatrix,
        config: Optional[MatrixFactorizationConfig] = None,
        seed: int = 0,
    ) -> None:
        self.ps = ps
        self.matrix = matrix
        self.config = config or MatrixFactorizationConfig()
        self.seed = seed
        num_workers = ps.cluster.total_workers
        if ps.ps_config.num_keys != matrix.num_cols:
            raise ExperimentError(
                f"the PS must have one key per matrix column "
                f"({matrix.num_cols}), got {ps.ps_config.num_keys}"
            )
        if ps.ps_config.value_length != self.config.rank:
            raise ExperimentError(
                f"the PS value length must equal the rank ({self.config.rank}), "
                f"got {ps.ps_config.value_length}"
            )
        self._plans: Dict[int, _EpochPlan] = {}
        self.schedule = self._plan(num_workers).schedule
        rng = np.random.default_rng(derive_seed(seed, 101))
        #: Worker-local row factors (each worker touches only its own rows).
        self.row_factors = rng.normal(0.0, self.config.init_scale, size=(matrix.num_rows, self.config.rank))
        self._epochs_run = 0
        # Lane counts by entry: run by the block-visit kernel, or left to the
        # event loop.
        super().__init__()
        self._initialize_column_factors(rng)

    # ------------------------------------------------------------ preparation
    def _plan(self, num_workers: int) -> _EpochPlan:
        """Return (and cache) the work assignment for ``num_workers`` workers."""
        plan = self._plans.get(num_workers)
        if plan is None:
            schedule = BlockSchedule(num_workers=num_workers)
            plan = _EpochPlan(schedule=schedule, entries=self._partition_entries(schedule))
            self._plans[num_workers] = plan
        return plan

    def _partition_entries(self, schedule: BlockSchedule):
        """Index matrix entries by (worker row block, column block)."""
        num_workers = schedule.num_workers
        matrix = self.matrix
        rows_per_worker = int(np.ceil(matrix.num_rows / num_workers))
        row_block_of = np.minimum(matrix.rows // max(1, rows_per_worker), num_workers - 1)
        entry_col_blocks = block_of_keys(matrix.num_cols, schedule.num_blocks)[matrix.cols]
        entries: Dict[Tuple[int, int], np.ndarray] = {}
        for worker in range(num_workers):
            worker_mask = row_block_of == worker
            for block in range(schedule.num_blocks):
                mask = worker_mask & (entry_col_blocks == block)
                entries[(worker, block)] = np.flatnonzero(mask)
        return entries

    def _initialize_column_factors(self, rng: np.random.Generator) -> None:
        initial = rng.normal(
            0.0, self.config.init_scale, size=(self.matrix.num_cols, self.config.rank)
        )
        # One write per column, not ``install_parameters``: a logged store
        # appends a WAL record per write, and the durable golden digests and
        # the churn benchmark's exact counters include ``wal_appends``.
        for col in range(self.matrix.num_cols):
            owner = self.ps.current_owner(col)
            self.ps.states[owner].storage.set(col, initial[col])

    # -------------------------------------------------------------- training
    def train(self, num_epochs: int = 1, compute_loss: bool = True) -> List[EpochResult]:
        """Run ``num_epochs`` epochs and return per-epoch run times and losses."""
        if num_epochs < 1:
            raise ExperimentError("num_epochs must be >= 1")
        results = []
        for _ in range(num_epochs):
            results.append(self.run_epoch(compute_loss=compute_loss))
        return results

    def run_epoch(
        self, compute_loss: bool = True, clients: Optional[Sequence] = None
    ) -> EpochResult:
        """Run one full DSGD epoch (one subepoch per participating worker).

        Args:
            compute_loss: Evaluate the training RMSE after the epoch.
            clients: Optional subset of worker clients that participate (the
                elastic runtime passes the workers of currently active nodes);
                defaults to every worker in the cluster.
        """
        clients = list(clients) if clients is not None else self.ps.clients()
        plan = self._plan(len(clients))
        participant_of = {client.worker_id: index for index, client in enumerate(clients)}

        def worker_fn(client, worker_id: int) -> Generator:
            return self._worker_epoch(client, participant_of[worker_id], plan)

        epoch = self._epochs_run
        start_time = self.ps.simulated_time
        results = self.ps.run_workers(worker_fn, clients=clients)
        # A visit commits by its worker's resume; none may outlive the epoch.
        commit_visits(self.ps.pending_visits)
        for result in results:
            if result is not None:
                low, high, rows, counts = result
                self.row_factors[low:high] = rows
                self.count_lanes(counts)
        duration = self.ps.simulated_time - start_time
        self._epochs_run += 1
        loss = self.training_rmse() if compute_loss else None
        return EpochResult(epoch=epoch, duration=duration, end_time=self.ps.simulated_time, loss=loss)

    def _worker_epoch(self, client, participant: int, plan: _EpochPlan) -> Generator:
        config = self.config
        matrix = self.matrix
        schedule = plan.schedule
        learning_rate = config.learning_rate
        regularization = config.regularization
        compute_time = config.compute_time_per_entry
        row_factors = self.row_factors
        # Fused block visits (classic+sharedmem, Lapse): parameter blocking
        # makes this worker's block keys private until the subepoch barrier,
        # which is exactly the privacy window FusedLocalSteps.visit requires.
        fused = client.fused_local_steps()
        for subepoch in range(schedule.num_subepochs):
            block = schedule.block_for(participant, subepoch)
            block_keys = keys_of_block(block, matrix.num_cols, schedule.num_blocks)
            yield from maybe_localize(client, block_keys)
            visit = (participant, block)
            indices = plan.entries[visit]
            start, count, cut = 0, len(indices), None
            while start < count:
                if fused is not None:
                    taken, cut = fused.visit(
                        block_keys,
                        matrix.cols[indices[start:]],
                        compute_time,
                        VisitKernel(self._run_levels, plan, visit, block_keys[0], start),
                    )
                    start += taken
                    wake = fused.drain()
                    if wake is not None:
                        yield wake
                    if start == count:
                        break
                # Event loop (no runner, or the entries a visit left): one
                # pull, update and asynchronous push per entry.  Unbox the
                # run once so the loop performs no NumPy scalar conversions.
                # After a cut, the visit resumes once the hazard that cut it
                # has passed and this worker's last push has landed.
                run = indices[start:]
                rows = matrix.rows[run].tolist()
                cols = matrix.cols[run].tolist()
                values = matrix.values[run].astype(np.float64).tolist()
                for index in range(len(rows)):
                    row = rows[index]
                    col = cols[index]
                    handle = client.pull_async((col,))
                    if not handle.done:
                        yield handle.completion_event
                    col_factor = handle.first_value()
                    row_factor = row_factors[row]
                    error = float(row_factor @ col_factor) - values[index]
                    grad_row = error * col_factor + regularization * row_factor
                    grad_col = error * row_factor + regularization * col_factor
                    row_factors[row] = row_factor - learning_rate * grad_row
                    push = client.push_async(
                        (col,), (-learning_rate * grad_col).reshape(1, -1), needs_ack=False
                    )
                    if compute_time > 0:
                        yield compute_time
                    if cut and push.done and fused.passed(cut, block_keys, len(rows) - index - 1):
                        start += index + 1
                        break
                else:
                    start = count
            yield from subepoch_synchronization(client)
        # Return this worker's row-factor slice.  On the simulated backend
        # the rows were updated in place, so the writeback in run_epoch is a
        # no-op; on the real backend the worker process worked on a forked
        # copy, and what it returns carries the rows home.
        num_workers = schedule.num_workers
        rows_per_worker = int(np.ceil(matrix.num_rows / num_workers))
        low = min(participant * rows_per_worker, matrix.num_rows)
        if participant == num_workers - 1:
            high = matrix.num_rows
        else:
            high = min((participant + 1) * rows_per_worker, matrix.num_rows)
        return low, high, row_factors[low:high], lane_counts(fused)

    def _run_levels(
        self, visits: List[Tuple[VisitKernel, np.ndarray, Optional[np.ndarray], Optional[int]]]
    ) -> None:
        """The block-visit kernel: one batched SGD step per dependency level,
        for any number of visits that share no row and no column.

        Each visit is ``(kernel, columns, deltas, count)``.  ``columns``
        holds the factors of the block's keys (``kernel.first_key`` onwards)
        and is left as the per-entry loop would have left it after the
        visit's entries ``start`` to ``start + count`` (all from ``start`` by
        default), run on the factors the entries before ``start`` left.
        ``deltas``, when given, receives at row ``k`` the update the loop
        pushes for the run's ``k``-th entry (visit entry ``start + k``).

        The row factors and every visit's columns form one operand table,
        viewed as one ``np.void`` record per factor row.  A level is one
        record gather of its factors, rows first and then columns, viewed as
        ``factor[0]`` / ``factor[1]``; each half's operand is the other half
        (``factor[::-1]``).  The dot is the loop's ``row @ col`` as a stacked
        ``matmul``, which reduces each pair the way the scalar product does
        (``einsum`` and ``(a * b).sum(1)`` sum in another order).  Then
        ``update = (error * operand + reg * factor) * (-lr)`` and one record
        scatter of ``factor + update``.  That is the loop bit for bit:
        ``row + g * (-lr)`` is ``row - lr * g`` (negation is exact),
        ``col + update`` with ``update = grad_col * (-lr)`` is the loop's own
        expression, and every other product and sum is the loop's.  The
        deltas are the column half of ``update``.  The level layout comes
        from :meth:`_level_layout`, cached on the plan for whole visits.
        """
        # Concurrent visits share no factor, so their order is free: by cell,
        # as the key of the layout they recur with.
        visits = sorted(visits, key=lambda visit: visit[0].cell)
        plan = visits[0][0].plan
        key, whole = [], True
        for kernel, columns, _, count in visits:
            entries = len(kernel.plan.entries[kernel.cell])
            end = entries if count is None else kernel.start + count
            key.append((kernel.cell, kernel.start, end, len(columns)))
            whole &= not kernel.start and end == entries
        key = tuple(key)
        layout = plan.layouts.get(key)
        if layout is None:
            layout = self._level_layout(visits, key)
            if whole:
                plan.layouts[key] = layout
        bounds, gather, values, positions, spans = layout
        row_factors = self.row_factors
        num_rows, rank = row_factors.shape
        table = np.concatenate([row_factors, *(visit[1] for visit in visits)])
        records = table.view(np.dtype((np.void, 8 * rank))).reshape(-1)
        logged = any(visit[2] is not None for visit in visits)
        deltas = np.empty((len(positions), rank)) if logged else None
        error = np.empty((len(values), 1, 1))
        learning_rate = self.config.learning_rate
        regularization = self.config.regularization
        for low, high in zip(bounds, bounds[1:]):
            slots = gather[2 * low : 2 * high]
            gathered = records[slots]
            factor = gathered.view(np.float64).reshape(2, high - low, rank)
            level_error = np.matmul(
                factor[0, :, None, :], factor[1, :, :, None], out=error[: high - low]
            )[:, 0]
            level_error -= values[low:high]
            update = level_error * factor[::-1]
            update += regularization * factor
            update *= -learning_rate
            factor += update
            records[slots] = gathered
            if logged:
                deltas[positions[low:high]] = update[1]
        row_factors[:] = table[:num_rows]
        for (_, block, block_deltas, _), (at, written) in zip(visits, spans):
            block[:] = table[at : at + len(block)]
            if block_deltas is not None:
                block_deltas[:] = deltas[written : written + len(block_deltas)]

    def _level_layout(self, visits: list, key: tuple) -> tuple:
        """Where the levels of one kernel call find their operands:
        ``(bounds, gather, values, positions, spans)``.

        One :func:`level_schedule` over the visits' runs concatenated, with
        each entry's matrix row and its column's operand-table slot: visits
        that share no factor (the workers of one DSGD subepoch) then keep
        their levels side by side, and a run resumed at ``start > 0`` gets
        its own levels, none of them empty.  Level ``k`` holds entries
        ``bounds[k]:bounds[k + 1]``, with matrix ``values``;
        ``gather[2 * bounds[k]:2 * bounds[k + 1]]`` are the table slots of
        their rows, then of their columns; ``positions`` are the entries'
        rows in the call's deltas, and ``spans`` each visit's first table
        slot and first deltas row.
        """
        matrix = self.matrix
        runs, cols, spans = [], [], []
        offset, length = len(self.row_factors), 0
        for (kernel, _, _, _), (cell, start, end, width) in zip(visits, key):
            run = kernel.plan.entries[cell][start:end]
            runs.append(run)
            cols.append(matrix.cols[run] + (offset - kernel.first_key))
            spans.append((offset, length))
            offset += width
            length += end - start
        run = np.concatenate(runs)
        rows, cols = matrix.rows[run], np.concatenate(cols)
        positions, bounds = level_schedule(rows, cols)
        level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        at, edges = np.arange(len(level)), np.array(bounds)
        # Entry ``at`` of level ``k``: its row at slot ``bounds[k] + at``, its
        # column at ``bounds[k + 1] + at``.
        gather = np.empty(2 * len(level), dtype=np.intp)
        gather[edges[level] + at] = rows[positions]
        gather[edges[level + 1] + at] = cols[positions]
        values = matrix.values[run[positions]].astype(np.float64).reshape(-1, 1)
        return bounds, gather, values, positions, spans

    # ------------------------------------------------------------- evaluation
    def column_factors(self) -> np.ndarray:
        """Current column factors gathered from the parameter server."""
        return self.ps.all_parameters()

    def training_rmse(self) -> float:
        """RMSE over all revealed entries with the current factors."""
        matrix = self.matrix
        columns = self.column_factors()
        return rmse(
            predictions(self.row_factors, columns, matrix.rows, matrix.cols), matrix.values
        )
