"""Hand-tuned low-level DSGD baseline (the Figure 9 comparison point).

The paper's strongest baseline for matrix factorization is a task-specific
low-level implementation (DSGD++ style) that manages parameter movement
manually with MPI primitives: column-factor *blocks* are shipped directly from
node to node between subepochs, workers operate on the raw arrays in place —
no key–value abstraction, no copying values in and out of a store, no
concurrency control.  This is exactly what gives it its 2.0–2.6x advantage
over Lapse (§4.4) while being unusable for other ML tasks.

The simulation charges:

* per entry: only the configured computation time (no per-key access latency),
* per subepoch: one block-transfer message per worker (the block's full size),
  plus a barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.config import ClusterConfig, derive_seed, message_size
from repro.data.synthetic_matrix import SyntheticMatrix, predictions
from repro.errors import ExperimentError
from repro.ml.metrics import rmse
from repro.ml.results import EpochResult
from repro.pal.parameter_blocking import BlockSchedule, keys_of_block
from repro.simnet import Simulator


@dataclass(frozen=True)
class LowLevelDSGDConfig:
    """Hyper-parameters of the low-level DSGD baseline (mirrors the PS trainer)."""

    rank: int = 8
    learning_rate: float = 0.05
    regularization: float = 0.02
    compute_time_per_entry: float = 2e-6
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ExperimentError("rank must be >= 1")
        if self.learning_rate <= 0:
            raise ExperimentError("learning_rate must be positive")


class LowLevelDSGD:
    """Task-specific DSGD implementation with manual block shipping."""

    def __init__(
        self,
        cluster: ClusterConfig,
        matrix: SyntheticMatrix,
        config: Optional[LowLevelDSGDConfig] = None,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.matrix = matrix
        self.config = config or LowLevelDSGDConfig()
        self.seed = seed
        self.sim = Simulator()
        #: Block messages shipped between nodes, and their bytes.
        self.remote_messages = 0
        self.bytes_sent = 0
        num_workers = cluster.total_workers
        self.schedule = BlockSchedule(num_workers=num_workers)
        rng = np.random.default_rng(derive_seed(seed, 404))
        self.row_factors = rng.normal(
            0.0, self.config.init_scale, size=(matrix.num_rows, self.config.rank)
        )
        self.column_factors = rng.normal(
            0.0, self.config.init_scale, size=(matrix.num_cols, self.config.rank)
        )
        self._epochs_run = 0
        self._partition_entries()

    # ------------------------------------------------------------ preparation
    def _partition_entries(self) -> None:
        num_workers = self.cluster.total_workers
        matrix = self.matrix
        rows_per_worker = int(np.ceil(matrix.num_rows / num_workers))
        row_block_of = np.minimum(matrix.rows // max(1, rows_per_worker), num_workers - 1)
        self._entries: Dict[Tuple[int, int], np.ndarray] = {}
        num_blocks = self.schedule.num_blocks
        block_keys = [
            set(keys_of_block(block, matrix.num_cols, num_blocks)) for block in range(num_blocks)
        ]
        col_block = np.zeros(matrix.num_cols, dtype=np.int64)
        for block, keys in enumerate(block_keys):
            for key in keys:
                col_block[key] = block
        entry_blocks = col_block[matrix.cols]
        for worker in range(num_workers):
            worker_mask = row_block_of == worker
            for block in range(num_blocks):
                mask = worker_mask & (entry_blocks == block)
                self._entries[(worker, block)] = np.flatnonzero(mask)

    # -------------------------------------------------------------- training
    def train(self, num_epochs: int = 1, compute_loss: bool = True) -> List[EpochResult]:
        """Run ``num_epochs`` epochs of block-rotating DSGD."""
        if num_epochs < 1:
            raise ExperimentError("num_epochs must be >= 1")
        return [self.run_epoch(compute_loss=compute_loss) for _ in range(num_epochs)]

    def run_epoch(self, compute_loss: bool = True) -> EpochResult:
        """Run one epoch; returns the simulated epoch run time and RMSE."""
        epoch = self._epochs_run
        start_time = self.sim.now
        processes = []
        for worker in range(self.cluster.total_workers):
            processes.append(self.sim.process(self._worker_epoch(worker)))
        self.sim.run()
        for process in processes:
            if not process.processed:
                raise ExperimentError("low-level DSGD worker did not finish")
        duration = self.sim.now - start_time
        self._epochs_run += 1
        loss = self.training_rmse() if compute_loss else None
        return EpochResult(epoch=epoch, duration=duration, end_time=self.sim.now, loss=loss)

    def _worker_epoch(self, worker_id: int) -> Generator:
        config = self.config
        matrix = self.matrix
        num_blocks = self.schedule.num_blocks
        workers_per_node = self.cluster.workers_per_node
        node_id = worker_id // workers_per_node
        for subepoch in range(self.schedule.num_subepochs):
            block = self.schedule.block_for(worker_id, subepoch)
            block_cols = keys_of_block(block, matrix.num_cols, num_blocks)
            # Receive the block from the worker that held it in the previous
            # subepoch (one direct node-to-node message carrying the block).
            if subepoch > 0:
                previous_holder = (worker_id + 1) % self.cluster.total_workers
                previous_node = previous_holder // workers_per_node
                if previous_node != node_id:
                    size = message_size(len(block_cols), len(block_cols) * config.rank)
                    self.remote_messages += 1
                    self.bytes_sent += size
                    yield self.cluster.cost_model.message_time(size)
            for index in self._entries[(worker_id, block)]:
                row = int(matrix.rows[index])
                col = int(matrix.cols[index])
                value = float(matrix.values[index])
                row_factor = self.row_factors[row]
                col_factor = self.column_factors[col]
                error = float(row_factor @ col_factor) - value
                grad_row = error * col_factor + config.regularization * row_factor
                grad_col = error * row_factor + config.regularization * col_factor
                # In-place updates, no copies, no concurrency control: the
                # blocking schedule guarantees exclusive access.
                self.row_factors[row] = row_factor - config.learning_rate * grad_row
                self.column_factors[col] = col_factor - config.learning_rate * grad_col
                if config.compute_time_per_entry > 0:
                    yield config.compute_time_per_entry
        return None

    # ------------------------------------------------------------- evaluation
    def training_rmse(self) -> float:
        """RMSE over all revealed entries with the current factors."""
        matrix = self.matrix
        return rmse(
            predictions(self.row_factors, self.column_factors, matrix.rows, matrix.cols),
            matrix.values,
        )

    @property
    def simulated_time(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now
