"""Shard planning: contiguous, cost-balanced partitions of the grid.

A *shard* is a contiguous ``B``-order slice of the grid's non-empty cells.
Because the non-empty cells partition the dataset's origin points — and the
UNICOMP rule assigns every unordered adjacent-cell pair to exactly one
evaluating cell — any partition of the cells yields shards whose self-join
results are disjoint: merging their :class:`~repro.core.result.PairFragments`
needs no deduplication.  The :class:`ShardPlanner` chooses the slice
boundaries on *sampled per-cell cost estimates*
(:func:`repro.core.batching.estimate_cell_costs`, the same sampling idea the
:class:`~repro.core.batching.BatchPlanner` uses for its result buffer) rather than even cell counts, so a shard over a dense region stays
comparable in work to one over sparse space.

:func:`selfjoin_tasks`, :func:`probe_tasks` and :func:`stream_tasks` turn
a plan into the :class:`~repro.parallel.scheduler.ShardTask` list one
operator call runs through :func:`repro.parallel.executor.run_tasks`, on
any backend.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.batching import (
    estimate_cell_costs,
    estimate_probe_row_costs,
    split_by_cost,
)
from repro.core.gridindex import GridIndex
from repro.parallel.scheduler import ShardTask, tasks_from_arrays

#: Environment override for the default worker/shard count.
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"


def default_worker_count() -> int:
    """Worker count to use when none is requested.

    ``REPRO_PARALLEL_WORKERS`` wins when set (CI pins it to make parallel
    runs reproducible); otherwise the host's CPU count.
    """
    override = os.environ.get(WORKERS_ENV_VAR)
    if override:
        return max(1, int(override))
    return max(1, os.cpu_count() or 1)


@dataclass
class ShardPlan:
    """A partition of (a subset of) the non-empty cells into shards.

    Attributes
    ----------
    shards:
        One int64 array of cell indices (into ``B``) per shard; contiguous,
        non-empty slices of the planned cell subset (a dominant cell is
        isolated into its own shard).  Only the degenerate plan over an
        empty cell subset holds a single empty shard.
    estimated_costs:
        Estimated work per shard, aligned with ``shards``.
    cell_costs:
        Per-cell cost estimates, one array per shard aligned with its cell
        array.  The adaptive scheduler uses these to place the cost-weighted
        ``B``-order boundary when it splits an in-flight shard
        (:meth:`repro.parallel.scheduler.ShardTask.split`).
    """

    shards: List[np.ndarray]
    estimated_costs: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64))
    cell_costs: List[np.ndarray] = field(default_factory=list)

    @property
    def n_shards(self) -> int:
        """Number of planned shards (including empty ones)."""
        return len(self.shards)

    def total_cells(self) -> int:
        """Total number of cells across shards."""
        return int(sum(s.shape[0] for s in self.shards))

    def cells(self) -> np.ndarray:
        """All planned cells in shard order (the partitioned domain)."""
        if not self.shards:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.shards)


class ShardPlanner:
    """Plans cost-balanced shard decompositions of grid self-joins.

    Parameters
    ----------
    n_shards:
        Number of shards to produce (clamped to the cell count); defaults to
        :func:`default_worker_count`.
    sample_fraction, max_sample_cells, seed:
        Forwarded to :func:`repro.core.batching.estimate_cell_costs`.
    """

    def __init__(self, n_shards: Optional[int] = None,
                 sample_fraction: float = 0.05, max_sample_cells: int = 512,
                 seed: int = 0) -> None:
        if n_shards is not None and n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards) if n_shards is not None else None
        self.sample_fraction = float(sample_fraction)
        self.max_sample_cells = int(max_sample_cells)
        self.seed = int(seed)

    def plan(self, index: GridIndex,
             cells: Optional[np.ndarray] = None) -> ShardPlan:
        """Partition ``cells`` (all non-empty cells when ``None``) into shards.

        The given cell order is preserved, so a contiguous ``B``-order input
        (the whole grid, or one planned batch) yields contiguous
        ``B``-order shards.
        """
        if cells is None:
            cells = np.arange(index.num_nonempty_cells, dtype=np.int64)
        else:
            cells = np.asarray(cells, dtype=np.int64)
        n_shards = self.n_shards or default_worker_count()
        if cells.shape[0] == 0:
            return ShardPlan(shards=[np.empty(0, dtype=np.int64)],
                             estimated_costs=np.zeros(1, dtype=np.float64),
                             cell_costs=[np.empty(0, dtype=np.float64)])
        costs = estimate_cell_costs(index, sample_fraction=self.sample_fraction,
                                    max_sample_cells=self.max_sample_cells,
                                    seed=self.seed)[cells]
        slices = split_by_cost(costs, n_shards)
        return ShardPlan(
            shards=[cells[s] for s in slices],
            estimated_costs=np.array([float(costs[s].sum()) for s in slices]),
            cell_costs=[costs[s].astype(np.float64) for s in slices])


def selfjoin_tasks(index: GridIndex, cells: Optional[np.ndarray],
                   n_shards: int, seed: int) -> List[ShardTask]:
    """Self-join tasks: cost-balanced contiguous cell shards."""
    plan = ShardPlanner(n_shards=n_shards, seed=seed).plan(index, cells)
    return tasks_from_arrays(plan.shards, plan.cell_costs)


def probe_tasks(queries: np.ndarray, rows: np.ndarray, index: GridIndex,
                n_shards: int, seed: int) -> List[ShardTask]:
    """Probe tasks: cost-balanced contiguous groups of the probed rows."""
    if rows.shape[0] == 0:
        return []
    costs = estimate_probe_row_costs(queries[rows], index, seed=seed)
    groups = split_by_cost(costs, n_shards)
    return tasks_from_arrays([rows[g] for g in groups],
                             [costs[g].astype(np.float64) for g in groups],
                             kind="probe")


def stream_tasks(source, n_shards: int) -> List[ShardTask]:
    """Streamed self-join tasks: store directory ranges balanced by count.

    The per-cell population is already in the store's directory, so no
    sampling pass over the file is needed.
    """
    counts = source.cell_counts.astype(np.float64)
    tasks = []
    for i, cells in enumerate(split_by_cost(counts, n_shards)):
        if cells.shape[0] == 0:
            continue
        lo, hi = int(cells[0]), int(cells[-1]) + 1
        tasks.append(ShardTask(key=(i,), cost=float(counts[lo:hi].sum()),
                               kind="stream", span=(lo, hi),
                               item_costs=counts[lo:hi]))
    return tasks
