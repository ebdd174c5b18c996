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

The plan is consumed serially by
:class:`repro.parallel.sharded.ShardedBackend` and concurrently by
:class:`repro.parallel.mp.MultiprocessBackend`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.core.batching import estimate_cell_costs, split_by_cost
from repro.core.gridindex import GridIndex
from repro.core.result import PairFragments

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


def merge_fragments(num_rows: int,
                    parts: Iterable[PairFragments]) -> PairFragments:
    """Merge per-shard sinks into one master sink (no dedup, no sort).

    Shards partition the origin cells, so their fragments are disjoint by
    construction; the merge is a pure fragment-list concatenation.  Empty
    sinks are absorbed without effect.  All sinks must cover the same row
    space (``num_rows``) or :class:`ValueError` is raised.
    """
    master = PairFragments(num_rows)
    for part in parts:
        master.extend(part)
    return master
