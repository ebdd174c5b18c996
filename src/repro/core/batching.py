"""Result-set batching (paper Section V-A).

In low dimensionality the self-join result can exceed the GPU's global
memory, and even when it does not, splitting the work into at least three
batches lets the result transfer of one batch overlap with the computation
of the next.  The CPU engine has no transfer to hide, so it batches only
when the result may not fit (see :mod:`repro.engine.planner`); the paper's
experiments (``SelfJoinConfig``, the figures and Table II) pin
``min_batches=3`` to keep the ≥3-batch overlap scheme.  This module provides:

* :class:`BatchPlanner` — sizes the per-batch result buffer against the
  host memory left once the dataset, the index and its caches are placed
  (:meth:`BatchPlanner.buffer_capacity_pairs`, :func:`host_memory_bytes`),
  estimates the total result size by joining a sample of the non-empty
  cells, and splits the non-empty cells into work-balanced batches (never
  fewer than ``min_batches``).
* :func:`execute_batched` — runs :func:`repro.core.kernels.run_selfjoin`
  batch-by-batch, verifies each batch fits the planned buffer (adaptively
  splitting a batch that overflows), and reports the compute/transfer
  overlap timeline via :func:`repro.gpusim.streams.simulate_pipeline` (the
  Section V-A overlap ablation's entry point; the engine executor does not
  model streams).
* :func:`split_by_cost` — turns any cost vector into contiguous
  work-balanced slices.  The shard planner (:mod:`repro.parallel.shards`)
  splits self-join cells and probe rows on the exact costs of
  :mod:`repro.core.kernels` (``selfjoin_cell_costs``, ``probe_row_costs``).
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.core.gridindex import GridIndex
from repro.core.kernels import KernelStats, run_selfjoin
from repro.core.result import PairFragments, ResultSet
from repro.utils.cancellation import check_cancelled
from repro.utils.timing import Timer

if TYPE_CHECKING:  # pragma: no cover - the device model loads on use only
    from repro.gpusim.device import Device
    from repro.gpusim.streams import PipelineReport

#: Bytes per result pair: two int64 ids (key and value), as in the paper's
#: key/value result buffer.
PAIR_BYTES = 16

#: Safety factor applied to the sampled result-size estimate before deciding
#: the batch count (under-estimating would overflow the result buffer).
ESTIMATE_SAFETY_FACTOR = 1.5


@dataclass
class BatchPlan:
    """A partition of the non-empty cells into batches.

    Attributes
    ----------
    cell_batches:
        One int64 array of cell indices (into ``B``) per batch.
    estimated_total_pairs:
        Result-size estimate used for planning.
    buffer_capacity_pairs:
        Capacity of the per-batch result buffer in pairs.
    data_bytes:
        Bytes taken by the dataset, its index and the index's kept
        caches (:func:`data_bytes`).
    """

    cell_batches: List[np.ndarray]
    estimated_total_pairs: int
    buffer_capacity_pairs: int
    data_bytes: int = 0

    @property
    def n_batches(self) -> int:
        """Number of planned batches."""
        return len(self.cell_batches)

    def total_cells(self) -> int:
        """Total number of cells across batches (must equal ``|G|``)."""
        return int(sum(b.shape[0] for b in self.cell_batches))


@dataclass
class BatchExecutionReport:
    """Measured outcome of a batched execution."""

    plan: BatchPlan
    batch_pairs: List[int] = field(default_factory=list)
    batch_times: List[float] = field(default_factory=list)
    splits_performed: int = 0
    pipeline: Optional[PipelineReport] = None

    @property
    def total_pairs(self) -> int:
        """Total result pairs across batches."""
        return int(sum(self.batch_pairs))

    @property
    def total_kernel_time(self) -> float:
        """Total kernel wall-clock time across batches (seconds)."""
        return float(sum(self.batch_times))


class BatchPlanner:
    """Plans the batch decomposition of a self-join.

    Parameters
    ----------
    memory_bytes:
        Memory the dataset, index and result buffer share (default:
        :func:`host_memory_bytes`).
    min_batches:
        Minimum number of batches; the paper fixes this to 3 so transfers can
        overlap with compute.
    sample_fraction:
        Fraction of non-empty cells joined to estimate the result size.
    max_sample_cells:
        Upper bound on the number of sampled cells (keeps planning cheap).
    result_buffer_fraction:
        Fraction of the memory left after data/index placement that may be
        used for the per-batch result buffer.
    seed:
        RNG seed for the cell sample.
    """

    def __init__(self, memory_bytes: Optional[int] = None, min_batches: int = 3,
                 sample_fraction: float = 0.02, max_sample_cells: int = 2048,
                 result_buffer_fraction: float = 0.5, seed: int = 0) -> None:
        if memory_bytes is not None and memory_bytes <= 0:
            raise ValueError("memory_bytes must be > 0")
        if min_batches < 1:
            raise ValueError("min_batches must be >= 1")
        if not (0.0 < sample_fraction <= 1.0):
            raise ValueError("sample_fraction must be in (0, 1]")
        if not (0.0 < result_buffer_fraction <= 1.0):
            raise ValueError("result_buffer_fraction must be in (0, 1]")
        self.memory_bytes = host_memory_bytes() if memory_bytes is None \
            else int(memory_bytes)
        self.min_batches = int(min_batches)
        self.sample_fraction = float(sample_fraction)
        self.max_sample_cells = int(max_sample_cells)
        self.result_buffer_fraction = float(result_buffer_fraction)
        self.seed = int(seed)

    # ------------------------------------------------------------ estimation
    def estimate_result_pairs(self, index: GridIndex,
                              join: Callable[..., KernelStats]) -> int:
        """Estimate the total number of result pairs by sampling cells.

        ``join(sink=..., cells=...)`` is the self-join operator bound to
        ``index`` (``functools.partial(run_selfjoin, index, eps)``, or a
        backend's ``run_selfjoin`` bound alike).  A uniform sample of
        non-empty cells is joined with it; the sampled pair count is scaled
        by the ratio of total to sampled *points* (cells are weighted by
        their population, which makes the estimator exact in expectation
        for the GLOBAL kernel).
        """
        n_cells = index.num_nonempty_cells
        if n_cells == 0:
            return 0
        sample_size = max(1, min(self.max_sample_cells,
                                 int(math.ceil(n_cells * self.sample_fraction))))
        if sample_size >= n_cells:
            sample = np.arange(n_cells, dtype=np.int64)
        else:
            rng = np.random.default_rng(self.seed)
            sample = np.sort(rng.choice(n_cells, size=sample_size, replace=False))
        sampled_pairs = join(sink=PairFragments(index.num_points),
                             cells=sample).result_pairs
        sampled_points = int(index.cell_counts[sample].sum())
        if sampled_points == 0:
            return 0
        scale = index.num_points / sampled_points
        return int(math.ceil(sampled_pairs * scale))

    # -------------------------------------------------------------- planning
    def plan(self, index: GridIndex,
             join: Optional[Callable[..., KernelStats]] = None,
             estimated_pairs: Optional[int] = None) -> BatchPlan:
        """Produce a :class:`BatchPlan` for the given index.

        Either ``join``, the self-join operator bound to ``index`` (to
        sample-estimate the result size, :meth:`estimate_result_pairs`), or
        ``estimated_pairs`` must be provided.
        """
        if estimated_pairs is None:
            if join is None:
                raise ValueError("plan() needs either a join or estimated_pairs")
            estimated_pairs = self.estimate_result_pairs(index, join)

        buffer_capacity_pairs = self.buffer_capacity_pairs(index)
        padded = int(math.ceil(estimated_pairs * ESTIMATE_SAFETY_FACTOR))
        needed = max(1, int(math.ceil(padded / buffer_capacity_pairs)))
        n_batches = max(self.min_batches, needed)
        n_batches = min(n_batches, max(1, index.num_nonempty_cells))

        cell_batches = split_cells_balanced(index, n_batches)
        return BatchPlan(
            cell_batches=cell_batches,
            estimated_total_pairs=int(estimated_pairs),
            buffer_capacity_pairs=int(buffer_capacity_pairs),
            data_bytes=data_bytes(index),
        )

    def buffer_capacity_pairs(self, index: GridIndex) -> int:
        """Result pairs one batch's buffer holds when joining ``index``.

        The buffer gets ``result_buffer_fraction`` of ``memory_bytes`` left
        over once the dataset and the index are placed.
        """
        free_bytes = max(0, self.memory_bytes - data_bytes(index))
        buffer_bytes = int(free_bytes * self.result_buffer_fraction)
        return max(1, buffer_bytes // PAIR_BYTES)


def host_memory_bytes() -> int:
    """Physical memory of this host, capped by a finite soft ``RLIMIT_AS``."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        return int(physical)
    return int(min(physical, soft))


def data_bytes(index: GridIndex) -> int:
    """Bytes taken by the dataset and its grid index: the points, the
    paper's index arrays (:meth:`GridIndex.memory_footprint`) and what the
    kernels keep on the index so far (:meth:`GridIndex.cached_nbytes`).

    A self-join's sample estimate fills the index's caches, so a plan made
    after one counts them.
    """
    return int(index.points.nbytes + index.memory_footprint()
               + index.cached_nbytes())


def split_by_cost(costs: np.ndarray, n_parts: int) -> List[np.ndarray]:
    """Split items ``0..len(costs)-1`` into contiguous, cost-balanced slices.

    The split boundaries are chosen on the cumulative cost curve so each
    slice carries roughly ``total_cost / n_parts``.  Items stay in order
    (contiguous index ranges), which is what both the cell batcher (``B``
    order) and the probe-row shard split (row order) require.  Every slice is
    non-empty (``n_parts`` is clamped to the item count), so a dominant
    item gets isolated into its own slice rather than dragging the rest of
    the items in with it.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    costs = np.asarray(costs, dtype=np.float64)
    n_items = costs.shape[0]
    if n_items == 0:
        return [np.empty(0, dtype=np.int64)]
    n_parts = min(n_parts, n_items)
    cum = np.cumsum(costs)
    total = float(cum[-1])
    if not total > 0.0:
        return [np.asarray(part, dtype=np.int64) for part in
                np.array_split(np.arange(n_items, dtype=np.int64), n_parts)]
    boundaries = [0]
    for b in range(1, n_parts):
        target = total * b / n_parts
        # side="right": an item whose cumulative cost lands exactly on the
        # target belongs to the left slice — with side="left", uniform costs
        # would put every boundary one item early (e.g. two equal items into
        # slices of 0 and 2).
        boundary = int(np.searchsorted(cum, target, side="right"))
        # Every slice stays non-empty (n_parts <= n_items): a dominant item
        # would otherwise pin all boundaries to its side and collapse the
        # split into one slice carrying 100% of the work.
        boundary = max(boundary, boundaries[-1] + 1)
        boundary = min(boundary, n_items - (n_parts - b))
        boundaries.append(boundary)
    boundaries.append(n_items)
    return [np.arange(lo, hi, dtype=np.int64)
            for lo, hi in zip(boundaries[:-1], boundaries[1:])]


def split_cells_balanced(index: GridIndex, n_batches: int) -> List[np.ndarray]:
    """Split the non-empty cells into ``n_batches`` contiguous, work-balanced parts.

    Cells are kept in ``B`` order (contiguous ranges of the lookup array,
    which is how the CUDA implementation would partition query points) and
    the split boundaries are chosen so each batch holds roughly the same
    number of *points*, which is a better proxy for work than cell count.
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    if index.num_nonempty_cells == 0:
        return [np.empty(0, dtype=np.int64)]
    return split_by_cost(index.cell_counts.astype(np.float64), n_batches)


def run_adaptive_batches(batches: List[np.ndarray], run_batch,
                         buffer_capacity_pairs: int,
                         max_adaptive_splits: int = 8):
    """Generic batch loop with adaptive splitting on result-buffer overflow.

    ``run_batch(batch) -> (pairs, payload)`` executes one batch of work items
    (cell or query-row indices) and reports the number of result pairs it
    produced together with an arbitrary payload (a
    :class:`~repro.core.result.PairFragments` sink and its stats, ...).  A
    batch whose pair count exceeds ``buffer_capacity_pairs`` is discarded,
    split in half and re-run (up to ``max_adaptive_splits`` times overall),
    mirroring how an implementation would re-issue a kernel whose result
    buffer overflowed.

    This single loop drives both the legacy :func:`execute_batched` API and
    the sink-based executor of :mod:`repro.engine.executor`, so self-joins
    and bipartite probes share one merge path.

    Returns ``(payloads, batch_pairs, batch_times, splits)``.
    """
    pending: List[np.ndarray] = [b for b in batches if b.shape[0] > 0]
    if not pending:
        pending = [np.empty(0, dtype=np.int64)]
    payloads: List = []
    batch_pairs: List[int] = []
    batch_times: List[float] = []
    splits = 0
    while pending:
        # Cancellation checkpoint: a deadline-cancelled request stops between
        # batches instead of grinding through the remaining ones.
        check_cancelled()
        batch = pending.pop(0)
        with Timer() as timer:
            pairs, payload = run_batch(batch)
        if (pairs > buffer_capacity_pairs and batch.shape[0] > 1
                and splits < max_adaptive_splits):
            # The batch would have overflowed the result buffer:
            # split it and re-run both halves.
            splits += 1
            mid = batch.shape[0] // 2
            pending.insert(0, batch[mid:])
            pending.insert(0, batch[:mid])
            continue
        payloads.append(payload)
        batch_pairs.append(pairs)
        batch_times.append(timer.elapsed)
    return payloads, batch_pairs, batch_times, splits


def execute_batched(index: GridIndex, eps: float, plan: BatchPlan, *,
                    unicomp: bool = False, tier: str = "auto",
                    device: Optional[Device] = None, n_streams: int = 3,
                    max_adaptive_splits: int = 8,
                    ) -> tuple[ResultSet, KernelStats, BatchExecutionReport]:
    """Execute a self-join batch by batch (legacy pair-list API).

    Each batch is one :func:`~repro.core.kernels.run_selfjoin` call over
    its cells, into a sink of its own.  Returns the merged result, the
    accumulated kernel work counters and a :class:`BatchExecutionReport`
    containing the per-batch sizes/times and the stream-overlap timeline.
    The GPU device model that times the overlap is imported here, so the
    query path never loads it.
    """
    from repro.gpusim.device import Device
    from repro.gpusim.streams import simulate_pipeline

    device = device or Device()
    report = BatchExecutionReport(plan=plan)
    stats = KernelStats()

    def run_batch(batch: np.ndarray):
        sink = PairFragments(index.num_points)
        batch_stats = run_selfjoin(index, eps, sink, cells=batch,
                                   unicomp=unicomp, tier=tier)
        return batch_stats.result_pairs, (sink, batch_stats)

    outputs, report.batch_pairs, report.batch_times, report.splits_performed = \
        run_adaptive_batches(plan.cell_batches, run_batch,
                             plan.buffer_capacity_pairs, max_adaptive_splits)
    for _, batch_stats in outputs:
        stats.merge(batch_stats)
    result = ResultSet.merge([sink.to_result_set() for sink, _ in outputs])
    report.pipeline = simulate_pipeline(
        report.batch_times,
        [p * PAIR_BYTES for p in report.batch_pairs],
        pcie_bandwidth_gbps=device.spec.pcie_bandwidth_gbps,
        n_streams=n_streams,
    )
    return result, stats, report
