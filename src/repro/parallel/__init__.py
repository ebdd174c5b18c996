"""repro.parallel — the parallel execution subsystem.

The paper's scaling argument is that the grid decomposes the self-join into
independent batches that can execute concurrently.  This package runs that
decomposition through one executor with three transports:

* :mod:`~repro.parallel.shards` plans contiguous ``B``-order shards of the
  non-empty cells, balanced by each cell's exact distance calculations
  (:func:`repro.core.kernels.selfjoin_cell_costs`), and turns
  them into :class:`~repro.parallel.scheduler.ShardTask` lists (one helper
  per operator).  Shards partition the origin cells, so their pairs need
  no deduplication — with or without UNICOMP.
* :mod:`~repro.parallel.scheduler` decides who runs what (pull, steal,
  resplit, hedge last) and merges results back in ``B`` order.
* :mod:`~repro.parallel.executor` is the one loop that drives both, and
  the one shard body every worker computes with.  Its transports are:
  inline, one worker in the caller's thread (``sharded``,
  :class:`~repro.parallel.sharded.ShardedBackend`); a persistent
  shared-memory process pool (``multiprocess``,
  :class:`~repro.parallel.mp.MultiprocessBackend`); and TCP workers
  (``distributed``, :class:`~repro.distributed.backend.DistributedBackend`).
  On one plan all three emit the same pair stream and counters.

The backends register lazily with the engine's backend registry, so
``Engine[sharded]`` and ``Engine[multiprocess(4)]`` work everywhere a
backend name does; the ``scaling`` experiment
(:mod:`repro.experiments.scaling`) measures speedup versus worker count.
"""

from __future__ import annotations

from repro.parallel.shards import (
    ShardPlan,
    ShardPlanner,
    default_worker_count,
)
from repro.parallel.sharded import ShardedBackend
from repro.parallel.executor import ShardStats
from repro.parallel.mp import MultiprocessBackend
from repro.parallel.scheduler import (
    OVERSPLIT_FACTOR,
    OrderedShardMerger,
    ScheduleReport,
    ShardTask,
    WorkStealingScheduler,
)

__all__ = [
    "OVERSPLIT_FACTOR",
    "OrderedShardMerger",
    "ScheduleReport",
    "ShardPlan",
    "ShardPlanner",
    "ShardTask",
    "ShardedBackend",
    "MultiprocessBackend",
    "ShardStats",
    "WorkStealingScheduler",
    "default_worker_count",
]
