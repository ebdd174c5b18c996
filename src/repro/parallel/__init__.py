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
  :mod:`~repro.parallel.compute` the one shard body every worker
  computes with.  The executor's transports are: inline, one worker in the caller's thread (``sharded``,
  :class:`~repro.parallel.sharded.ShardedBackend`); a persistent
  shared-memory process pool (``multiprocess``,
  :class:`~repro.parallel.mp.MultiprocessBackend`); and TCP workers
  (``distributed``, :class:`~repro.distributed.backend.DistributedBackend`).
  On one plan all three emit the same pair stream and counters.

The backends register lazily with the engine's backend registry, so
``Engine[sharded]`` and ``Engine[multiprocess(4)]`` work everywhere a
backend name does; the ``scaling`` experiment
(:mod:`repro.experiments.scaling`) measures speedup versus worker count.

The names below resolve lazily (:mod:`repro.utils.lazy`): a TCP worker
imports the shard bodies (:mod:`~repro.parallel.compute`) without the
executor loop, the scheduler, the shard planner or the process pool (and
so without :mod:`multiprocessing`).
"""

from __future__ import annotations

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".scheduler": ["OVERSPLIT_FACTOR", "OrderedShardMerger", "ScheduleReport",
                   "ShardTask", "WorkStealingScheduler"],
    ".shards": ["ShardPlan", "ShardPlanner", "default_worker_count"],
    ".sharded": ["ShardedBackend"],
    ".mp": ["MultiprocessBackend"],
    ".executor": ["ShardStats"],
})
