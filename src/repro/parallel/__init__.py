"""repro.parallel — the parallel execution subsystem.

The paper's scaling argument is that the grid decomposes the self-join into
independent batches that can execute concurrently; this package turns the
engine's ``Query → QueryPlanner → ExecutionBackend`` seam into real
multi-core speedups on that exact decomposition:

* :class:`~repro.parallel.shards.ShardPlanner` partitions the non-empty
  cells into contiguous ``B``-order shards, work-balanced by sampled
  per-cell cost estimates (:func:`repro.core.batching.estimate_cell_costs`).
  Shards partition the origin cells, so merging their pair fragments needs
  no deduplication — with or without UNICOMP.
* :class:`~repro.parallel.sharded.ShardedBackend` (``sharded``) runs any
  inner backend shard-by-shard serially and merges the sinks — the merge
  path, exercised without concurrency.
* :class:`~repro.parallel.mp.MultiprocessBackend` (``multiprocess``) runs
  the same shards on a ``multiprocessing`` pool; fragments return as plain
  arrays.  One-shot calls ship the dataset to each worker once via the pool
  initializer; inside an :class:`~repro.engine.session.EngineSession` the
  backend instead keeps a *persistent pool keyed by dataset identity* with
  a ``multiprocessing.shared_memory`` view of the points array, so repeated
  queries pay neither pool start-up nor dataset shipping.
* :mod:`~repro.parallel.scheduler` is the **adaptive scheduling layer**
  shared by the concurrent backends: plans oversplit into
  ``OVERSPLIT_FACTOR`` shards per worker and workers *pull* the next shard
  as they finish.  The multiprocess pool's task queue is the pull mechanism
  directly; the distributed backend drives the full
  :class:`~repro.parallel.scheduler.WorkStealingScheduler` — steal, mid-join
  resplit, throughput-tracked rebalance, hedging only as last resort — with
  :class:`~repro.parallel.scheduler.OrderedShardMerger` keeping results
  bit-identical to a static run no matter the completion order.

Both register with the engine's backend registry (lazily, from
:mod:`repro.engine.backends`), so ``Engine[sharded]`` and
``Engine[multiprocess(4)]`` work everywhere a backend name does:
self-joins, bipartite joins, range queries, kNN candidate generation and
the experiment harness.  The ``scaling`` experiment
(:mod:`repro.experiments.scaling`) measures self-join speedup versus
worker count.
"""

from __future__ import annotations

from repro.parallel.shards import (
    ShardPlan,
    ShardPlanner,
    default_worker_count,
    merge_fragments,
)
from repro.parallel.sharded import ShardedBackend
from repro.parallel.mp import MultiprocessBackend, MultiprocessStats
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
    "MultiprocessStats",
    "WorkStealingScheduler",
    "default_worker_count",
    "merge_fragments",
]
