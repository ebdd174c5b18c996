"""repro — reproduction of *GPU Accelerated Self-Join for the Distance Similarity Metric*.

The package implements the paper's contribution (the GPU-SJ grid-index
self-join with the UNICOMP work-avoidance optimization and result-set
batching) together with every substrate it depends on:

* :mod:`repro.gpusim` — a SIMT-style device model that substitutes for the
  CUDA GPU used in the paper (global memory, warps, occupancy, cache model,
  streams).
* :mod:`repro.baselines` — the comparison algorithms: a from-scratch R-tree
  search-and-refine self-join (CPU-RTREE), an Epsilon-Grid-Order join
  (SUPEREGO), and brute-force joins.
* :mod:`repro.data` — synthetic and surrogate "real-world" dataset generators
  mirroring Table I of the paper.
* :mod:`repro.experiments` — the benchmark harness regenerating every table
  and figure of the evaluation section.
* :mod:`repro.apps` — applications built on the self-join (DBSCAN, kNN).
* :mod:`repro.engine` — the unified query engine: one declarative
  :class:`~repro.engine.query.Query` (self-join / bipartite join / range
  query / kNN candidates), one planner, pluggable execution backends, and
  the CSR-native result pipeline every workload above runs on.

The names below resolve lazily (PEP 562, :mod:`repro.utils.lazy`):
``import repro`` imports no subpackage but :mod:`repro.utils`, and a
name's defining module is imported on first access, so a process that runs one path (a shard
worker, say) never loads the others.

Quickstart
----------
>>> import numpy as np
>>> from repro import selfjoin
>>> rng = np.random.default_rng(0)
>>> points = rng.uniform(0.0, 10.0, size=(1000, 2))
>>> result = selfjoin(points, eps=0.5)
>>> result.num_pairs > 0
True

The same join through the engine, straight to the CSR neighbor table:

>>> from repro import Query, run_query
>>> table = run_query(Query.self_join(points, eps=0.5)).neighbor_table
>>> int(table.num_pairs) == result.num_pairs
True
"""

from __future__ import annotations

from repro.utils.lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core.selfjoin": ["GPUSelfJoin", "SelfJoinConfig", "selfjoin"],
    ".core.join": ["similarity_join", "range_query"],
    ".core.selector": ["adaptive_selfjoin", "select_algorithm"],
    ".core.gridindex": ["GridIndex"],
    ".core.result": ["NeighborTable", "PairFragments", "ResultSet"],
    ".core.batching": ["BatchPlan", "BatchPlanner"],
    ".engine": ["Query", "QueryPlanner", "run_query"],
})
__all__ += ["__version__"]
