"""repro.engine — the unified query engine.

The paper frames the distance-similarity self-join as "a special case of a
join operation on two different sets of data points".  This package is that
generalization made executable: one declarative :class:`Query` description
covers the self-join, the bipartite similarity join, per-query ε-range
queries and kNN candidate generation; one :class:`QueryPlanner` decides the
physical strategy (which side to index, whether UNICOMP applies, how to
decompose the work into batches when the result may not fit memory); and
one pluggable :class:`ExecutionBackend` registry supplies the kernels.  Every workload in
the repo — ``selfjoin()``, ``similarity_join()``, DBSCAN, kNN, catalog
cross-matching, the experiment harness — flows through this seam, so a new
backend (sharded, multi-process, distributed) plugs in exactly once.

Results move through the CSR-native pipeline: kernels emit pair fragments
into :class:`~repro.core.result.PairFragments` sinks, and the
:class:`EngineResult` materializes either the legacy flat
:class:`~repro.core.result.ResultSet` pair list or the CSR
:class:`~repro.core.result.NeighborTable` (per-point counts + prefix-sum
offsets) directly — the pair-list → CSR conversion that used to sit on the
DBSCAN/kNN hot path is gone.

Quickstart
----------
>>> import numpy as np
>>> from repro.engine import Query, run_query
>>> rng = np.random.default_rng(0)
>>> points = rng.uniform(0.0, 10.0, size=(1000, 2))
>>> result = run_query(Query.self_join(points, eps=0.5))
>>> table = result.neighbor_table          # CSR, no pair list materialized
>>> int(table.num_pairs) == result.num_pairs
True
>>> catalog = rng.uniform(0.0, 10.0, size=(500, 2))
>>> matches = run_query(Query.bipartite_join(points, catalog, eps=0.3))
>>> matches.neighbor_table.num_points      # CSR rows = left-side points
1000

Backends are chosen per planner: ``run_query(query, backend="bruteforce")``
or ``QueryPlanner(backend="simulated")``; parameterized names configure a
backend (``backend="multiprocess(4)"`` for four workers).
``list_backends()`` enumerates the registry, ``backend_availability()``
reports which backends can run (an optional dependency may be missing),
and :func:`register_backend` / :func:`register_lazy_backend` add new ones.

When one dataset serves many queries, open an :class:`EngineSession`
(``with EngineSession(points, backend="multiprocess(4)") as s: ...``): it
caches the grid index per ε, and stateful backends attach persistent
per-dataset resources to it (the multiprocess pool + shared-memory
dataset), so warm queries skip index construction, pool start-up and
dataset shipping while producing bit-identical results to the one-shot
path.  See :mod:`repro.engine.session`.

The names below resolve lazily (:mod:`repro.utils.lazy`): a shard worker
imports :mod:`~repro.engine.backends` without the planner, the executor or
the session, and :func:`run_query` lives in :mod:`repro.engine.executor`.
"""

from __future__ import annotations

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".query": ["Query", "QUERY_KINDS", "SELF_JOIN", "BIPARTITE_JOIN",
               "RANGE_QUERY", "KNN_CANDIDATES"],
    ".planner": ["QueryPlan", "QueryPlanner"],
    ".executor": ["EngineResult", "execute", "run_query"],
    ".session": ["EngineSession", "DatasetIdentity", "SessionStats"],
    ".backends": ["ExecutionBackend", "BACKENDS", "BackendUnavailableError",
                  "register_backend", "register_lazy_backend", "get_backend",
                  "list_backends", "available_backends",
                  "backend_availability"],
})
