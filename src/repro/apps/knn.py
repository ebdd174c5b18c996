"""k-nearest-neighbor search on the grid index (paper "future work").

The paper's conclusion lists applying the indexing scheme to kNN searches as
future work.  This module implements it on top of the unified query engine:
candidate generation executes through :class:`repro.engine.query.Query`'s
``knn_candidates`` kind — an adaptive-radius grid probe that guarantees each
query's candidate row contains its exact k nearest neighbors (if at least k
candidates lie within radius r, the k-th neighbor distance is at most r, so
every true neighbor is within r and therefore among the candidates).  The
top-k selection over the CSR candidate table is fully vectorized: one bulk
distance evaluation over all (query, candidate) pairs and one grouped sort.
That ranking rounds its distances its own way (``einsum``), not as the
probe's filter does; the executor finishes a row only when its k-th
neighbour lies below the radius by a margin that covers both roundings,
and re-probes any other row at the doubled radius, so the answer is exact
whichever kernel tier filtered the candidates.

Candidate generation runs inside an
:class:`~repro.engine.session.EngineSession` — pass an open one to amortize
index construction (and, on the ``multiprocess`` backend, pool start-up and
dataset shipping) across repeated searches; without one, a thin one-shot
session wraps the single call so the radius-doubling rounds still share
their per-ε indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.gridindex import GridIndex
from repro.engine.executor import execute
from repro.engine.planner import QueryPlanner
from repro.engine.query import Query
from repro.engine.session import EngineSession
from repro.utils.validation import check_points


@dataclass
class KNNResult:
    """Output of :func:`knn_search`."""

    indices: np.ndarray    # (n_queries, k) neighbor ids
    distances: np.ndarray  # (n_queries, k) Euclidean distances

    @property
    def k(self) -> int:
        """Number of neighbors returned per query."""
        return int(self.indices.shape[1])


def knn_search(points: Optional[np.ndarray], k: int,
               queries: Optional[np.ndarray] = None,
               cell_width: Optional[float] = None, include_self: bool = False,
               index: Optional[GridIndex] = None,
               backend=None,
               session: Optional[EngineSession] = None) -> KNNResult:
    """Exact k-nearest-neighbor search using the paper's grid index.

    Parameters
    ----------
    points:
        ``(n_points, n_dims)`` dataset; may be ``None`` when a ``session``
        supplies it.
    k:
        Number of neighbors per query.
    queries:
        Query coordinates; defaults to the dataset itself (all-kNN).
    cell_width:
        Grid cell side length; a heuristic based on the expected k-neighbor
        radius of a uniform distribution is used when omitted.
    include_self:
        When querying the dataset against itself, whether a point may report
        itself as one of its neighbors.
    index:
        Optional pre-built :class:`GridIndex` over ``points`` (its ``eps`` is
        then used as the cell width).  Mutually exclusive with ``session``.
    backend:
        Engine execution backend (name or instance) used for the candidate
        probes; defaults to ``"vectorized"``.  Mutually exclusive with
        ``session`` — the session's backend runs the search.
    session:
        Optional open :class:`~repro.engine.session.EngineSession` owning the
        dataset; repeated searches then reuse its cached per-ε indexes and
        attached backend state.  ``points`` must be ``session.points`` (or
        ``None``).

    Returns
    -------
    KNNResult
    """
    if session is not None:
        if index is not None:
            raise ValueError("pass either a pre-built index or a session, not both")
        if backend is not None:
            raise ValueError("pass either a backend or a session, not both "
                             "(the session fixes the backend)")
        pts = session.resolve_points(points)
    elif points is None:
        raise ValueError("points is required when no session is given")
    else:
        pts = check_points(points)
    if backend is None:
        backend = "vectorized"
    n = pts.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    self_query = queries is None
    limit = n if (include_self or not self_query) else n - 1
    if k > limit:
        raise ValueError(f"k={k} exceeds the number of available neighbors ({limit})")

    query_arg = None if self_query else check_points(queries)
    if session is not None:
        # The session validated its dataset once; only the queries are.
        engine_result = session.knn_candidates(
            k, query_arg, cell_width=cell_width, include_self=include_self)
    else:
        query = Query.knn_candidates(pts, k, queries=query_arg,
                                     cell_width=cell_width,
                                     include_self=include_self)
        if index is not None:
            engine_result = execute(
                QueryPlanner(backend=backend).plan(query, index=index))
        else:
            # One-shot wrapper: a private session scoped to this call, so
            # the radius-doubling rounds share their per-ε indexes (and a
            # stateful backend keeps one pool across the rounds).
            with EngineSession(pts, backend=backend) as one_shot:
                engine_result = one_shot.run(query)
    table = engine_result.neighbor_table

    query_pts = pts if self_query else engine_result.plan.query.queries
    n_q = query_pts.shape[0]
    counts = table.counts()

    # One bulk distance evaluation over every (query row, candidate) pair.
    rows = np.repeat(np.arange(n_q, dtype=np.int64), counts)
    diff = query_pts[rows] - pts[table.neighbors]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))

    # Grouped top-k: order by (row, distance); ties resolve to the lower
    # candidate id because CSR rows are stored in id order and the sort is
    # stable.  Row r's k best entries start at the row's first position.
    order = np.lexsort((dist, rows))
    starts = table.offsets[:-1]
    take = order[starts[:, None] + np.arange(k, dtype=np.int64)[None, :]]
    return KNNResult(indices=table.neighbors[take], distances=dist[take])
