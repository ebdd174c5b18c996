"""Declarative query descriptions for the unified query engine.

A :class:`Query` says *what* to compute — a self-join, a bipartite similarity
join, per-query ε-range queries, or kNN candidate generation — without saying
*how*.  The paper frames the self-join as "a special case of a join operation
on two different sets of data points"; the query kinds below are exactly the
members of that family the repo's applications need.  The *how* (index side,
batch decomposition, UNICOMP eligibility, backend) is decided by
:class:`repro.engine.planner.QueryPlanner` and executed by
:func:`repro.engine.executor.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.data.store import DatasetSource
from repro.utils.validation import check_eps, ensure_2d_float64

#: The query kinds the engine understands.
SELF_JOIN = "self_join"
BIPARTITE_JOIN = "bipartite_join"
RANGE_QUERY = "range_query"
KNN_CANDIDATES = "knn_candidates"

QUERY_KINDS = (SELF_JOIN, BIPARTITE_JOIN, RANGE_QUERY, KNN_CANDIDATES)


@dataclass
class Query:
    """One distance-similarity query over one or two point sets.

    Attributes
    ----------
    kind:
        One of :data:`QUERY_KINDS`.
    points:
        The indexed ("right" / data) point set; ``None`` for a self-join
        described by a :class:`~repro.data.store.DatasetSource` (see
        ``source``), where the planner decides whether the source is
        streamed or materialized.
    source:
        The indexed side as a :class:`~repro.data.store.DatasetSource`
        (self-joins only).  A streaming-capable backend joins it
        slice-at-a-time without materializing; any other backend
        materializes ``source.as_array()`` at planning time.
    queries:
        The probe ("left" / query) point set; ``None`` for self-joins and for
        all-kNN over ``points`` itself.
    eps:
        Search distance (``None`` only for kNN candidates, where the planner
        derives an initial radius from ``k`` or the supplied cell width).
    k:
        Neighbor count for kNN candidate generation.
    unicomp:
        Request the UNICOMP work-avoidance optimization where applicable
        (self-joins on backends that support it).
    include_self:
        Whether trivial self-pairs are kept (self-join / self-kNN).
    sort_result:
        Sort the pair-list view by (key, value) before returning it.
    batching:
        Allow the planner to decompose a self-join into batches (probes
        always run unbatched).
    """

    kind: str
    points: Optional[np.ndarray]
    queries: Optional[np.ndarray] = None
    eps: Optional[float] = None
    k: Optional[int] = None
    unicomp: bool = True
    include_self: bool = True
    sort_result: bool = False
    batching: bool = True
    source: Optional[DatasetSource] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"kind must be one of {QUERY_KINDS}, got {self.kind!r}")
        if self.points is None and self.source is None:
            raise ValueError("a query needs an indexed side: points or source")

    # ------------------------------------------------------------ constructors
    @classmethod
    def self_join(cls, points: Union[np.ndarray, DatasetSource], eps: float, *,
                  unicomp: bool = True,
                  include_self: bool = True, sort_result: bool = False,
                  batching: bool = True) -> "Query":
        """All pairs ``(p, q)`` of one dataset with ``dist(p, q) <= eps``.

        ``points`` may be a raw array or a
        :class:`~repro.data.store.DatasetSource` (e.g. an on-disk
        :class:`~repro.data.store.SpatialStore`, which streaming-capable
        backends join without materializing).
        """
        if isinstance(points, DatasetSource):
            return cls(kind=SELF_JOIN, points=None, source=points,
                       eps=check_eps(eps), unicomp=unicomp,
                       include_self=include_self, sort_result=sort_result,
                       batching=batching)
        return cls(kind=SELF_JOIN, points=ensure_2d_float64(points),
                   eps=check_eps(eps), unicomp=unicomp,
                   include_self=include_self, sort_result=sort_result,
                   batching=batching)

    @classmethod
    def bipartite_join(cls, left: np.ndarray, right: np.ndarray,
                       eps: float) -> "Query":
        """All pairs ``(a, b)``, ``a`` in ``left``, ``b`` in ``right``, within ε."""
        left = ensure_2d_float64(left, name="left")
        right = ensure_2d_float64(right, name="right")
        if left.shape[1] != right.shape[1]:
            raise ValueError("left and right must have the same dimensionality")
        return cls(kind=BIPARTITE_JOIN, points=right, queries=left,
                   eps=check_eps(eps), unicomp=False)

    @classmethod
    def range_query(cls, data: np.ndarray, queries: np.ndarray,
                    eps: float) -> "Query":
        """Per-query ε-neighborhoods over ``data`` (CSR rows keyed by query)."""
        return cls._range_query(ensure_2d_float64(data, name="data"),
                                queries, eps)

    @classmethod
    def _range_query(cls, data: np.ndarray, queries: np.ndarray,
                     eps: float) -> "Query":
        """:meth:`range_query` over a ``data`` already normalized once, as
        a session's dataset is: only the queries are validated."""
        queries = ensure_2d_float64(queries, name="queries")
        if data.shape[1] != queries.shape[1]:
            raise ValueError("data and queries must have the same dimensionality")
        return cls(kind=RANGE_QUERY, points=data, queries=queries,
                   eps=check_eps(eps), unicomp=False)

    @classmethod
    def knn_candidates(cls, points: np.ndarray, k: int,
                       queries: Optional[np.ndarray] = None, *,
                       cell_width: Optional[float] = None,
                       include_self: bool = False) -> "Query":
        """Candidate sets guaranteed to contain each query's exact k nearest.

        The executor probes with an adaptive radius: every returned row holds
        all points within some radius r of its query, with enough candidates
        (``k``, or ``k + 1`` when the query point itself must be excluded)
        that the true k nearest neighbors are provably among them.
        """
        return cls._knn_candidates(ensure_2d_float64(points), k, queries,
                                   cell_width=cell_width,
                                   include_self=include_self)

    @classmethod
    def _knn_candidates(cls, points: np.ndarray, k: int,
                        queries: Optional[np.ndarray] = None, *,
                        cell_width: Optional[float] = None,
                        include_self: bool = False) -> "Query":
        """:meth:`knn_candidates` over ``points`` already normalized once,
        as a session's dataset is: only the queries are validated."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if queries is not None:
            queries = ensure_2d_float64(queries, name="queries")
            if points.shape[1] != queries.shape[1]:
                raise ValueError("points and queries must have the same dimensionality")
        eps = check_eps(cell_width) if cell_width is not None else None
        return cls(kind=KNN_CANDIDATES, points=points, queries=queries,
                   eps=eps, k=int(k), unicomp=False, include_self=include_self)

    # ------------------------------------------------------------- properties
    @property
    def is_self_query(self) -> bool:
        """True when the probe side is the indexed dataset itself."""
        return self.queries is None

    @property
    def num_rows(self) -> int:
        """Number of CSR result rows (query-side cardinality)."""
        if self.queries is not None:
            return int(self.queries.shape[0])
        if self.points is not None:
            return int(self.points.shape[0])
        return self.source.n_points
