"""Session-based engine lifecycle: one dataset, many queries.

The paper's pipeline amortizes one-time costs — grid-index construction,
shipping the dataset to the device — across many kernel invocations.  An
:class:`EngineSession` is that amortization made explicit at the API level:
it owns one dataset for its whole lifetime, caches the
:class:`~repro.core.gridindex.GridIndex` per ε (so the kNN radius-doubling
loop and repeated experiment trials stop rebuilding it), and drives the
backend lifecycle hooks ``attach``/``detach`` through which stateful
backends keep per-dataset resources alive between queries (the
``multiprocess`` backend keeps a persistent worker pool and a
shared-memory view of the points array, ``distributed`` the dataset
resident on its TCP workers; see
:class:`repro.parallel.executor.ShardExecutionBackend`).

Lifecycle::

    open ──► attach ──► query* ──► detach
    EngineSession(points, backend="multiprocess(4)")
        │  __enter__/open():  backend.attach(session)
        │       pool + shared-memory dataset created once
        ├─ session.self_join(eps) ─┐
        ├─ session.range_query(..) ├─ index cache: ε → GridIndex
        ├─ session.knn_candidates()┘  (hits skip the rebuild)
        └  __exit__/close():  backend.detach(session)
               last session over the dataset: pool shut down,
               shared memory unlinked

Use a session whenever the same dataset is queried more than once (sweeps
over ε, kNN, DBSCAN parameter searches, repeated trials); use the one-shot
entry points (:func:`repro.engine.run_query`, :func:`repro.core.selfjoin.
selfjoin`) for single queries — several of them are themselves thin
``with EngineSession(...)`` wrappers now, so both paths produce
bit-identical results.

The session owns its dataset as a :class:`~repro.data.store.DatasetSource`
(raw arrays auto-wrap; an on-disk
:class:`~repro.data.store.SpatialStore` stays on disk — self-joins on a
streaming backend like ``sharded`` read it shard-at-a-time and the lazy
:attr:`EngineSession.points` materialization is never touched).

The session's dataset is normalized once (:func:`~repro.utils.validation.
check_points`) and must not be mutated while the session is open: cached
indexes — and, for attached backends, worker-side copies or shared-memory
views — would go stale silently.  Mutating it *between* sessions is safe:
a pool lives only while some session holds its dataset, so the next
session ships the array as it is then.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.gridindex import GridIndex
from repro.data.store import (  # noqa: F401  (re-exported for compatibility)
    ArraySource,
    DatasetIdentity,
    DatasetSource,
    as_dataset_source,
    dataset_extent,
    dataset_identity,
)
from repro.core import nativekernels
from repro.engine.backends import ExecutionBackend
from repro.engine.executor import EngineResult, execute
from repro.engine.planner import QueryPlanner
from repro.engine.query import Query
from repro.utils.counters import Counters
from repro.utils.validation import check_eps, check_points

#: Monotonic token source distinguishing session instances (two sessions
#: over the same array share a dataset identity but not a token).
_SESSION_TOKENS = itertools.count()


@dataclass
class SessionStats(Counters):
    """Counters exposed for tests, reports and the service catalog."""

    index_hits: int = 0
    index_misses: int = 0
    queries_run: int = 0


class EngineSession:
    """Owns one dataset for many queries; see the module docstring.

    Parameters
    ----------
    points:
        The dataset — a raw array (normalized once) or a
        :class:`~repro.data.store.DatasetSource` (an on-disk
        :class:`~repro.data.store.SpatialStore` stays on disk: self-joins
        on a streaming backend never materialize it, and other paths
        materialize lazily on first use).  The session dataset is the
        *indexed* side of every query it runs.
    backend:
        Backend name (``"multiprocess(4)"`` style parameterization works) or
        a constructed :class:`~repro.engine.backends.ExecutionBackend`
        instance; defaults to ``"vectorized"``.  Mutually exclusive with
        ``planner`` (which fixes its own backend).
    planner:
        Optional pre-configured :class:`~repro.engine.planner.QueryPlanner`;
        mutually exclusive with ``backend`` and ``planner_kwargs``.
    max_cached_indexes:
        LRU bound on the per-ε index cache (the kNN radius-doubling loop
        creates one index per doubling).
    """

    def __init__(self, points: Union[np.ndarray, DatasetSource],
                 backend: Union[str, ExecutionBackend, None] = None, *,
                 planner: Optional[QueryPlanner] = None,
                 max_cached_indexes: int = 8,
                 **planner_kwargs) -> None:
        if planner is not None and (backend is not None or planner_kwargs):
            raise ValueError("pass either a planner instance or a backend/"
                             "planner kwargs, not both")
        self.source = as_dataset_source(points)
        self._points: Optional[np.ndarray] = None
        self._extent: Optional[np.ndarray] = None
        self.planner = planner or QueryPlanner(
            backend=backend if backend is not None else "vectorized",
            **planner_kwargs)
        self.max_cached_indexes = int(max_cached_indexes)
        self.identity = self.source.identity()
        self.token = next(_SESSION_TOKENS)
        self.stats = SessionStats()
        self._indexes = OrderedDict()
        self._open = False
        # Guards the index cache, lazy materialization and lifecycle state:
        # the query service runs one session from several worker threads at
        # once.  Reentrant: open() nests in run(), index_for() reads points.
        self._lock = threading.RLock()

    @property
    def points(self) -> np.ndarray:
        """The session dataset as an array, materialized lazily.

        For an :class:`~repro.data.store.ArraySource` this is the normalized
        input array (free).  For an on-disk source the first access
        materializes the dataset in original row order and validates it
        (:func:`~repro.utils.validation.check_points`) once — streamed
        self-joins never touch this property, which is what keeps them
        out-of-core.  The session's queries rely on this one check and do
        not re-scan the dataset.
        """
        with self._lock:
            if self._points is None:
                points = self.source.as_array()
                self._points = points if isinstance(self.source, ArraySource) \
                    else check_points(points)
            return self._points

    @property
    def extent(self) -> np.ndarray:
        """The dataset's per-dimension extent (:func:`~repro.data.store.
        dataset_extent`), computed on first use: the planner sizes every kNN
        query's first radius from it."""
        with self._lock:
            if self._extent is None:
                self._extent = dataset_extent(self.points)
            return self._extent

    @property
    def streams_self_joins(self) -> bool:
        """Whether this session's self-joins stream from disk.

        True exactly when the source can serve bounded slices (an on-disk
        :class:`~repro.data.store.SpatialStore`) *and* the backend
        implements the streamed operator (``sharded``).
        """
        return bool(self.backend.supports_streaming
                    and self.source.supports_streaming)

    # -------------------------------------------------------------- lifecycle
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend the session attaches to."""
        return self.planner.backend

    @property
    def is_open(self) -> bool:
        """Whether the session is currently attached to its backend."""
        return self._open

    def open(self) -> "EngineSession":
        """Attach the backend (idempotent); returns ``self`` for chaining.

        When the backend resolves to the numba kernel tier, the JIT cache is
        warmed here — once, at attach time — so compilation never lands
        inside the first timed query of the session.
        """
        with self._lock:
            if not self._open:
                self.backend.attach(self)
                if self.backend.kernel_tier() == "numba":
                    nativekernels.warm_jit_cache()
                self._open = True
        return self

    def close(self) -> None:
        """Detach the backend and drop the cached indexes (idempotent).

        A closed session can be reopened; its caches start cold again, and
        so does a backend pool or worker attachment that no other open
        session over the same dataset holds: the last detach releases it.
        """
        with self._lock:
            if self._open:
                self._open = False
                self.backend.detach(self)
            self._indexes.clear()

    def __enter__(self) -> "EngineSession":
        return self.open()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------ index cache
    def index_for(self, eps: float) -> GridIndex:
        """The grid index over the session dataset for cell width ``eps``.

        Cached per ε with LRU eviction; the executor's kNN radius-doubling
        loop resolves its rebuilt indexes through here, so repeated kNN
        queries hit the cache on every doubling round.  The planner builds
        it (:meth:`~repro.engine.planner.QueryPlanner.index_dataset`), so
        its indexed dims are a function of (dataset, ε) and ε alone keys
        the cache.
        """
        key = check_eps(eps)
        with self._lock:
            index = self._indexes.get(key)
            if index is not None:
                self._indexes.move_to_end(key)
                self.stats.add(index_hits=1)
                return index
            index = self.planner.index_dataset(self.points, key)
            self.stats.add(index_misses=1)
            self._indexes[key] = index
            while len(self._indexes) > self.max_cached_indexes:
                self._indexes.popitem(last=False)
            return index

    @property
    def cached_eps(self) -> Tuple[float, ...]:
        """ε values currently held in the index cache (LRU order)."""
        with self._lock:
            return tuple(self._indexes)

    def require_points(self, query: Query) -> None:
        """Reject queries whose indexed side is not the session dataset.

        Session query constructors guarantee this; callers building a
        :class:`Query` by hand must pass ``session.points`` (the normalized
        array) or ``session.source`` as the query's indexed side.
        """
        if query.source is not None:
            if query.source is self.source:
                return
        elif query.points is self.points:
            return
        raise ValueError(
            "the query's indexed side is not this session's dataset; "
            "build the query from session.points (the session-normalized "
            "array) / session.source or use the session's query methods")

    def resolve_points(self, points: Optional[np.ndarray]) -> np.ndarray:
        """Resolve a consumer's ``points`` argument to the session dataset.

        The shared contract of session-aware entry points (``knn_search``,
        ``dbscan``): a caller may pass ``None`` or the session dataset
        itself; anything else is rejected rather than silently substituted.
        """
        if points is not None and points is not self.points:
            raise ValueError("with a session, points must be session.points "
                             "(the session-normalized dataset) or None")
        return self.points

    # --------------------------------------------------------------- querying
    def run(self, query: Query, index: Optional[GridIndex] = None) -> EngineResult:
        """Plan ``query`` against this session and execute it.

        The session auto-opens on first use; the planner resolves the grid
        index through :meth:`index_for` instead of rebuilding it.
        """
        self.open()
        self.stats.add(queries_run=1)
        return execute(self.planner.plan(query, index=index, session=self))

    def self_join(self, eps: float, *, unicomp: bool = True,
                  include_self: bool = True, sort_result: bool = False,
                  batching: bool = True) -> EngineResult:
        """Self-join of the session dataset within ``eps``.

        On a streaming-capable backend over an on-disk source this executes
        shard-at-a-time from disk (see :attr:`streams_self_joins`) and never
        materializes the dataset; results are identical either way.
        """
        indexed = self.source if self.streams_self_joins else self.points
        return self.run(Query.self_join(
            indexed, eps, unicomp=unicomp, include_self=include_self,
            sort_result=sort_result, batching=batching))

    def bipartite_join(self, left: np.ndarray, eps: float) -> EngineResult:
        """Join an external ``left`` set against the session dataset.

        The session dataset is always the indexed (right) side — the
        planner's larger-side swap heuristic does not apply, which is what
        keeps the cached index reusable.
        """
        return self.run(Query.bipartite_join(left, self.points, eps))

    def range_query(self, queries: np.ndarray, eps: float) -> EngineResult:
        """Per-query ε-neighborhoods over the session dataset.

        The dataset was validated once (at creation for an array, on
        materialization for an on-disk store, :attr:`points`); only
        ``queries`` is checked here.
        """
        return self.run(Query._range_query(self.points, queries, eps))

    def knn_candidates(self, k: int, queries: Optional[np.ndarray] = None, *,
                       cell_width: Optional[float] = None,
                       include_self: bool = False) -> EngineResult:
        """kNN candidate generation over the session dataset.

        Every radius-doubling round resolves its index through the session
        cache, so repeated calls (and the rounds within one call) reuse the
        per-ε indexes.  As for :meth:`range_query`, only ``queries`` is
        validated.
        """
        return self.run(Query._knn_candidates(
            self.points, k, queries=queries, cell_width=cell_width,
            include_self=include_self))
