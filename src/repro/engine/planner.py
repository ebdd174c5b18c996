"""Query planning: index-side selection, batching and UNICOMP eligibility.

The :class:`QueryPlanner` turns a declarative :class:`~repro.engine.query.Query`
into an executable :class:`QueryPlan`:

1. **Index side selection** — self-joins index their one dataset; bipartite
   joins index the larger side (which maximizes pruning) and record whether
   the sides were swapped so the executor can mirror the emitted pairs back.
   Range queries and kNN candidates always index the data side, because the
   CSR result is keyed by query row.
2. **Batch decomposition** — when the backend supports cell subsets (and
   does not own its decomposition, as the sharded/multiprocess backends
   do), a self-join is batched only when it has to be.  By default
   (``min_batches=1``) that is when the result may not fit the host-sized
   result buffer.  Two exact bounds come first: a join of n points never
   has more than n² pairs, and it emits at most its distance calculations
   (twice them under UNICOMP, which emits each non-home match both ways),
   read from the index's cell costs
   (:func:`~repro.core.kernels.selfjoin_cell_costs`).  When either fits
   one buffer, no estimate is made and the plan is unbatched; otherwise
   the :class:`~repro.core.batching.BatchPlanner` sample-estimates the
   result and splits the non-empty cells only if one batch cannot hold
   it.  A ``batch_planner`` with ``min_batches > 1`` (the paper
   experiments pin 3, via :class:`~repro.core.selfjoin.SelfJoinConfig`)
   always plans at least that many batches, for the paper's
   transfer/compute overlap.  Probes (bipartite joins, range queries, kNN
   candidates) run unbatched; the backends that own their decomposition
   split probe rows themselves.
3. **UNICOMP eligibility** — the work-avoidance rule applies to self-joins
   on backends that implement it; it is silently disabled where it cannot
   apply (bipartite probes, brute force).
4. **Indexed dimensions** — where the engine indexes a whole dataset
   (:meth:`QueryPlanner.index_dataset`, behind every planned index build
   and :meth:`~repro.engine.session.EngineSession.index_for`), the grid may
   index only the ``k`` dimensions of widest spread
   (:func:`choose_index_dims`): fewer indexed dims walk 3^k instead of
   3^n neighbour cells per cell, at the price of more distance calcs.  A
   supplied index, and the ``simulated`` device model, keep theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from repro.core import linearize as lin
from repro.core.batching import BatchPlan, BatchPlanner
from repro.core.gridindex import GridIndex, _run_length_encode
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, selfjoin_cell_costs
from repro.data.store import dataset_extent, uniform_cell_width
from repro.engine import query as Q
from repro.engine.backends import ExecutionBackend, get_backend
from repro.utils.timing import Timer
from repro.utils.validation import check_points

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session → planner)
    from repro.data.store import DatasetSource
    from repro.engine.session import EngineSession


#: Cost of one walk row (a source cell paired with one neighbour offset:
#: broadcast, filtered by ``M_j`` and, if admitted, looked up in
#: ``B``) in units of one distance calc (gather, subtract, square-sum,
#: compare).  Calibrated once, not per host, against NumPy-tier UNICOMP
#: kernel times on uniform data (2-CPU x86 host): at 0.4 the model picks
#: the measured fastest k on 6-D 2k points at ε=0.25 (k=5), 6-D 20k at
#: ε=0.1 (k=4), 5-D 50k at ε=0.08 (k=4) and 3-D 100k at ε=0.025 (k=3).
#: Any value in [0.35, 0.45] picks the same; at 0.5 some 6-D 2k seeds flip
#: to the slower k=4.
WALK_ROW_COST = 0.4


def choose_index_dims(index: GridIndex) -> Tuple[int, ...]:
    """The dimensions a whole-dataset index should grid, from ``index``.

    ``index`` grids all ``n`` dimensions.  The dimensions are ranked by the
    cells they span (``num_cells``; ties go to the lower dimension), and
    the top ``k`` for ``k = n, n - 1, ...`` are scored from integer
    statistics of the non-empty cells projected onto them, with no walk
    and no kernel::

        cost(k) = WALK_ROW_COST * |G_k| * 3^k + D_k
        D_k     = 1/2 * sum |c_k|^2 * (1 + (3^k - 1) * nu_k)
        nu_k    = |G_k| / prod m_j * prod (3 m_j - 2) / (3 m_j)

    ``|G_k|`` counts the projected non-empty cells and ``|c_k|`` their
    populations; ``m_j = |M_j|``.  ``D_k`` estimates UNICOMP's distance
    calcs: each cell against itself and against its ``3^k - 1``
    neighbours, each non-empty with probability ``nu_k`` (the occupancy of
    the box the masks span, times the share of in-grid neighbours).  The
    scan stops at the first ``k`` that scores worse than the best so far
    and returns the best ``k`` dimensions, ascending; ``index.dims`` when
    that is all of them.
    """
    n = index.num_grid_dims
    counts = index.cell_counts
    if n < 2 or counts.shape[0] < 2:
        return index.dims
    spans = np.array([mask.shape[0] for mask in index.masks], dtype=np.float64)
    rank = np.argsort(-index.num_cells, kind="stable")

    def cost(top: np.ndarray) -> float:
        k = top.shape[0]
        if k == n:
            pops = counts
        else:
            ids = index.cell_coords[:, top] @ lin.compute_strides(
                index.num_cells[top])
            order = ids.argsort()
            _, starts, _ = _run_length_encode(ids.take(order))
            pops = np.add.reduceat(counts.take(order), starts)
        # Integer sums: a float ``@`` dispatches to BLAS, which took longer
        # than the whole scan on a 2-CPU host.
        cells, square_sum = pops.shape[0], int((pops * pops).sum())
        m = spans.take(top)
        occupancy = cells / np.prod(m) * np.prod((3 * m - 2) / (3 * m))
        distance_calcs = 0.5 * square_sum * (1 + (3 ** k - 1) * occupancy)
        return float(WALK_ROW_COST * cells * 3 ** k + distance_calcs)

    best, best_cost = rank, cost(rank)
    for k in range(n - 1, 0, -1):
        top = np.sort(rank[:k])
        score = cost(top)
        if score >= best_cost:
            break
        best, best_cost = top, score
    if best.shape[0] == n:
        return index.dims
    return tuple(int(index.dims[j]) for j in best)


@dataclass
class QueryPlan:
    """An executable physical plan for one query."""

    query: Q.Query
    backend: ExecutionBackend
    #: Global grid index over the indexed side — ``None`` for a *streamed*
    #: plan, where the backend joins ``source`` slice-at-a-time and a
    #: global index is never built (it would materialize the dataset).
    index: Optional[GridIndex]
    #: Probe-side points (``None`` for self-joins).
    probe_points: Optional[np.ndarray]
    #: True when a bipartite join indexed the left side; emitted pairs are
    #: (right row, left id) and are mirrored back at materialization.
    swapped: bool
    #: UNICOMP after eligibility resolution.
    unicomp: bool
    #: Effective search distance (kNN candidates: the initial probe radius).
    eps: float
    #: Cell-batch decomposition of a self-join (``None`` when unbatched).
    batch_plan: Optional[BatchPlan]
    max_candidate_pairs: int
    index_build_time: float = 0.0
    #: The owning :class:`~repro.engine.session.EngineSession` when the plan
    #: was produced through one; the executor resolves index rebuilds (the
    #: kNN radius-doubling loop) through its cache instead of reconstructing.
    session: Optional["EngineSession"] = None
    #: The dataset source of a streamed self-join (``index`` is ``None``);
    #: the executor hands it to ``backend.run_selfjoin_streamed``.
    source: Optional["DatasetSource"] = None

    @property
    def num_rows(self) -> int:
        """CSR rows of the result (query-side cardinality, never swapped)."""
        return self.query.num_rows


def _result_bound_fits(index: GridIndex, unicomp: bool,
                       planner: BatchPlanner) -> bool:
    """Whether an exact bound on a self-join's result fits one buffer.

    A join of n points has at most n² pairs, and it emits at most its
    distance calculations, twice them under UNICOMP.  The second bound
    reads the index's cell costs, walking its adjacency on a cold index
    (the kernel then reads the walk back), so it is taken only when n²
    does not fit; the buffer is sized after, counting what the walk kept.
    """
    if index.num_points ** 2 <= planner.buffer_capacity_pairs(index):
        return True
    bound = int(selfjoin_cell_costs(index, unicomp).sum()) * (2 if unicomp else 1)
    return bound <= planner.buffer_capacity_pairs(index)


class QueryPlanner:
    """Plans queries for a chosen backend.

    ``batch_planner`` sizes and splits batched self-joins; the default
    batches only when the result may not fit host memory
    (``BatchPlanner(min_batches=1)``).
    """

    def __init__(self, backend: Union[str, ExecutionBackend] = "vectorized", *,
                 max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
                 validate_index: bool = False,
                 max_dims: Optional[int] = None,
                 batch_planner: Optional[BatchPlanner] = None) -> None:
        # A constructed backend instance is accepted directly so sessions
        # (and tests) can attach private, stateful instances that bypass the
        # shared registry cache.
        self.backend = backend if isinstance(backend, ExecutionBackend) \
            else get_backend(backend)
        self.max_candidate_pairs = int(max_candidate_pairs)
        self.validate_index = bool(validate_index)
        self.max_dims = max_dims
        self.batch_planner = batch_planner or BatchPlanner(min_batches=1)

    # ---------------------------------------------------------------- planning
    def plan(self, query: Q.Query, index: Optional[GridIndex] = None,
             session: Optional["EngineSession"] = None) -> QueryPlan:
        """Produce a :class:`QueryPlan`; builds the grid index unless supplied.

        When a ``session`` is given, the indexed side must be the session's
        dataset and the grid index is resolved through the session's per-ε
        cache instead of being rebuilt (cache hits plan with a zero
        ``index_build_time``); the session is recorded on the plan so the
        executor and attached backends reuse its state too.
        """
        if session is not None:
            session.require_points(query)
        if query.kind == Q.SELF_JOIN:
            return self._plan_self_join(query, index, session)
        if query.kind in (Q.BIPARTITE_JOIN, Q.RANGE_QUERY):
            return self._plan_probe(query, index, session)
        if query.kind == Q.KNN_CANDIDATES:
            return self._plan_knn(query, index, session)
        raise ValueError(f"unplannable query kind {query.kind!r}")

    def index_dataset(self, points: np.ndarray, eps: float) -> GridIndex:
        """The grid index over a whole dataset at cell width ``eps``.

        Indexes the dimensions :func:`choose_index_dims` picks, unless the
        backend models the paper's device (``simulated``), whose grid
        always spans all dimensions.  Every choice gives the same result
        pairs.  One index is built, over all dimensions, and the chooser
        scores it; a smaller pick is derived from it
        (:meth:`GridIndex.project`), equal array by array to a build over
        the picked dims but without recomputing bounds, cell coordinates
        or masks.
        """
        index = GridIndex.build(points, eps)
        if not self.backend.models_device:
            index = index.project(choose_index_dims(index))
        if self.validate_index:
            index.validate()
        return index

    def _build_index(self, points: np.ndarray, eps: float) -> tuple[GridIndex, float]:
        with Timer() as timer:
            index = self.index_dataset(points, eps)
        return index, timer.elapsed

    @staticmethod
    def _session_index(session: "EngineSession",
                       eps: float) -> tuple[GridIndex, float]:
        """Resolve an index through the session cache (≈0 time on a hit)."""
        with Timer() as timer:
            index = session.index_for(eps)
        return index, timer.elapsed

    def _resolve_unicomp(self, query: Q.Query) -> bool:
        if not query.unicomp or query.kind != Q.SELF_JOIN:
            return False
        return self.backend.supports_unicomp

    def _plan_self_join(self, query: Q.Query, index: Optional[GridIndex],
                        session: Optional["EngineSession"]) -> QueryPlan:
        if query.source is not None and self.max_dims is not None \
                and query.source.n_dims > self.max_dims:
            # Mirror check_points(max_dims=...) for source-backed joins,
            # which skip the array-validation path.
            raise ValueError(
                f"points have {query.source.n_dims} dimensions; this "
                f"operation supports at most {self.max_dims} (the paper "
                "targets low dimensionality)")
        if query.source is not None and index is None \
                and self.backend.supports_streaming \
                and query.source.supports_streaming:
            # Streamed plan: no global index, no materialization — the
            # backend reads the source shard-by-shard (slice + ε-halo) and
            # builds shard-local indexes itself.
            return QueryPlan(query=query, backend=self.backend, index=None,
                             probe_points=None, swapped=False,
                             unicomp=self._resolve_unicomp(query),
                             eps=float(query.eps), batch_plan=None,
                             max_candidate_pairs=self.max_candidate_pairs,
                             index_build_time=0.0, session=session,
                             source=query.source)
        if query.source is not None:
            # Non-streaming backend over a source: materialize once (the
            # session's lazy ``points`` keeps one shared materialization).
            points = session.points if session is not None \
                else check_points(query.source.as_array(),
                                  max_dims=self.max_dims)
        else:
            points = check_points(query.points, max_dims=self.max_dims)
        build_time = 0.0
        if index is None:
            if session is not None:
                index, build_time = self._session_index(session, query.eps)
            else:
                index, build_time = self._build_index(points, query.eps)
        unicomp = self._resolve_unicomp(query)

        batch_plan = None
        if query.batching and self.backend.supports_cell_subset \
                and not self.backend.owns_decomposition:
            planner = self.batch_planner
            # When an exact bound on the result fits one buffer, only a
            # min_batches > 1 request splits it.
            if planner.min_batches > 1 \
                    or not _result_bound_fits(index, unicomp, planner):
                batch_plan = planner.plan(index, partial(
                    self.backend.run_selfjoin, index, query.eps,
                    unicomp=unicomp,
                    max_candidate_pairs=self.max_candidate_pairs))
                if batch_plan.n_batches == 1:
                    batch_plan = None

        return QueryPlan(query=query, backend=self.backend, index=index,
                         probe_points=None, swapped=False, unicomp=unicomp,
                         eps=float(query.eps), batch_plan=batch_plan,
                         max_candidate_pairs=self.max_candidate_pairs,
                         index_build_time=build_time, session=session,
                         source=query.source)

    def _plan_probe(self, query: Q.Query, index: Optional[GridIndex],
                    session: Optional["EngineSession"]) -> QueryPlan:
        left = query.queries
        right = query.points
        swapped = False
        if index is not None:
            if index.num_points != right.shape[0] or index.num_dims != right.shape[1]:
                raise ValueError("the supplied index does not match the right-side dataset")
            build_time = 0.0
        elif session is not None:
            # The session dataset is the indexed side by construction, so the
            # larger-side swap heuristic does not apply — swapping would
            # defeat the cached index (and any attached backend state).
            index, build_time = self._session_index(session, query.eps)
        else:
            # Index-side selection: index the larger side of a bipartite join
            # (more pruning per probe); range queries stay data-indexed.
            if query.kind == Q.BIPARTITE_JOIN and left.shape[0] > right.shape[0]:
                left, right = right, left
                swapped = True
            index, build_time = self._build_index(right, query.eps)

        return QueryPlan(query=query, backend=self.backend, index=index,
                         probe_points=left, swapped=swapped, unicomp=False,
                         eps=float(query.eps), batch_plan=None,
                         max_candidate_pairs=self.max_candidate_pairs,
                         index_build_time=build_time, session=session)

    def _plan_knn(self, query: Q.Query, index: Optional[GridIndex],
                  session: Optional["EngineSession"]) -> QueryPlan:
        points = query.points
        build_time = 0.0
        if index is None:
            eps = query.eps
            if eps is None:
                # A radius holding ~k+1 points under a uniform density; a
                # session computes its dataset's extent once.
                extent = session.extent if session is not None \
                    else dataset_extent(points)
                eps = uniform_cell_width(extent, points.shape[0], query.k + 1)
            if session is not None:
                index, build_time = self._session_index(session, eps)
            else:
                index, build_time = self._build_index(points, eps)
        return QueryPlan(query=query, backend=self.backend, index=index,
                         probe_points=query.queries, swapped=False, unicomp=False,
                         eps=float(index.eps), batch_plan=None,
                         max_candidate_pairs=self.max_candidate_pairs,
                         index_build_time=build_time, session=session)
