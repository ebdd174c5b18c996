"""Sink-based plan execution.

:func:`execute` runs a :class:`~repro.engine.planner.QueryPlan` on its
backend, and :func:`run_query` plans and executes a query in one call.
Every operator — self-join (batched or not) or probe — emits pair
fragments into :class:`~repro.core.result.PairFragments` sinks; self-join
batches use per-batch sinks (so a batch that overflows the planned result
buffer can be discarded and split, exactly like a re-issued device kernel)
that are merged by reference into one master sink.  Nothing is concatenated, sorted or
re-keyed until the caller materializes a view from the returned
:class:`EngineResult`:

``result_set``
    The legacy flat pair list (one concatenation, no sort unless the query
    asked for ``sort_result``).
``neighbor_table``
    The CSR neighbor table, built natively from the compact fragments (one
    fused-key sort that also makes UNICOMP's reverse pairs → bincount →
    prefix-sum offsets); this is the hot path for DBSCAN / kNN and never
    materializes the intermediate pair list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.batching import BatchExecutionReport, run_adaptive_batches
from repro.core.distance import squared_distances
from repro.core.gridindex import GridIndex
from repro.core.kernels import KernelStats
from repro.core.result import NeighborTable, PairFragments, ResultSet
from repro.engine import query as Q
from repro.engine.planner import QueryPlan, QueryPlanner
from repro.utils.cancellation import check_cancelled
from repro.utils.timing import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session → executor)
    from repro.engine.session import EngineSession

#: Rounds of radius doubling before the kNN candidate search falls back to
#: an exhaustive scan for the still-unsatisfied queries.
MAX_KNN_ROUNDS = 64


@dataclass
class EngineResult:
    """Outcome of an engine execution, materialized lazily."""

    plan: QueryPlan
    stats: KernelStats
    fragments: PairFragments
    batch_report: Optional[BatchExecutionReport] = None
    kernel_time: float = 0.0
    _pairs: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False)
    _result_set: Optional[ResultSet] = field(default=None, repr=False)
    _table: Optional[NeighborTable] = field(default=None, repr=False)

    # ------------------------------------------------------------------ views
    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(keys, values)`` pair arrays in emission order.

        Swapped bipartite plans are mirrored back here, and self-join
        self-pairs are dropped when the query excluded them, so every view
        below sees the same cleaned pair stream.
        """
        if self._pairs is None:
            keys, values = self.fragments.concatenated()
            if self.plan.swapped:
                keys, values = values, keys
            if self.plan.query.kind == Q.SELF_JOIN \
                    and not self.plan.query.include_self and keys.shape[0]:
                keep = keys != values
                keys, values = keys[keep], values[keep]
            self._pairs = (keys, values)
        return self._pairs

    @property
    def num_pairs(self) -> int:
        """Result pairs after self-pair filtering."""
        return int(self.pairs()[0].shape[0])

    @property
    def result_set(self) -> ResultSet:
        """Legacy pair-list view (sorted only when the query asked for it)."""
        if self._result_set is None:
            keys, values = self.pairs()
            result = ResultSet(keys=keys, values=values,
                               num_points=self.plan.num_rows)
            if self.plan.query.sort_result:
                result = result.sort()
            self._result_set = result
        return self._result_set

    @property
    def neighbor_table(self) -> NeighborTable:
        """CSR view, built natively from the compact fragments (rows sorted
        by id); the flat pair stream of :meth:`pairs` is never built."""
        if self._table is None:
            keys, values, twice = self.fragments.columns()
            if self.plan.swapped:
                keys, values = values, keys
            query = self.plan.query
            self._table = NeighborTable.from_pairs(
                keys, values, self.plan.num_rows, twice,
                include_self=query.kind != Q.SELF_JOIN or query.include_self)
        return self._table


def execute(plan: QueryPlan) -> EngineResult:
    """Run a plan on its backend and return the (lazy) result."""
    kind = plan.query.kind
    check_cancelled()
    with Timer() as timer:
        if kind == Q.SELF_JOIN:
            result = _execute_self_join(plan)
        elif kind in (Q.BIPARTITE_JOIN, Q.RANGE_QUERY):
            result = _execute_probe(plan)
        elif kind == Q.KNN_CANDIDATES:
            result = _execute_knn_candidates(plan)
        else:
            raise ValueError(f"unexecutable query kind {kind!r}")
    result.kernel_time = timer.elapsed
    return result


def run_query(query: Q.Query, index: Optional[GridIndex] = None,
              planner: Optional[QueryPlanner] = None,
              session: Optional["EngineSession"] = None,
              **planner_kwargs) -> EngineResult:
    """Plan and execute ``query`` in one call.

    Parameters
    ----------
    query:
        The declarative query description.
    index:
        Optional pre-built grid index over the indexed side.
    planner:
        Optional pre-configured :class:`QueryPlanner`; mutually exclusive
        with ``planner_kwargs`` (e.g. ``backend="bruteforce"``), which are
        forwarded to a fresh planner.
    session:
        Optional open :class:`EngineSession` owning the query's indexed
        side; the query then runs with the session's planner, cached
        indexes and attached backend state.  Mutually exclusive with
        ``planner`` and ``planner_kwargs``.
    """
    if session is not None:
        if planner is not None or planner_kwargs:
            raise ValueError("pass either a session or planner configuration, "
                             "not both")
        return session.run(query, index=index)
    if planner is not None and planner_kwargs:
        raise ValueError("pass either a planner instance or planner kwargs, not both")
    planner = planner or QueryPlanner(**planner_kwargs)
    return execute(planner.plan(query, index=index))


# --------------------------------------------------------------------------
# operators
# --------------------------------------------------------------------------
def _execute_self_join(plan: QueryPlan) -> EngineResult:
    if plan.index is None:
        # Streamed plan: the backend reads the on-disk source shard-by-shard
        # (slice + ε-halo), indexes each slice locally and emits global ids —
        # nothing dataset-sized is ever resident here.
        master = PairFragments(plan.num_rows)
        stats = plan.backend.run_selfjoin_streamed(
            plan.source, plan.eps, master, unicomp=plan.unicomp,
            max_candidate_pairs=plan.max_candidate_pairs)
        return EngineResult(plan=plan, stats=stats, fragments=master)

    index = plan.index
    master = PairFragments(index.num_points)
    if plan.batch_plan is None:
        stats = plan.backend.run_selfjoin(
            index, plan.eps, None, master, unicomp=plan.unicomp,
            max_candidate_pairs=plan.max_candidate_pairs)
        return EngineResult(plan=plan, stats=stats, fragments=master)

    def run_batch(cells: np.ndarray):
        sink = PairFragments(index.num_points)
        batch_stats = plan.backend.run_selfjoin(
            index, plan.eps, cells, sink, unicomp=plan.unicomp,
            max_candidate_pairs=plan.max_candidate_pairs)
        return sink.num_pairs, (sink, batch_stats)

    # Adaptive overflow splitting over the planned batches; each per-batch
    # sink and its counters are absorbed into the master sink.
    report = BatchExecutionReport(plan=plan.batch_plan)
    payloads, report.batch_pairs, report.batch_times, report.splits_performed = \
        run_adaptive_batches(plan.batch_plan.cell_batches, run_batch,
                             plan.batch_plan.buffer_capacity_pairs)
    stats = KernelStats()
    for sink, batch_stats in payloads:
        master.extend(sink)
        stats.merge(batch_stats)
    return EngineResult(plan=plan, stats=stats, fragments=master,
                        batch_report=report)


def _execute_probe(plan: QueryPlan) -> EngineResult:
    master = PairFragments(plan.probe_points.shape[0])
    stats = plan.backend.run_probe(
        plan.probe_points, plan.index, plan.eps, master,
        max_candidate_pairs=plan.max_candidate_pairs)
    # For a swapped bipartite join the sink rows are right-side rows; the
    # result views re-key on the left side, which has plan.num_rows rows.
    if plan.swapped:
        master.num_rows = plan.num_rows
    return EngineResult(plan=plan, stats=stats, fragments=master)


#: The float64 machine epsilon, ``2u``.
_FLOAT64_EPS = float(np.finfo(np.float64).eps)


def _knn_limit(eps2: float, n_dims: int) -> float:
    """The squared distance at or below which a kNN candidate provably
    outranks every point the probe at ``eps2`` left out:
    ``eps2 * (1 - m)`` with ``m = (4n + 8) u``, ``u`` the unit roundoff of
    float64 (see :func:`_execute_knn_candidates`)."""
    return eps2 * (1.0 - (2 * n_dims + 4) * _FLOAT64_EPS)


def _execute_knn_candidates(plan: QueryPlan) -> EngineResult:
    """Adaptive-radius candidate generation (exactness argument below).

    If a query has at least k candidates (excluding the query point itself
    when required) within radius r, its k-th nearest neighbor lies within r
    — so *all* its true k nearest neighbors are among the points within r,
    which is exactly the candidate row emitted.  Queries that come up short
    are re-probed with a doubled radius against a rebuilt index.

    That holds for exact distances; the probe's filter and the caller's
    ranking (:func:`repro.apps.knn.knn_search` ranks by
    ``sqrt(einsum(...))``) each round theirs, and need not round alike.
    So a row is finished only when at least k of its candidates have a
    squared distance at most :func:`_knn_limit` of the round's ``eps2``.
    That distance is :func:`~repro.core.distance.squared_distances`, the
    filter's own sum (same differences, same order, on either kernel
    tier), so only two roundings differ: the filter's and the ranking's.
    Each is within ``1 ± γ_n`` of the exact sum of the rounded differences'
    squares (``γ_n ≈ n u``, ``u`` the unit roundoff).  Such a candidate's
    ranked squared distance is then at most about ``eps2 (1 - m + 2 γ_n +
    u)`` (the last ``u`` rounds the limit), and a point the probe left out
    (its filtered sum above ``eps2``) ranks at about ``eps2 (1 - 2 γ_n)`` or
    more.  With ``m = (4n + 8) u`` their ratio stays below ``1 - 4u``,
    which the rounded ``sqrt`` cannot close: k candidates rank strictly
    ahead of everything left out.  A row with k candidates but fewer below
    the limit (its k-th neighbour within the margin of the radius) is not
    finished and is re-probed at the doubled radius, where that neighbour
    lies far inside the limit; only rows still unfinished after the last
    round are answered against all points.
    """
    query = plan.query
    data = plan.index.points
    queries = data if query.queries is None else query.queries
    n_q = queries.shape[0]
    n = data.shape[0]
    exclude_self = query.is_self_query and not query.include_self
    required = min(query.k, n - 1 if exclude_self else n)

    master = PairFragments(n_q)
    stats = KernelStats()
    index = plan.index
    radius = plan.eps
    remaining = np.arange(n_q, dtype=np.int64)

    for _ in range(MAX_KNN_ROUNDS):
        # Cancellation checkpoint: each doubling round re-probes (and may
        # rebuild an index), so a deadline stops the search between rounds.
        check_cancelled()
        round_sink = PairFragments(n_q)
        stats.merge(plan.backend.run_probe(
            queries, index, radius, round_sink, rows=remaining,
            max_candidate_pairs=plan.max_candidate_pairs))
        keys, values = round_sink.concatenated()
        if exclude_self and keys.shape[0]:
            keep = keys != values
            keys, values = keys[keep], values[keep]
        near = squared_distances(queries.take(keys, axis=0),
                                 data.take(values, axis=0)) \
            <= _knn_limit(radius * radius, data.shape[1])
        finished = np.bincount(keys[near], minlength=n_q)[remaining] \
            >= required
        if finished.any():
            selected = np.zeros(n_q, dtype=bool)
            selected[remaining[finished]] = True
            take = selected[keys]
            master.emit(keys[take], values[take])
        remaining = remaining[~finished]
        if remaining.shape[0] == 0:
            break
        radius *= 2.0
        # Session-planned queries resolve the doubled-radius index through
        # the session's per-ε cache, so repeated kNN calls (and their
        # doubling rounds) stop paying index construction each time.  A
        # one-shot query rebuilds over the dims its plan's index grids.
        if plan.session is not None:
            index = plan.session.index_for(radius)
        else:
            index = GridIndex.build(data, radius, dims=plan.index.dims)

    if remaining.shape[0]:
        # Degenerate grids / extreme outliers: hand every data point to the
        # queries still unsatisfied (the top-k selection downstream stays
        # exact).
        keys = np.repeat(remaining, n)
        values = np.tile(np.arange(n, dtype=np.int64), remaining.shape[0])
        if exclude_self:
            keep = keys != values
            keys, values = keys[keep], values[keep]
        master.emit(keys, values)
        stats.distance_calcs += int(remaining.shape[0]) * n

    stats.result_pairs = master.num_pairs
    return EngineResult(plan=plan, stats=stats, fragments=master)
