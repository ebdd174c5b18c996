"""Epsilon Grid Order (EGO) join — the algorithmic core of Super-EGO.

The EGO family (Böhm et al. 2001; Kalashnikov 2013) overlays a
non-materialized ε-grid, sorts the points lexicographically by their cell
coordinates (*ego-sort*) and joins two sorted sequences recursively: a pair
of subsequences can be pruned when their bounding cell intervals are more
than one cell apart in some dimension, otherwise the sequences are split and
the sub-pairs joined, down to a threshold where a vectorized all-pairs
*simple join* is performed.

The driver that adds data normalization, dimension reordering and the thread
pool (the "Super" parts) lives in :mod:`repro.baselines.superego`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.distance import squared_distances
from repro.core.result import ResultSet
from repro.utils.counters import accumulate, snapshot
from repro.utils.validation import check_eps, ensure_2d_float64

#: When both subsequences are at most this long, perform the simple join.
DEFAULT_SIMPLE_JOIN_THRESHOLD = 48


@dataclass
class EGOStats:
    """Work counters of an EGO join."""

    simple_joins: int = 0
    prunes: int = 0
    recursions: int = 0
    distance_calcs: int = 0
    result_pairs: int = 0

    def merge(self, other: "EGOStats") -> "EGOStats":
        """Accumulate another task's counters."""
        accumulate(self, snapshot(other))
        return self


@dataclass
class EGOJoinOutput:
    """Result pairs plus counters of an EGO join."""

    result: ResultSet
    stats: EGOStats


def ego_sort(points: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """EGO-sort: order points lexicographically by their ε-cell coordinates.

    Returns ``(order, cells)`` where ``order`` is the permutation of point ids
    and ``cells`` the ``(n_points, n_dims)`` cell coordinates in sorted order.
    """
    pts = ensure_2d_float64(points)
    eps = check_eps(eps)
    cells = np.floor((pts - pts.min(axis=0)) / eps).astype(np.int64)
    keys = tuple(cells[:, j] for j in range(cells.shape[1] - 1, -1, -1))
    order = np.lexsort(keys)
    return order.astype(np.int64), cells[order]


@dataclass
class _EGOContext:
    """Shared state of one EGO join execution."""

    points: np.ndarray          # ego-sorted coordinates
    ids: np.ndarray             # original point ids in ego order
    cells: np.ndarray           # ego-sorted cell coordinates
    eps2: float
    threshold: int
    stats: EGOStats = field(default_factory=EGOStats)
    key_parts: List[np.ndarray] = field(default_factory=list)
    val_parts: List[np.ndarray] = field(default_factory=list)


def ego_join(points: np.ndarray, eps: float,
             threshold: int = DEFAULT_SIMPLE_JOIN_THRESHOLD,
             parallel_tasks: Optional[List[Tuple[int, int, int, int, bool]]] = None,
             ) -> EGOJoinOutput:
    """Sequential EGO self-join of ``points`` with distance ``eps``.

    Parameters
    ----------
    points:
        ``(n_points, n_dims)`` coordinates.
    eps:
        Search distance.
    threshold:
        Simple-join threshold (both subsequences at most this long).
    parallel_tasks:
        Internal hook used by :mod:`repro.baselines.superego`: when given, the
        recursion only *expands* down to a task frontier which is appended to
        this list instead of being executed.

    Returns
    -------
    EGOJoinOutput
        All ordered pairs within ε (including self-pairs), matching the
        GPU-SJ result convention.
    """
    pts = ensure_2d_float64(points)
    eps = check_eps(eps)
    order, cells = ego_sort(pts, eps)
    ctx = _EGOContext(points=pts[order], ids=order, cells=cells,
                      eps2=eps * eps, threshold=int(threshold))
    n = pts.shape[0]
    if parallel_tasks is not None:
        _expand_tasks(ctx, 0, n, 0, n, True, parallel_tasks)
        return EGOJoinOutput(result=ResultSet.empty(n), stats=ctx.stats)
    _join_recursive(ctx, 0, n, 0, n, same=True, mirror=False)
    result = _collect(ctx, n)
    ctx.stats.result_pairs = result.num_pairs
    return EGOJoinOutput(result=result, stats=ctx.stats)


# --------------------------------------------------------------------------
# recursion
# --------------------------------------------------------------------------
def _cell_bounds(ctx: _EGOContext, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-dimension min/max cell coordinates of the subsequence [lo, hi)."""
    sub = ctx.cells[lo:hi]
    return sub.min(axis=0), sub.max(axis=0)


def _can_prune(ctx: _EGOContext, a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> bool:
    """EGO prune test: ranges more than one cell apart in any dimension."""
    a_min, a_max = _cell_bounds(ctx, a_lo, a_hi)
    b_min, b_max = _cell_bounds(ctx, b_lo, b_hi)
    return bool(np.any(b_min > a_max + 1) or np.any(a_min > b_max + 1))


def _join_recursive(ctx: _EGOContext, a_lo: int, a_hi: int, b_lo: int, b_hi: int,
                    same: bool, mirror: bool) -> None:
    """Join two ego-ordered subsequences."""
    len_a = a_hi - a_lo
    len_b = b_hi - b_lo
    if len_a == 0 or len_b == 0:
        return
    ctx.stats.recursions += 1
    if not same and _can_prune(ctx, a_lo, a_hi, b_lo, b_hi):
        ctx.stats.prunes += 1
        return
    if len_a <= ctx.threshold and len_b <= ctx.threshold:
        _simple_join(ctx, a_lo, a_hi, b_lo, b_hi, same, mirror)
        return
    if same:
        mid = a_lo + len_a // 2
        _join_recursive(ctx, a_lo, mid, a_lo, mid, same=True, mirror=False)
        _join_recursive(ctx, mid, a_hi, mid, a_hi, same=True, mirror=False)
        _join_recursive(ctx, a_lo, mid, mid, a_hi, same=False, mirror=True)
        return
    # Split the longer of the two sequences.
    if len_a >= len_b:
        mid = a_lo + len_a // 2
        _join_recursive(ctx, a_lo, mid, b_lo, b_hi, same=False, mirror=mirror)
        _join_recursive(ctx, mid, a_hi, b_lo, b_hi, same=False, mirror=mirror)
    else:
        mid = b_lo + len_b // 2
        _join_recursive(ctx, a_lo, a_hi, b_lo, mid, same=False, mirror=mirror)
        _join_recursive(ctx, a_lo, a_hi, mid, b_hi, same=False, mirror=mirror)


def _simple_join(ctx: _EGOContext, a_lo: int, a_hi: int, b_lo: int, b_hi: int,
                 same: bool, mirror: bool) -> None:
    """Vectorized all-pairs join of two small subsequences."""
    ctx.stats.simple_joins += 1
    a_pts = ctx.points[a_lo:a_hi]
    b_pts = ctx.points[b_lo:b_hi]
    dist2 = squared_distances(a_pts[:, None, :], b_pts[None, :, :])
    ctx.stats.distance_calcs += int(dist2.size)
    qi, ci = np.nonzero(dist2 <= ctx.eps2)
    if qi.shape[0] == 0:
        return
    a_ids = ctx.ids[a_lo:a_hi][qi]
    b_ids = ctx.ids[b_lo:b_hi][ci]
    ctx.key_parts.append(a_ids)
    ctx.val_parts.append(b_ids)
    if mirror and not same:
        ctx.key_parts.append(b_ids)
        ctx.val_parts.append(a_ids)


def _expand_tasks(ctx: _EGOContext, a_lo: int, a_hi: int, b_lo: int, b_hi: int,
                  same: bool, tasks: List[Tuple[int, int, int, int, bool]],
                  depth: int = 0, max_depth: int = 4) -> None:
    """Expand the top of the recursion into independent tasks (for threading).

    Each emitted task is a ``(a_lo, a_hi, b_lo, b_hi, mirror)`` tuple whose
    subsequences never coincide unless the task is a pure self-join range, so
    tasks can execute concurrently and their pair lists concatenated.
    """
    len_a = a_hi - a_lo
    len_b = b_hi - b_lo
    if len_a == 0 or len_b == 0:
        return
    if depth >= max_depth or (len_a <= ctx.threshold and len_b <= ctx.threshold):
        tasks.append((a_lo, a_hi, b_lo, b_hi, not same))
        return
    if same:
        mid = a_lo + len_a // 2
        _expand_tasks(ctx, a_lo, mid, a_lo, mid, True, tasks, depth + 1, max_depth)
        _expand_tasks(ctx, mid, a_hi, mid, a_hi, True, tasks, depth + 1, max_depth)
        tasks.append((a_lo, mid, mid, a_hi, True))
    else:
        tasks.append((a_lo, a_hi, b_lo, b_hi, True))


def run_task(ctx: _EGOContext, task: Tuple[int, int, int, int, bool]) -> _EGOContext:
    """Execute one expanded task in its own context (thread-safe)."""
    a_lo, a_hi, b_lo, b_hi, mirror = task
    local = _EGOContext(points=ctx.points, ids=ctx.ids, cells=ctx.cells,
                        eps2=ctx.eps2, threshold=ctx.threshold)
    same = (a_lo, a_hi) == (b_lo, b_hi)
    _join_recursive(local, a_lo, a_hi, b_lo, b_hi, same=same,
                    mirror=mirror and not same)
    return local


def make_context(points: np.ndarray, eps: float,
                 threshold: int = DEFAULT_SIMPLE_JOIN_THRESHOLD) -> _EGOContext:
    """Build an EGO context (ego-sorted) without running the join."""
    pts = ensure_2d_float64(points)
    eps = check_eps(eps)
    order, cells = ego_sort(pts, eps)
    return _EGOContext(points=pts[order], ids=order, cells=cells,
                       eps2=eps * eps, threshold=int(threshold))


def _collect(ctx: _EGOContext, num_points: int) -> ResultSet:
    """Concatenate the accumulated pair fragments into a ResultSet."""
    if not ctx.key_parts:
        return ResultSet.empty(num_points)
    return ResultSet(keys=np.concatenate(ctx.key_parts).astype(np.int64),
                     values=np.concatenate(ctx.val_parts).astype(np.int64),
                     num_points=num_points)
