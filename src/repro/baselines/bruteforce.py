"""Brute-force O(|D|²) self-joins.

The paper uses a GPU brute-force nested-loop join as an ε-independent
reference: it compares every pair of points and therefore bounds from below
what a massively parallel but index-free approach costs.  Because this
reproduction's "device" is vectorized NumPy, the brute-force baseline is the
chunked all-pairs distance computation below; ``count_only=True`` mirrors the
paper's methodology of excluding the result transfer (a single kernel
invocation, result kept on the device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.distance import squared_distances
from repro.core.result import PairFragments, ResultSet
from repro.utils.validation import check_eps, ensure_2d_float64

#: Baseline for the number of query rows processed per chunk.  The scans
#: divide this by the dimensionality (see :func:`_rows_per_chunk`), so the
#: ``rows * n_points * n_dims`` coordinate differences a chunk computes
#: stay bounded at roughly ``chunk_rows * n_points`` regardless of
#: ``n_dims``.
DEFAULT_CHUNK_ROWS = 512


def _rows_per_chunk(chunk_rows: int, n_dims: int) -> int:
    """Rows per scan chunk keeping a chunk's differences ~``chunk_rows * n``."""
    return max(1, chunk_rows // max(1, n_dims))


def _dist2_chunk(block: np.ndarray, data: np.ndarray) -> np.ndarray:
    """``(m, n)`` squared distances between ``block`` and ``data`` rows.

    Summed one dimension at a time, in dimension order
    (:func:`repro.core.distance.squared_distances`): the order both grid
    kernel tiers use, so the oracle decides ε-boundary pairs exactly as
    they do.  Callers bound ``m`` via :func:`_rows_per_chunk`.
    """
    return squared_distances(block[:, None, :], data[None, :, :])


@dataclass
class BruteForceOutput:
    """Result (optional) and statistics of a brute-force join."""

    result: Optional[ResultSet]
    num_pairs: int
    distance_calcs: int


def bruteforce_count(points: np.ndarray, eps: float,
                     chunk_rows: int = DEFAULT_CHUNK_ROWS) -> BruteForceOutput:
    """Count result pairs without materializing them (single-kernel analogue)."""
    return _bruteforce(points, eps, chunk_rows=chunk_rows, materialize=False)


def bruteforce_selfjoin(points: np.ndarray, eps: float,
                        chunk_rows: int = DEFAULT_CHUNK_ROWS,
                        include_self: bool = True) -> BruteForceOutput:
    """All-pairs self-join returning the full :class:`ResultSet`."""
    out = _bruteforce(points, eps, chunk_rows=chunk_rows, materialize=True)
    if not include_self and out.result is not None:
        result = out.result.without_self_pairs()
        return BruteForceOutput(result=result, num_pairs=result.num_pairs,
                                distance_calcs=out.distance_calcs)
    return out


def allpairs_emit(queries: np.ndarray, data: np.ndarray, eps: float,
                  sink, rows: Optional[np.ndarray] = None,
                  chunk_rows: int = DEFAULT_CHUNK_ROWS) -> int:
    """Chunked all-pairs scan emitting (query row, data id) pairs into ``sink``.

    The single implementation shared by :func:`bruteforce_join` and the
    engine's ``bruteforce`` backend.  Distances use the direct difference
    (not the expanded dot-product identity), summed as the grid kernels sum
    them (:func:`_dist2_chunk`), so the ε-boundary decision ``dist² <= ε²``
    is bit-identical to the grid kernels' filter — the backend-parity
    tests rely on this.  Returns the number of distance
    evaluations.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    if rows is None:
        rows = np.arange(queries.shape[0], dtype=np.int64)
    eps2 = eps * eps
    distance_calcs = 0
    step = _rows_per_chunk(chunk_rows, queries.shape[1])
    for start in range(0, rows.shape[0], step):
        chunk = rows[start:start + step]
        dist2 = _dist2_chunk(queries[chunk], data)
        distance_calcs += int(dist2.size)
        qi, ci = np.nonzero(dist2 <= eps2)
        sink.emit(chunk[qi], ci.astype(np.int64))
    return distance_calcs


def bruteforce_join(left: np.ndarray, right: np.ndarray, eps: float,
                    chunk_rows: int = DEFAULT_CHUNK_ROWS) -> BruteForceOutput:
    """All-pairs bipartite join: every ``(a, b)`` with ``dist(a, b) <= eps``.

    The returned :class:`ResultSet` keys are ``left`` row ids and the values
    are ``right`` ids (``num_points`` is the left-side cardinality), matching
    the engine's bipartite CSR keying.
    """
    left_pts = ensure_2d_float64(left, name="left")
    right_pts = ensure_2d_float64(right, name="right")
    eps = check_eps(eps)
    if left_pts.shape[1] != right_pts.shape[1]:
        raise ValueError("left and right must have the same dimensionality")
    sink = PairFragments(left_pts.shape[0])
    distance_calcs = allpairs_emit(left_pts, right_pts, eps, sink,
                                   chunk_rows=chunk_rows)
    result = sink.to_result_set()
    return BruteForceOutput(result=result, num_pairs=result.num_pairs,
                            distance_calcs=distance_calcs)


def _bruteforce(points: np.ndarray, eps: float, chunk_rows: int,
                materialize: bool) -> BruteForceOutput:
    """Chunked all-pairs self-scan, delegating to :func:`allpairs_emit`.

    Both paths use the one shared direct-difference scan so the ε-boundary
    decision stays bit-identical across every reference and kernel; the
    count-only path skips the pair materialization entirely.
    """
    pts = ensure_2d_float64(points)
    eps = check_eps(eps)
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    n = pts.shape[0]
    if materialize:
        sink = PairFragments(n)
        distance_calcs = allpairs_emit(pts, pts, eps, sink,
                                       chunk_rows=chunk_rows)
        result = sink.to_result_set()
        return BruteForceOutput(result=result, num_pairs=result.num_pairs,
                                distance_calcs=distance_calcs)
    eps2 = eps * eps
    num_pairs = 0
    distance_calcs = 0
    step = _rows_per_chunk(chunk_rows, pts.shape[1])
    for start in range(0, n, step):
        dist2 = _dist2_chunk(pts[start:start + step], pts)
        distance_calcs += dist2.size
        num_pairs += int(np.count_nonzero(dist2 <= eps2))
    return BruteForceOutput(result=None, num_pairs=num_pairs,
                            distance_calcs=distance_calcs)
