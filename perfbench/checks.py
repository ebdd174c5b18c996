"""Answer checks shared by every workload.

Distances are recomputed from direct coordinate differences,
``einsum("ij,ij->i", a - b, a - b)``, which is the arithmetic the engine's
kernels use, so a point exactly on the ε boundary is judged the same way
on both sides.  (The ``|a|^2 + |b|^2 - 2 a.b`` form is not used: it rounds
differently.)
"""

from __future__ import annotations

import numpy as np


def sample_rows(n_rows: int, count: int, seed: int) -> np.ndarray:
    """A seeded sample of row ids (all rows when ``count >= n_rows``)."""
    if count >= n_rows:
        return np.arange(n_rows, dtype=np.int64)
    rng = np.random.default_rng([seed, 7])
    return np.sort(rng.choice(n_rows, size=count, replace=False))


def neighbourhood(points: np.ndarray, centre: np.ndarray, eps: float) -> np.ndarray:
    """Ids of ``points`` within ``eps`` of ``centre``, ascending."""
    diff = centre - points
    dist2 = np.einsum("ij,ij->i", diff, diff)
    return np.flatnonzero(dist2 <= eps * eps)


def csr_valid(table) -> bool:
    """``NeighborTable.validate()`` as a boolean."""
    try:
        table.validate()
    except AssertionError:
        return False
    return True


def selfjoin_rows_match(points: np.ndarray, eps: float, table,
                        rows: np.ndarray) -> bool:
    """Every sampled CSR row equals its directly recomputed neighbourhood."""
    if not csr_valid(table) or table.num_points != points.shape[0]:
        return False
    return all(np.array_equal(table.neighbors_of(int(i)),
                              neighbourhood(points, points[i], eps))
               for i in rows)


def range_answer_ok(points: np.ndarray, query: np.ndarray, eps: float,
                    neighbours: np.ndarray) -> bool:
    """A single-point range answer (ids in CSR order) is exact."""
    return np.array_equal(np.sort(neighbours), neighbourhood(points, query, eps))


def knn_answer_ok(points: np.ndarray, query: np.ndarray, k: int,
                  indices: np.ndarray, distances: np.ndarray) -> bool:
    """A kNN answer is exact up to ties: compare distances, not ids.

    The returned distances must be the ``k`` smallest true distances in
    order, and each returned id must lie at its stated distance.
    """
    diff = query - points
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if indices.shape != (k,) or distances.shape != (k,):
        return False
    best = np.sort(dist)[:k]
    return bool(np.array_equal(distances, best)
                and np.array_equal(dist[indices], distances))
