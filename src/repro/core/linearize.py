"""Cell-coordinate computation and linearization.

The paper's grid index (Section IV-B) overlays the data space with an
n-dimensional grid whose cells have side length ε.  Every cell is identified
by its integer n-dimensional coordinates and, for storage in the lookup array
``B``, by a single *linearized* id computed from those coordinates
(lexicographic / row-major order, matching Figure 2 of the paper).

This module holds the pure coordinate arithmetic shared by the index
construction (:mod:`repro.core.gridindex`), the search kernels
(:mod:`repro.core.kernels`) and the UNICOMP selection rule
(:mod:`repro.core.unicomp`).
"""

from __future__ import annotations

import numpy as np

#: Largest total cell count we allow for a linearized id space.  Linear ids
#: are stored as ``int64``; staying well below 2**62 leaves headroom for
#: intermediate arithmetic (e.g. adding strides when enumerating neighbors).
MAX_LINEAR_CELLS = np.int64(2) ** 62


class GridOverflowError(ValueError):
    """Raised when the linearized cell-id space would overflow ``int64``.

    The paper only stores *non-empty* cells, so the index itself never
    materializes the full grid; the linear id, however, must still be
    representable.  For ε values that are tiny relative to the data extent in
    high dimensions the id space can exceed 2**62, in which case the caller
    must increase ε or reduce dimensionality.
    """


def compute_grid_bounds(points: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Compute the grid bounds ``[gmin_j, gmax_j]`` for each dimension.

    Following Section IV-B, the range in each dimension is the data range
    appended by ε on both sides to avoid boundary conditions in cell lookups:
    ``gmin_j = min_j - eps`` and ``gmax_j = max_j + eps``.

    Parameters
    ----------
    points:
        ``(n_points, n_dims)`` float64 array.
    eps:
        Search distance (grid cell side length).

    Returns
    -------
    (gmin, gmax):
        Two ``(n_dims,)`` arrays.
    """
    # Column by column: a reduction down a strided column is several times
    # faster than ``min(axis=0)`` over a C-ordered array, with equal results.
    gmin = np.array([column.min() for column in points.T]) - eps
    gmax = np.array([column.max() for column in points.T]) + eps
    return gmin, gmax


def compute_num_cells(gmin: np.ndarray, gmax: np.ndarray, eps: float) -> np.ndarray:
    """Number of grid cells per dimension, ``|g_j| = ceil((gmax_j - gmin_j)/eps)``.

    The paper assumes ε evenly divides the range; we use a ceiling so the grid
    always covers the (ε-padded) data extent exactly, which preserves the
    bounded-search property: any point within ε of a query point lies in one
    of the 3^n adjacent cells.

    Raises
    ------
    GridOverflowError
        If one dimension alone needs more than :data:`MAX_LINEAR_CELLS`
        cells (checked before the cast, which would wrap past 2**63).
    """
    extent = np.asarray(gmax, dtype=np.float64) - np.asarray(gmin, dtype=np.float64)
    num = np.ceil(extent / float(eps))
    if (num > MAX_LINEAR_CELLS).any():
        raise GridOverflowError(
            "a grid dimension needs more than 2**62 cells; increase eps "
            f"(cells per dimension: {num.tolist()})")
    # Degenerate dimensions (all points share a coordinate) still need >= 1 cell.
    return np.maximum(num.astype(np.int64), 1)


def compute_strides(num_cells: np.ndarray) -> np.ndarray:
    """Row-major (lexicographic) strides for linearization.

    ``linear_id = sum_j coord_j * stride_j`` with ``stride_{n-1} = 1`` and
    ``stride_j = prod_{k>j} num_cells_k``.  This matches the lexicographic
    cell labelling of Figure 2 in the paper.

    Raises
    ------
    GridOverflowError
        If the total number of cells exceeds :data:`MAX_LINEAR_CELLS`.
    """
    num_cells = np.asarray(num_cells, dtype=np.int64)
    n = num_cells.shape[0]
    strides = np.ones(n, dtype=np.int64)
    total = np.int64(1)
    for j in range(n - 1, -1, -1):
        strides[j] = total
        if num_cells[j] <= 0:
            raise ValueError("num_cells entries must be positive")
        if total > MAX_LINEAR_CELLS // num_cells[j]:
            raise GridOverflowError(
                "linearized grid id space overflows int64; increase eps or "
                f"reduce dimensionality (num_cells={num_cells.tolist()})"
            )
        total = total * num_cells[j]
    return strides


def total_cells(num_cells: np.ndarray) -> int:
    """Total number of cells in the full (mostly empty) grid, ``prod |g_j|``."""
    strides = compute_strides(num_cells)
    return int(strides[0] * np.asarray(num_cells, dtype=np.int64)[0])


def compute_cell_coords(points: np.ndarray, gmin: np.ndarray, eps: float,
                        num_cells: np.ndarray) -> np.ndarray:
    """Integer cell coordinates of every point.

    ``coord_j = floor((x_j - gmin_j) / eps)`` clipped into ``[0, |g_j| - 1]``.
    For the indexed points the clip only matters on the upper grid boundary
    (floating-point round-off); a query point outside the grid lands in the
    border cell on its side.  The clip runs in float, before the cast: a
    quotient past int64's range would wrap in the cast and bin the point on
    the wrong side.

    Returns
    -------
    numpy.ndarray
        ``(n_points, n_dims)`` ``int64`` array.
    """
    scaled = np.floor((points - gmin) / float(eps))
    top = np.asarray(num_cells, dtype=np.int64) - 1
    np.clip(scaled, 0, top, out=scaled)
    coords = scaled.astype(np.int64)
    if top.max(initial=0) >= 2 ** 53:
        # float(top) may round up past the last cell on such a grid.
        np.minimum(coords, top, out=coords)
    return coords


def linearize(coords: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """Linearize integer cell coordinates into scalar cell ids.

    Parameters
    ----------
    coords:
        ``(..., n_dims)`` integer array of cell coordinates.
    strides:
        ``(n_dims,)`` strides from :func:`compute_strides`.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``coords.shape[:-1]``.
    """
    coords = np.asarray(coords, dtype=np.int64)
    strides = np.asarray(strides, dtype=np.int64)
    return coords @ strides


def delinearize(linear_ids: np.ndarray, num_cells: np.ndarray) -> np.ndarray:
    """Invert :func:`linearize`: recover n-dimensional cell coordinates.

    Parameters
    ----------
    linear_ids:
        Integer array of linear cell ids.
    num_cells:
        ``(n_dims,)`` cells-per-dimension array used to build the grid.

    Returns
    -------
    numpy.ndarray
        ``(..., n_dims)`` ``int64`` coordinate array.
    """
    linear_ids = np.asarray(linear_ids, dtype=np.int64)
    num_cells = np.asarray(num_cells, dtype=np.int64)
    n = num_cells.shape[0]
    out = np.empty(linear_ids.shape + (n,), dtype=np.int64)
    remainder = linear_ids.copy()
    strides = compute_strides(num_cells)
    for j in range(n):
        out[..., j] = remainder // strides[j]
        remainder = remainder % strides[j]
    return out
