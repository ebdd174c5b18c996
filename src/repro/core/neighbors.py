"""Adjacent-cell enumeration and mask filtering (paper Section IV-D).

Given the cell of a query point, the search for points within ε is bounded to
the 3^n adjacent cells.  The kernels first compute the per-dimension adjacent
ranges ``O_j = [c_j - 1, c_j + 1]`` clipped to the grid, then intersect each
range with the per-dimension mask ``M_j`` of non-empty coordinates, and only
then enumerate the candidate cells and binary-search them in ``B``.

Two flavours are provided:

* scalar/per-cell helpers used by the per-cell oracle
  (:mod:`repro.baselines.cellwise`) and the per-thread simulated kernel,
  and
* the offset enumeration behind the vectorized cell-pair walker.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.gridindex import GridIndex


def adjacent_ranges(cell_coords: np.ndarray, num_cells: np.ndarray) -> np.ndarray:
    """Per-dimension adjacent ranges of a cell, clipped to the grid.

    Parameters
    ----------
    cell_coords:
        ``(n_dims,)`` integer coordinates of the query cell.
    num_cells:
        ``(n_dims,)`` cells per dimension.

    Returns
    -------
    numpy.ndarray
        ``(n_dims, 2)`` array of inclusive ``[lo, hi]`` ranges
        (Algorithm 1, line 6 / the black dashed box in Figure 2b).
    """
    cell_coords = np.asarray(cell_coords, dtype=np.int64)
    num_cells = np.asarray(num_cells, dtype=np.int64)
    lo = np.maximum(cell_coords - 1, 0)
    hi = np.minimum(cell_coords + 1, num_cells - 1)
    return np.stack([lo, hi], axis=1)


def mask_filter_ranges(ranges: np.ndarray, masks: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Intersect adjacent ranges with the per-dimension masks ``M_j``.

    Returns, for every dimension, the array of coordinates inside
    ``[lo_j, hi_j]`` that are non-empty in that dimension (Algorithm 1,
    line 7 / the orange box in Figure 2b).  An empty array in any dimension
    means no adjacent cell can contain points.
    """
    filtered: List[np.ndarray] = []
    for j, mask in enumerate(masks):
        lo, hi = int(ranges[j, 0]), int(ranges[j, 1])
        left = int(np.searchsorted(mask, lo, side="left"))
        right = int(np.searchsorted(mask, hi, side="right"))
        filtered.append(mask[left:right])
    return filtered


def enumerate_candidate_cells(filtered: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Iterate the cartesian product of the filtered per-dimension coordinates.

    Yields ``(n_dims,)`` coordinate arrays — the nested loops of Algorithm 1,
    lines 8–10 generalized to n dimensions.
    """
    for combo in product(*[mask.tolist() for mask in filtered]):
        yield np.asarray(combo, dtype=np.int64)


def adjacent_cells(index: GridIndex, cell_coords: np.ndarray) -> Tuple[int, List[int]]:
    """Scalar adjacent-cell walk of one cell (Algorithm 1, lines 6-11).

    Computes the adjacent ranges, filters them by the masks ``M_j``,
    enumerates the candidate cells and binary-searches each in ``B``.
    Returns ``(checked, found)``: the number of candidate cells searched and
    the non-empty ones among them (indices into ``B``).  The walk of the
    readable reference kernels and probes.
    """
    ranges = adjacent_ranges(cell_coords, index.num_cells)
    checked = 0
    found: List[int] = []
    for cand in enumerate_candidate_cells(mask_filter_ranges(ranges, index.masks)):
        checked += 1
        h = index.lookup_cell(int(index.coords_to_linear(cand)))
        if h >= 0:
            found.append(h)
    return checked, found


def candidate_cells_of_point(index: GridIndex, point_id: int) -> List[int]:
    """Non-empty adjacent cells (indices into ``B``) of a point's cell."""
    return adjacent_cells(index, index.cell_of_point(point_id))[1]


def all_neighbor_offsets(n_dims: int, include_home: bool = True) -> np.ndarray:
    """All offsets in ``{-1, 0, +1}^n`` as an ``(3^n, n)`` int64 array.

    The vectorized cell-pair walker of :mod:`repro.core.kernels` broadcasts
    these offsets against many cells at once instead of the per-point loops
    of Algorithm 1; the visited cell pairs are identical.

    Parameters
    ----------
    n_dims:
        Dimensionality of the grid.
    include_home:
        When ``False`` the all-zero offset is omitted.
    """
    grids = np.meshgrid(*([np.array([-1, 0, 1], dtype=np.int64)] * n_dims), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    if not include_home:
        keep = ~np.all(offsets == 0, axis=1)
        offsets = offsets[keep]
    return offsets
