"""Dense (materialized) grid index — the ablation comparator.

Prior GPU work the paper builds on (Gowanlock et al. 2017, reference [29])
indexed *every* grid cell, including empty ones, which is feasible in 2-D but
"intractable in higher dimensions" (Section IV-A).  GPU-SJ's contribution is
to store only non-empty cells.  This module implements the dense alternative
so the ablation benchmark can measure the contrast directly: memory that
grows with the full cell count ``prod |g_j|`` versus O(|D|), and lookups that
are O(1) array indexing versus a binary search of ``B``.

The dense index intentionally refuses to materialize grids beyond a cell
budget (:data:`DEFAULT_MAX_CELLS`) — exactly the failure mode the paper's
design avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core import linearize as lin
from repro.core.distance import squared_distances
from repro.core.result import ResultSet
from repro.utils.validation import check_eps, ensure_2d_float64

#: Refuse to materialize more cells than this (keeps the ablation safe).
DEFAULT_MAX_CELLS = 50_000_000


class DenseGridError(MemoryError):
    """Raised when the dense grid would exceed the allowed cell budget."""


@dataclass
class DenseGridIndex:
    """Grid index that materializes every cell (including empty ones)."""

    points: np.ndarray
    eps: float
    gmin: np.ndarray
    num_cells: np.ndarray
    strides: np.ndarray
    #: Per-cell start offsets into ``A`` (length ``total_cells + 1``).
    cell_offsets: np.ndarray
    #: Point ids sorted by cell (length ``|D|``).
    A: np.ndarray

    @classmethod
    def build(cls, points: np.ndarray, eps: float,
              max_cells: int = DEFAULT_MAX_CELLS) -> "DenseGridIndex":
        """Materialize the full grid; raises :class:`DenseGridError` if too large."""
        pts = ensure_2d_float64(points)
        eps = check_eps(eps)
        gmin, gmax = lin.compute_grid_bounds(pts, eps)
        num_cells = lin.compute_num_cells(gmin, gmax, eps)
        strides = lin.compute_strides(num_cells)
        total = lin.total_cells(num_cells)
        if total > max_cells:
            raise DenseGridError(
                f"dense grid would need {total} cells (> {max_cells}); "
                "use the non-empty-cell GridIndex instead")
        coords = lin.compute_cell_coords(pts, gmin, eps, num_cells)
        cell_ids = lin.linearize(coords, strides)
        order = np.argsort(cell_ids, kind="stable").astype(np.int64)
        counts = np.bincount(cell_ids, minlength=total).astype(np.int64)
        offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(points=pts, eps=eps, gmin=gmin, num_cells=num_cells,
                   strides=strides, cell_offsets=offsets, A=order)

    # ------------------------------------------------------------ properties
    @property
    def num_points(self) -> int:
        """Number of indexed points."""
        return int(self.points.shape[0])

    @property
    def num_dims(self) -> int:
        """Dimensionality."""
        return int(self.points.shape[1])

    @property
    def total_cells(self) -> int:
        """Number of materialized cells (including empty ones)."""
        return int(self.cell_offsets.shape[0] - 1)

    def memory_footprint(self) -> int:
        """Bytes of index structures (dominated by the per-cell offsets)."""
        return int(self.cell_offsets.nbytes + self.A.nbytes)

    def points_in_cell(self, linear_id: int) -> np.ndarray:
        """Point ids of a cell addressed by its linear id (O(1), no search)."""
        return self.A[self.cell_offsets[linear_id]:self.cell_offsets[linear_id + 1]]

    # ----------------------------------------------------------------- join
    def selfjoin(self, eps: float | None = None) -> ResultSet:
        """GLOBAL self-join over the dense grid (reference ablation path)."""
        eps = self.eps if eps is None else float(eps)
        eps2 = eps * eps
        key_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        coords_grid = np.indices(self.num_cells).reshape(self.num_dims, -1).T
        from repro.core.neighbors import all_neighbor_offsets

        offsets = all_neighbor_offsets(self.num_dims, include_home=True)
        counts = np.diff(self.cell_offsets)
        nonempty = np.flatnonzero(counts > 0)
        for offset in offsets:
            neighbor = coords_grid[nonempty] + offset[None, :]
            inside = np.all((neighbor >= 0) & (neighbor < self.num_cells[None, :]), axis=1)
            src = nonempty[inside]
            tgt = lin.linearize(neighbor[inside], self.strides)
            keep = counts[tgt] > 0
            src, tgt = src[keep], tgt[keep]
            for s, t in zip(src, tgt):
                a_ids = self.points_in_cell(int(s))
                b_ids = self.points_in_cell(int(t))
                dist2 = squared_distances(self.points[a_ids][:, None, :],
                                          self.points[b_ids][None, :, :])
                qi, ci = np.nonzero(dist2 <= eps2)
                key_parts.append(a_ids[qi])
                val_parts.append(b_ids[ci])
        if not key_parts:
            return ResultSet.empty(self.num_points)
        return ResultSet(keys=np.concatenate(key_parts).astype(np.int64),
                         values=np.concatenate(val_parts).astype(np.int64),
                         num_points=self.num_points)
