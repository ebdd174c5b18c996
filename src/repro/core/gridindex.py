"""The GPU-SJ grid index (paper Section IV).

The index stores **only non-empty cells**.  Its components mirror Figure 2 of
the paper:

``B``
    Sorted array of the linearized ids of the non-empty cells.  The search
    kernel binary-searches ``B`` to decide whether an adjacent cell exists.
``G`` (``cell_starts`` / ``cell_counts``)
    For each non-empty cell ``C_h`` the range ``[Amin_h, Amax_h]`` into the
    point lookup array ``A``.
``A``
    Lookup array of length ``|D|`` mapping positions to point ids; the points
    of cell ``C_h`` are ``A[Amin_h .. Amax_h]``.
``M_j`` (``masks``)
    Per-dimension sorted arrays of the cell coordinates that are non-empty in
    that dimension; used to filter the adjacent-cell ranges before the binary
    search (Section IV-D).

The space complexity is ``O(|B| + |G| + |A|) = O(|D|)`` because every stored
cell contains at least one point.

The grid may index only ``k <= n`` of the points' ``n`` dimensions (the
*indexed dims*, :attr:`GridIndex.dims`).  ``B``, ``G``, ``M_j``, the cell
coordinates, the 3^k adjacent-cell offsets and UNICOMP's parity rule are
then k-dimensional, while ``points`` and the distance filter keep all n
dimensions.  A pair within ε is within ε in every projection, so the
candidate cells of a k-dim grid still hold every neighbour: the result is
the same, only the balance between cells walked and distances computed
moves.  :meth:`GridIndex.build` indexes all n dimensions unless told
otherwise, which is the paper's layout.

The kernels read the points through one derived copy: all n coordinates
in ``A`` order, column-major (:meth:`GridIndex.cell_ordered_columns`), so
the distance filter gathers one dimension at a time with 1-D takes and
sums the squares in dimension order (:mod:`repro.core.distance`), and the
self-join's box prune reduces each column per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple, TypeVar)

import numpy as np

from repro.core import linearize as lin
from repro.core.result import sort_pairs
from repro.utils.buildonce import KeyedBuilds
from repro.utils.validation import check_eps, ensure_2d_float64

T = TypeVar("T")


@dataclass
class GridIndexStats:
    """Summary statistics of a built :class:`GridIndex` (used in reports/tests)."""

    num_points: int
    #: Point dimensionality ``n``.
    num_dims: int
    #: Indexed dimensionality ``k`` (the walk visits 3^k cells per cell).
    num_grid_dims: int
    num_nonempty_cells: int
    total_cells: int
    min_points_per_cell: int
    max_points_per_cell: int
    avg_points_per_cell: float
    memory_bytes: int

    @property
    def occupancy_fraction(self) -> float:
        """Fraction of the full grid that is non-empty (sparsity of the index)."""
        if self.total_cells == 0:
            return 0.0
        return self.num_nonempty_cells / self.total_cells


@dataclass
class GridIndex:
    """Non-empty-cell grid index over a point set for a given ε.

    Build with :meth:`GridIndex.build`; the constructor is considered
    internal (all arrays must be mutually consistent).

    Every grid-side array is over the ``k`` indexed dimensions ``dims``
    (grid dimension ``i`` is point dimension ``dims[i]``); only ``points``
    has all ``n``.

    Attributes
    ----------
    points:
        The original point set ``D`` (``(n_points, n)`` float64).
    eps:
        Grid cell side length (= the ε search distance).
    dims:
        The indexed point dimensions, ascending (all ``n`` by default).
    gmin, gmax:
        ε-padded grid bounds per indexed dimension.
    num_cells:
        Cells per indexed dimension ``|g_j|``.
    strides:
        Row-major linearization strides.
    point_cell_coords:
        ``(n_points, k)`` cell coordinates of each point.
    point_cell_ids:
        ``(n_points,)`` linearized cell id of each point.
    A:
        Point lookup array: point ids sorted by cell id (``|A| = |D|``).
    B:
        Sorted unique non-empty cell linear ids (``|B| = |G|``).
    cell_starts, cell_counts:
        The ``G`` structure: the points of non-empty cell ``h`` are
        ``A[cell_starts[h] : cell_starts[h] + cell_counts[h]]``.
    cell_coords:
        ``(|G|, k)`` coordinates of each non-empty cell.
    masks:
        Per-indexed-dimension sorted arrays of non-empty coordinates
        (``M_j``).

    Besides these arrays an index keeps data derived from them, each
    built lazily and once (:meth:`cached`): its points in ``A`` order,
    column-major (:meth:`cell_ordered_columns`), and per UNICOMP flag the
    self-join's cell-pair adjacency
    (:class:`repro.core.kernels.CellAdjacency`).  They live and die with
    the index, in whichever cache holds it.  :meth:`memory_footprint`
    stays the paper's ``B`` + ``G`` + ``A`` + ``M`` size and does not
    count them (:meth:`cached_nbytes` does); the kernels keep at most
    nine times the bytes of the points.
    """

    points: np.ndarray
    eps: float
    dims: Tuple[int, ...]
    gmin: np.ndarray
    gmax: np.ndarray
    num_cells: np.ndarray
    strides: np.ndarray
    point_cell_coords: np.ndarray
    point_cell_ids: np.ndarray
    A: np.ndarray
    B: np.ndarray
    cell_starts: np.ndarray
    cell_counts: np.ndarray
    cell_coords: np.ndarray
    masks: List[np.ndarray] = field(default_factory=list)
    _derived: Dict[Hashable, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _derived_builds: KeyedBuilds = field(
        default_factory=KeyedBuilds, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, points: np.ndarray, eps: float,
              dims: Optional[Sequence[int]] = None) -> "GridIndex":
        """Construct the index for ``points`` with cell side length ``eps``.

        ``dims`` names the point dimensions the grid indexes (any order,
        stored ascending); ``None`` indexes all of them.

        The construction is a sort by linearized cell id followed by a
        run-length encoding of the sorted ids — far cheaper than building an
        R-tree, which is the point the paper makes when omitting index
        construction time for the baseline but not for GPU-SJ.  The sort is
        one in-place sort of the fused key ``cell_id * n + point_id``
        (:func:`repro.core.result.sort_pairs`), which orders the points of a
        cell by id, as a stable argsort would; ``M_j`` is read off the |B|
        non-empty cells rather than the n points.
        """
        pts = ensure_2d_float64(points)
        eps = check_eps(eps)
        n_dims = pts.shape[1]
        dims = tuple(range(n_dims)) if dims is None \
            else tuple(sorted({int(j) for j in dims}))
        if not dims or dims[0] < 0 or dims[-1] >= n_dims:
            raise ValueError(f"dims must name 1..{n_dims} of the point "
                             f"dimensions 0..{n_dims - 1}, got {dims}")
        grid_pts = _indexed_columns(pts, dims)

        gmin, gmax = lin.compute_grid_bounds(grid_pts, eps)
        num_cells = lin.compute_num_cells(gmin, gmax, eps)
        coords = lin.compute_cell_coords(grid_pts, gmin, eps, num_cells)
        return cls._from_cell_coords(pts, eps, dims, gmin, gmax, num_cells,
                                     coords)

    def project(self, dims: Sequence[int]) -> "GridIndex":
        """The index over the ``dims`` subset of this index's dims.

        Equal, array by array, to ``GridIndex.build(points, eps, dims)``,
        but cheaper: the bounds, cell counts, per-point cell coordinates
        and masks ``M_j`` are per-dimension, so their ``dims`` columns are
        reused, and only the linearize and group steps run again.
        The planner derives its reduced index from the all-dims one it
        scores the dims with (:meth:`QueryPlanner.index_dataset
        <repro.engine.planner.QueryPlanner.index_dataset>`).
        """
        dims = tuple(sorted({int(j) for j in dims}))
        if not dims or not set(dims) <= set(self.dims):
            raise ValueError(f"dims must name 1..{self.num_grid_dims} of "
                             f"the indexed dimensions {self.dims}, got {dims}")
        if dims == self.dims:
            return self
        cols = [self.dims.index(j) for j in dims]
        return self._from_cell_coords(
            self.points, self.eps, dims, self.gmin[cols], self.gmax[cols],
            self.num_cells[cols], self.point_cell_coords[:, cols],
            [self.masks[c] for c in cols])

    @classmethod
    def _from_cell_coords(cls, points: np.ndarray, eps: float,
                          dims: Tuple[int, ...], gmin: np.ndarray,
                          gmax: np.ndarray, num_cells: np.ndarray,
                          coords: np.ndarray,
                          masks: Optional[List[np.ndarray]] = None,
                          ) -> "GridIndex":
        """The index whose points have cell coordinates ``coords``: the
        linearize, group-by-cell and (unless given) mask steps of
        :meth:`build`."""
        strides = lin.compute_strides(num_cells)
        cell_ids = lin.linearize(coords, strides)

        A, B, cell_starts, cell_counts = group_by_cell_id(cell_ids)
        cell_coords = lin.delinearize(B, num_cells)

        # Per-dimension masks of non-empty coordinates.
        if masks is None:
            masks = [np.unique(cell_coords[:, j]) for j in range(len(dims))]

        return cls(
            points=points,
            eps=eps,
            dims=dims,
            gmin=gmin,
            gmax=gmax,
            num_cells=num_cells,
            strides=strides,
            point_cell_coords=coords,
            point_cell_ids=cell_ids,
            A=A,
            B=B,
            cell_starts=cell_starts,
            cell_counts=cell_counts,
            cell_coords=cell_coords,
            masks=masks,
        )

    # ------------------------------------------------------------- properties
    @property
    def num_points(self) -> int:
        """Number of indexed points ``|D|``."""
        return int(self.points.shape[0])

    @property
    def num_dims(self) -> int:
        """Dimensionality ``n`` of the points (the distance's width)."""
        return int(self.points.shape[1])

    @property
    def num_grid_dims(self) -> int:
        """Number ``k`` of indexed dimensions: the grid's dimensionality."""
        return len(self.dims)

    @property
    def num_nonempty_cells(self) -> int:
        """Number of non-empty grid cells ``|G| = |B|``."""
        return int(self.B.shape[0])

    @property
    def total_cells(self) -> int:
        """Total cell count of the *full* grid (including empty cells)."""
        return lin.total_cells(self.num_cells)

    # ---------------------------------------------------------------- lookups
    def lookup_cell(self, linear_id: int) -> int:
        """Return the index ``h`` into ``B`` of ``linear_id``, or ``-1`` if empty.

        This is the binary search of Algorithm 1, line 11.
        """
        pos = int(np.searchsorted(self.B, linear_id))
        if pos < self.B.shape[0] and self.B[pos] == linear_id:
            return pos
        return -1

    def lookup_cells(self, linear_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup_cell`: array of positions, ``-1`` where empty."""
        linear_ids = np.asarray(linear_ids, dtype=np.int64)
        pos = self.B.searchsorted(linear_ids)
        found = self.B.take(pos, mode="clip") == linear_ids
        return np.where(found, pos, -1)

    def points_in_cell(self, h: int) -> np.ndarray:
        """Point ids contained in non-empty cell ``h`` (index into ``B``)."""
        if h < 0 or h >= self.num_nonempty_cells:
            raise IndexError(f"cell index {h} out of range [0, {self.num_nonempty_cells})")
        start = int(self.cell_starts[h])
        count = int(self.cell_counts[h])
        return self.A[start:start + count]

    def cell_of_point(self, i: int) -> np.ndarray:
        """Cell coordinates (over the indexed dims) of indexed point ``i``."""
        return self.point_cell_coords[i]

    def cell_coords_of(self, points: np.ndarray) -> np.ndarray:
        """Cell coordinates in this grid of arbitrary ``(m, n)`` points.

        Reads the indexed dims of ``points`` and clips into the grid as
        :func:`repro.core.linearize.compute_cell_coords` does; probes,
        range queries and kNN locate their query points with it.
        """
        return lin.compute_cell_coords(_indexed_columns(points, self.dims),
                                       self.gmin, self.eps, self.num_cells)

    def coords_to_linear(self, coords: np.ndarray) -> np.ndarray:
        """Linearize arbitrary cell coordinates with this grid's strides."""
        return lin.linearize(coords, self.strides)

    # ------------------------------------------------------------ derived data
    def cached(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, run once per ``key`` and kept for the index's life.

        The first caller builds; callers of the same key that arrive
        meanwhile wait for that build instead of running their own, while
        other keys are built and read as usual (:class:`KeyedBuilds`).
        Later callers read the kept value without locking.  A build that
        raises keeps nothing.
        """
        try:
            return self._derived[key]
        except KeyError:
            return self._derived_builds.get(self._derived, key, build)

    def cached_nbytes(self) -> int:
        """Bytes of the derived data kept so far (:meth:`cached`)."""
        return int(sum(getattr(value, "nbytes", 0)
                       for value in list(self._derived.values())))

    def cell_ordered_columns(self) -> np.ndarray:
        """``points`` in ``A`` order, column-major: a ``(|D|, n)`` array
        whose row ``j`` holds dimension ``j`` of points ``A[0], A[1], ...``,
        so each dimension of a cell's points is one contiguous run.  The
        NumPy emitter gathers its candidates' coordinates from these rows
        one dimension at a time, and the self-join's box prune reduces
        them per cell.  Read-only; built once (:meth:`cached`).
        """
        def build() -> np.ndarray:
            columns = np.empty((self.num_dims, self.num_points))
            # One 1-D gather per dimension, straight into its row; ``A`` is
            # a permutation, so ``clip`` never clips and spares ``take``
            # the buffered copy its default mode makes of ``out``.
            for j, column in enumerate(columns):
                self.points[:, j].take(self.A, out=column, mode="clip")
            columns.setflags(write=False)
            return columns

        return self.cached("cell_ordered_columns", build)

    @property
    def unindexed_dims(self) -> Tuple[int, ...]:
        """The point dimensions the grid does not index, ascending."""
        return tuple(j for j in range(self.num_dims) if j not in self.dims)

    # ------------------------------------------------------------- statistics
    def memory_footprint(self) -> int:
        """Approximate index size in bytes (``B`` + ``G`` + ``A`` + masks).

        The point data itself is excluded, matching the paper's discussion of
        index size versus GPU global-memory capacity, and so are the
        derived caches (:meth:`cached`).
        """
        nbytes = int(self.B.nbytes + self.A.nbytes + self.cell_starts.nbytes
                     + self.cell_counts.nbytes + self.cell_coords.nbytes)
        nbytes += int(sum(m.nbytes for m in self.masks))
        return nbytes

    def stats(self) -> GridIndexStats:
        """Return :class:`GridIndexStats` for reporting and ablation benches."""
        counts = self.cell_counts
        return GridIndexStats(
            num_points=self.num_points,
            num_dims=self.num_dims,
            num_grid_dims=self.num_grid_dims,
            num_nonempty_cells=self.num_nonempty_cells,
            total_cells=self.total_cells,
            min_points_per_cell=int(counts.min()) if counts.size else 0,
            max_points_per_cell=int(counts.max()) if counts.size else 0,
            avg_points_per_cell=float(counts.mean()) if counts.size else 0.0,
            memory_bytes=self.memory_footprint(),
        )

    # ------------------------------------------------------------- invariants
    def validate(self) -> None:
        """Check internal consistency; raises ``AssertionError`` on violation.

        Used by tests and by ``GPUSelfJoin(config.validate_index=True)``.
        """
        assert self.A.shape[0] == self.num_points, "A must map every point"
        assert np.array_equal(np.sort(self.A), np.arange(self.num_points)), \
            "A must be a permutation of the point ids"
        assert self.B.shape[0] == self.cell_starts.shape[0] == self.cell_counts.shape[0], \
            "B and G must have identical length"
        assert np.all(np.diff(self.B) > 0), "B must be sorted and unique"
        assert int(self.cell_counts.sum()) == self.num_points, \
            "cell counts must sum to the number of points"
        assert np.all(self.cell_counts >= 1), "stored cells must be non-empty"
        # Every point must fall inside the cell the index assigns it to.
        recomputed = lin.linearize(self.point_cell_coords, self.strides)
        assert np.array_equal(recomputed, self.point_cell_ids), \
            "point cell ids must match their coordinates"
        # Masks must contain exactly the coordinates present among points.
        for j, mask in enumerate(self.masks):
            assert np.array_equal(mask, np.unique(self.point_cell_coords[:, j])), \
                f"mask for dimension {j} is inconsistent"


@dataclass
class SubsetIndex:
    """A grid index over a slice of a larger dataset, with an id remap.

    Out-of-core execution builds indexes over *slices* of the dataset (one
    shard's points plus their ε-halo, read from a
    :class:`~repro.data.store.SpatialStore`); the slice has its own local
    row space ``0..n_local-1``, while results must be emitted in the global
    point ids of the full dataset.  ``SubsetIndex`` pairs the local
    :class:`GridIndex` with that remap: kernels run against :attr:`index`
    exactly as they would against a full index, and the emitted local ids
    are translated through :meth:`to_global`.

    The same pairing serves the ``multiprocess`` workers that map a store's
    B-ordered file directly: there the "slice" is the whole file in stored
    order and ``global_ids`` is the store's original-row-id directory.
    """

    index: GridIndex
    global_ids: np.ndarray

    @classmethod
    def build(cls, points: np.ndarray, global_ids: np.ndarray,
              eps: float) -> "SubsetIndex":
        """Index ``points`` (a slice) whose global ids are ``global_ids``."""
        global_ids = np.asarray(global_ids, dtype=np.int64)
        index = GridIndex.build(points, eps)
        if global_ids.shape[0] != index.num_points:
            raise ValueError(
                f"global_ids has {global_ids.shape[0]} entries for "
                f"{index.num_points} indexed points")
        return cls(index=index, global_ids=global_ids)

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Translate local row ids of the slice to global point ids."""
        return self.global_ids[np.asarray(local_ids, dtype=np.int64)]


def _indexed_columns(points: np.ndarray, dims: Tuple[int, ...]) -> np.ndarray:
    """The ``dims`` columns of ``points``; the array itself when that is all."""
    if len(dims) == points.shape[1]:
        return points
    return points[:, list(dims)]


def group_by_cell_id(cell_ids: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort points by cell id, then run-length encode the sorted ids.

    Returns ``(order, unique_ids, starts, counts)``: the point ids ordered
    by cell id (ties by point id, the stable argsort), and the CSR ranges
    of the cells over ``order``.  Cell ids must be non-negative.
    """
    n = cell_ids.shape[0]
    sorted_ids, order = sort_pairs(cell_ids, np.arange(n, dtype=np.int64), n,
                                   keep_keys=True)
    return (order, *_run_length_encode(sorted_ids))


def _run_length_encode(sorted_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RLE of a sorted id array -> (unique ids, start offsets, counts)."""
    if sorted_ids.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    change = np.empty(sorted_ids.shape[0], dtype=bool)
    change[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=change[1:])
    starts = np.flatnonzero(change).astype(np.int64)
    unique_ids = sorted_ids[starts]
    counts = np.empty_like(starts)
    counts[:-1] = np.diff(starts)
    counts[-1] = sorted_ids.shape[0] - starts[-1]
    return unique_ids, starts, counts
