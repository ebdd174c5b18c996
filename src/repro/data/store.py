"""Dataset sources: one seam between the engine and where the points live.

The paper batches the self-join precisely because neither the result nor —
on real systems — the dataset needs to be resident at once.  A
:class:`DatasetSource` is that observation lifted into the API: every layer
of the engine that used to take a raw ``np.ndarray`` now accepts a source,
and the source decides the physical representation:

:class:`ArraySource`
    An in-memory array (today's behavior; raw arrays auto-wrap, so existing
    call sites keep working unchanged).

:class:`SpatialStore`
    An on-disk, memmap-able format holding the points **sorted in grid
    B-order** for a chosen layout cell width, next to a per-cell offset
    directory.  Because a shard of the grid is a contiguous run of the
    directory — and its ε-halo is a small set of nearby directory runs —
    any shard's points *plus everything within ε of them* can be read as a
    few contiguous slices without ever materializing the whole dataset.
    That is what lets the ``sharded`` backend stream a self-join over a
    dataset larger than memory (see
    :meth:`repro.parallel.sharded.ShardedBackend.run_selfjoin_streamed`)
    and the ``multiprocess`` backend map the file in its workers instead of
    creating a shared-memory copy.

On-disk layout (a directory)::

    <path>/
      meta.json         format version, shape, layout cell width, grid
                        geometry (gmin/gmax/num_cells/strides)
      points.npy        (n, d) float64, rows sorted by linearized layout
                        cell id (B-order) — memmap-able
      ids.npy           (n,)   int64 original dataset row id per stored row
      cells.npy         (|G|,) int64 sorted non-empty layout cell ids
      cell_starts.npy   (|G|,) int64 first stored row of each cell
      cell_counts.npy   (|G|,) int64 rows per cell

The *logical* dataset of a store is the original row order: every read path
translates stored rows back through ``ids``, so a join over a
``SpatialStore`` emits exactly the same point ids as one over the array it
was written from.  Streamed reads go through :meth:`SpatialStore.read_rows`
(positioned file reads, so even the address-space footprint stays bounded
by the slice, not the file) rather than a whole-file memmap.
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core import linearize as lin
from repro.core.gridindex import group_by_cell_id
from repro.utils.counters import Counters
from repro.utils.validation import check_eps, check_points

#: On-disk format version (bump on incompatible layout changes).
FORMAT_VERSION = 1

#: Target average points per layout cell when no cell width is given to
#: :meth:`SpatialStore.write`; large enough that the per-cell directory is a
#: small fraction of the point data, small enough that a shard's ε-halo
#: stays a thin boundary layer.
DEFAULT_POINTS_PER_CELL = 64

#: Rows sampled (evenly strided) into dataset fingerprints.
_FINGERPRINT_SAMPLE_ROWS = 256

#: Cap on candidate cells materialized per halo-expansion chunk
#: (block · (2r+1)^d); keeps the expansion's working set a few MB even for
#: wide halos in high dimensions.
_HALO_PAIR_BUDGET = 65_536


@dataclass(frozen=True)
class DatasetIdentity:
    """Identity of a dataset, usable as a pool/cache key.

    For in-memory arrays ``array_id`` is the CPython object id of the
    normalized points array — stable while a session holds its reference,
    but reusable after the array is freed; the sampled content
    ``fingerprint`` guards cached per-dataset resources (idle worker pools
    holding old shared-memory copies) against such id reuse.  On-disk
    stores derive ``array_id`` from the resolved path instead, so two
    sessions opening the same store share cached resources.
    """

    array_id: int
    shape: Tuple[int, ...]
    dtype: str
    fingerprint: str


def dataset_identity(points: np.ndarray) -> DatasetIdentity:
    """Compute the :class:`DatasetIdentity` of a normalized points array."""
    n = points.shape[0]
    step = max(1, n // _FINGERPRINT_SAMPLE_ROWS)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(points[::step]).tobytes())
    digest.update(np.asarray(points.shape, dtype=np.int64).tobytes())
    return DatasetIdentity(array_id=id(points), shape=tuple(points.shape),
                           dtype=str(points.dtype),
                           fingerprint=digest.hexdigest())


@dataclass
class StoreReadStats(Counters):
    """Cumulative read counters of one :class:`SpatialStore` instance.

    Tests assert the streaming contract directly on these: a streamed shard
    performs a handful of *coalesced* contiguous reads (``reads``) covering
    only its slice plus halo (``rows_read``), never the whole file at once.
    """

    reads: int = 0
    rows_read: int = 0


class DatasetSource(abc.ABC):
    """Where a dataset physically lives, behind one engine-facing protocol.

    The engine needs three things from a source: its logical geometry
    (:attr:`shape`), a full in-memory materialization for backends that
    need one (:meth:`as_array` — in original row order, so ids emitted by
    any execution path agree), and an :meth:`identity` for keying cached
    per-dataset resources.  Sources that can serve bounded slices opt into
    streaming via :attr:`supports_streaming`; sources backed by a file opt
    into worker-side mapping via :meth:`storage_descriptor`.
    """

    @property
    @abc.abstractmethod
    def shape(self) -> Tuple[int, int]:
        """``(n_points, n_dims)`` of the logical dataset."""

    @property
    def n_points(self) -> int:
        """Number of points in the logical dataset."""
        return int(self.shape[0])

    @property
    def n_dims(self) -> int:
        """Dimensionality of the logical dataset."""
        return int(self.shape[1])

    #: Whether the source can serve a shard's points plus ε-halo as bounded
    #: slices without materializing the dataset (see :class:`SpatialStore`).
    supports_streaming: bool = False

    @abc.abstractmethod
    def as_array(self) -> np.ndarray:
        """The full dataset as a normalized array in original row order.

        For an on-disk source this *materializes* the dataset (O(n) memory)
        and is only taken by execution paths that need the whole array —
        the streamed paths never call it.
        """

    @abc.abstractmethod
    def identity(self) -> DatasetIdentity:
        """Stable identity for keying per-dataset caches and worker pools."""

    def storage_descriptor(self) -> Optional[str]:
        """Path workers can map the dataset from (``None``: memory-only).

        The ``multiprocess`` backend uses this to map the file in each
        worker instead of creating a shared-memory copy of the points.
        """
        return None


def as_dataset_source(data: Union[np.ndarray, DatasetSource]) -> DatasetSource:
    """Wrap raw arrays in an :class:`ArraySource`; pass sources through."""
    if isinstance(data, DatasetSource):
        return data
    return ArraySource(data)


class ArraySource(DatasetSource):
    """In-memory dataset source (the auto-wrap of a raw points array)."""

    def __init__(self, points: np.ndarray) -> None:
        self._points = check_points(points)

    @property
    def shape(self) -> Tuple[int, int]:
        return (int(self._points.shape[0]), int(self._points.shape[1]))

    def as_array(self) -> np.ndarray:
        return self._points

    def identity(self) -> DatasetIdentity:
        return dataset_identity(self._points)


def _npy_data_offset(path: Path) -> int:
    """Byte offset of the array data inside a ``.npy`` file."""
    with open(path, "rb") as f:
        version = np.lib.format.read_magic(f)
        if version == (1, 0):
            np.lib.format.read_array_header_1_0(f)
        else:
            np.lib.format.read_array_header_2_0(f)
        return f.tell()


def dataset_extent(points: np.ndarray) -> np.ndarray:
    """Each dimension's extent (max − min); a flat dimension counts as 1."""
    extent = points.max(axis=0) - points.min(axis=0)
    return np.where(extent <= 0, 1.0, extent)


def uniform_cell_width(extent: np.ndarray, n_points: int,
                       points_per_cell: float) -> float:
    """Cell width holding ``points_per_cell`` of ``n_points`` points spread
    uniformly over a box of the given ``extent``."""
    volume = float(np.prod(extent))
    return float((volume * points_per_cell / n_points)
                 ** (1.0 / extent.shape[0]))


def default_cell_width(points: np.ndarray,
                       points_per_cell: int = DEFAULT_POINTS_PER_CELL) -> float:
    """Layout cell width targeting ``points_per_cell`` under uniform density."""
    return uniform_cell_width(dataset_extent(points), points.shape[0],
                              points_per_cell)


class SpatialStore(DatasetSource):
    """On-disk dataset in grid B-order with a per-cell offset directory.

    Create with :meth:`write` (from an in-memory array) and re-open with
    :meth:`open`; instances are immutable.  Only the O(|G|) cell directory
    is resident — the O(n) point data stays on disk and is read per slice.
    """

    supports_streaming = True

    def __init__(self, path: Path, meta: dict, cell_ids: np.ndarray,
                 cell_starts: np.ndarray, cell_counts: np.ndarray) -> None:
        self.path = Path(path)
        self._meta = meta
        self.cell_width = float(meta["cell_width"])
        self.gmin = np.asarray(meta["gmin"], dtype=np.float64)
        self.gmax = np.asarray(meta["gmax"], dtype=np.float64)
        self.num_cells = np.asarray(meta["num_cells"], dtype=np.int64)
        self.strides = np.asarray(meta["strides"], dtype=np.int64)
        self.cell_ids = cell_ids
        self.cell_starts = cell_starts
        self.cell_counts = cell_counts
        self.cell_coords = lin.delinearize(cell_ids, self.num_cells)
        self.read_stats = StoreReadStats()
        self._shape = (int(meta["n_points"]), int(meta["n_dims"]))
        self._points_offset = _npy_data_offset(self.path / "points.npy")
        self._ids_offset = _npy_data_offset(self.path / "ids.npy")
        self._array: Optional[np.ndarray] = None

    # ------------------------------------------------------------ construction
    @classmethod
    def write(cls, points: np.ndarray, path: Union[str, Path],
              cell_width: Optional[float] = None) -> "SpatialStore":
        """Write ``points`` (original row order) as a store at ``path``.

        ``cell_width`` is the *layout* granularity — independent of any
        query ε; a query's halo radius is ``ceil(eps / cell_width)`` layout
        cells (see :meth:`halo_radius`).  Defaults to a width targeting
        :data:`DEFAULT_POINTS_PER_CELL` points per non-empty cell.
        """
        pts = check_points(points)
        width = check_eps(cell_width) if cell_width is not None \
            else default_cell_width(pts)
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)

        gmin, gmax = lin.compute_grid_bounds(pts, width)
        num_cells = lin.compute_num_cells(gmin, gmax, width)
        strides = lin.compute_strides(num_cells)
        coords = lin.compute_cell_coords(pts, gmin, width, num_cells)
        linear = lin.linearize(coords, strides)
        order, cell_ids, cell_starts, cell_counts = group_by_cell_id(linear)

        np.save(path / "points.npy", pts[order])
        np.save(path / "ids.npy", order)
        np.save(path / "cells.npy", cell_ids)
        np.save(path / "cell_starts.npy", cell_starts)
        np.save(path / "cell_counts.npy", cell_counts)
        meta = {
            "format_version": FORMAT_VERSION,
            "n_points": int(pts.shape[0]),
            "n_dims": int(pts.shape[1]),
            "dtype": "float64",
            "cell_width": float(width),
            "gmin": [float(v) for v in gmin],
            "gmax": [float(v) for v in gmax],
            "num_cells": [int(v) for v in num_cells],
            "strides": [int(v) for v in strides],
            "n_nonempty_cells": int(cell_ids.shape[0]),
        }
        (path / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        return cls.open(path)

    @classmethod
    def open(cls, path: Union[str, Path]) -> "SpatialStore":
        """Open an existing store (loads only the cell directory)."""
        path = Path(path)
        meta_path = path / "meta.json"
        if not meta_path.is_file():
            raise FileNotFoundError(f"{path} is not a SpatialStore "
                                    "(missing meta.json)")
        meta = json.loads(meta_path.read_text())
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported SpatialStore format version "
                             f"{version!r} (this build reads {FORMAT_VERSION})")
        return cls(path=path, meta=meta,
                   cell_ids=np.load(path / "cells.npy"),
                   cell_starts=np.load(path / "cell_starts.npy"),
                   cell_counts=np.load(path / "cell_counts.npy"))

    # -------------------------------------------------------- source protocol
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def n_nonempty_cells(self) -> int:
        """Number of non-empty layout cells ``|G|`` in the directory."""
        return int(self.cell_ids.shape[0])

    def as_array(self) -> np.ndarray:
        """Materialize the dataset in original row order (O(n) memory).

        Cached on the instance (the store is immutable), so repeated
        non-streaming queries share one materialization.  Streamed
        execution never calls this.
        """
        if self._array is None:
            stored = np.load(self.path / "points.npy")
            ids = np.load(self.path / "ids.npy")
            out = np.empty_like(stored)
            out[ids] = stored
            self._array = out
        return self._array

    def identity(self) -> DatasetIdentity:
        path_key = hashlib.blake2b(str(self.path.resolve()).encode(),
                                   digest_size=8).digest()
        n = self.n_points
        step = max(1, n // _FINGERPRINT_SAMPLE_ROWS)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(json.dumps(self._meta, sort_keys=True).encode())
        # Strided single-row reads, NOT a whole-file memmap: identity is
        # computed inside memory-capped sessions, where a transient mapping
        # the size of the dataset would defeat the cap.  One file handle,
        # points only, and no ``read_stats`` contribution — those counters
        # measure the streaming contract, not fingerprinting.
        row_bytes = self.n_dims * 8
        with open(self.path / "points.npy", "rb") as f:
            for row in range(0, n, step):
                f.seek(self._points_offset + row * row_bytes)
                digest.update(f.read(row_bytes))
        return DatasetIdentity(array_id=int.from_bytes(path_key, "big"),
                               shape=self._shape, dtype=self._meta["dtype"],
                               fingerprint=digest.hexdigest())

    def storage_descriptor(self) -> Optional[str]:
        return str(self.path)

    # --------------------------------------------------------------- mmapping
    def stored_points(self) -> np.ndarray:
        """Read-only memmap of the points in *stored* (B-order) row order."""
        return np.load(self.path / "points.npy", mmap_mode="r")

    def stored_ids(self) -> np.ndarray:
        """Read-only memmap of the original row id per stored row."""
        return np.load(self.path / "ids.npy", mmap_mode="r")

    # ---------------------------------------------------------- sliced reads
    def read_rows(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read stored rows ``[lo, hi)`` as ``(points, original_ids)``.

        Positioned file reads (not a whole-file memmap), so both resident
        and *address-space* footprint are bounded by the slice — which is
        what lets a join run under a ``RLIMIT_AS`` cap smaller than the
        file.
        """
        lo, hi = int(lo), int(hi)
        if not (0 <= lo <= hi <= self.n_points):
            raise ValueError(f"row range [{lo}, {hi}) out of bounds "
                             f"[0, {self.n_points})")
        count = hi - lo
        dims = self.n_dims
        row_bytes = dims * 8
        with open(self.path / "points.npy", "rb") as f:
            f.seek(self._points_offset + lo * row_bytes)
            pts = np.frombuffer(f.read(count * row_bytes), dtype=np.float64)
        with open(self.path / "ids.npy", "rb") as f:
            f.seek(self._ids_offset + lo * 8)
            ids = np.frombuffer(f.read(count * 8), dtype=np.int64)
        self.read_stats.add(reads=1, rows_read=count)
        return pts.reshape(count, dims), ids

    def cell_row_range(self, lo: int, hi: int) -> Tuple[int, int]:
        """Stored-row range covered by directory positions ``[lo, hi)``."""
        if hi <= lo:
            return (0, 0)
        start = int(self.cell_starts[lo])
        end = int(self.cell_starts[hi - 1] + self.cell_counts[hi - 1])
        return (start, end)

    def read_cell_range(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Points + original ids of the contiguous directory range ``[lo, hi)``."""
        start, end = self.cell_row_range(lo, hi)
        return self.read_rows(start, end)

    def read_cell_positions(self, positions: np.ndarray,
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Points + original ids of arbitrary directory positions.

        Consecutive directory positions are consecutive on disk, so the
        sorted position set is coalesced into maximal runs and each run is
        read as one contiguous slice (``read_stats.reads`` counts them).
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.shape[0] == 0:
            return (np.empty((0, self.n_dims), dtype=np.float64),
                    np.empty(0, dtype=np.int64))
        positions = np.unique(positions)
        breaks = np.flatnonzero(np.diff(positions) != 1)
        run_starts = np.concatenate(([0], breaks + 1))
        run_ends = np.concatenate((breaks + 1, [positions.shape[0]]))
        pts_parts: List[np.ndarray] = []
        ids_parts: List[np.ndarray] = []
        for s, e in zip(run_starts, run_ends):
            pts, ids = self.read_cell_range(int(positions[s]),
                                            int(positions[e - 1]) + 1)
            pts_parts.append(pts)
            ids_parts.append(ids)
        return np.concatenate(pts_parts), np.concatenate(ids_parts)

    # ------------------------------------------------------------------ halos
    def halo_radius(self, eps: float) -> int:
        """Halo width in layout cells for a query at ``eps``.

        Any point within Euclidean ε of a point in cell ``c`` lies within
        ``ceil(eps / cell_width)`` layout cells of ``c`` per dimension
        (Chebyshev distance), so reading that many layers around a shard
        captures every possible join partner.
        """
        return int(np.ceil(check_eps(eps) / self.cell_width))

    def halo_positions(self, lo: int, hi: int, radius_cells: int,
                       chunk_cells: int = 2048) -> np.ndarray:
        """Directory positions of the ε-halo of directory range ``[lo, hi)``.

        All non-empty layout cells within Chebyshev distance
        ``radius_cells`` of any cell in the range, *excluding* the range
        itself.  Owned cells are expanded in bounded chunks — and the
        chunk shrinks with the offset count ``(2r+1)^d`` so the broadcast
        working set stays bounded regardless of dimensionality/radius, not
        O(shard · (2r+1)^d).
        """
        r = int(radius_cells)
        if r < 0:
            raise ValueError("radius_cells must be >= 0")
        if hi <= lo or r == 0:
            return np.empty(0, dtype=np.int64)
        dims = self.n_dims
        axes = [np.arange(-r, r + 1, dtype=np.int64)] * dims
        offsets = np.stack(np.meshgrid(*axes, indexing="ij"),
                           axis=-1).reshape(-1, dims)
        # Bound the (block x offsets) expansion: at high dims/radii the
        # offset count explodes ((2r+1)^d), so the block shrinks to keep
        # the broadcast within _HALO_PAIR_BUDGET candidate cells.
        chunk_cells = max(1, min(int(chunk_cells),
                                 _HALO_PAIR_BUDGET // offsets.shape[0]))
        found: List[np.ndarray] = []
        for start in range(lo, hi, chunk_cells):
            block = self.cell_coords[start:min(start + chunk_cells, hi)]
            neighbor = (block[:, None, :] + offsets[None, :, :]).reshape(-1, dims)
            inside = np.all((neighbor >= 0)
                            & (neighbor < self.num_cells[None, :]), axis=1)
            linear = lin.linearize(neighbor[inside], self.strides)
            pos = np.searchsorted(self.cell_ids, linear)
            pos = np.minimum(pos, self.cell_ids.shape[0] - 1)
            found.append(np.unique(pos[self.cell_ids[pos] == linear]))
        positions = np.unique(np.concatenate(found))
        return positions[(positions < lo) | (positions >= hi)]
