"""Self-join kernels over the grid index.

Three implementations of the paper's GPUSELFJOINGLOBAL kernel (Algorithm 1)
and its UNICOMP variant (Algorithm 2) are provided:

``pointwise``
    A literal, per-query-point transcription of Algorithm 1.  One "thread"
    per point, nested loops over the filtered adjacent ranges, binary search
    of ``B``.  Readable and used as the semantic reference in tests; far too
    slow for benchmark-scale inputs.

``cellwise``
    One iteration per non-empty *cell*: the candidate cells are enumerated
    once per source cell and the distance computations between the source
    cell's points and the candidate points are vectorized with NumPy.

``vectorized``
    The production path.  The outer loop runs over the 3^n neighbor
    *offsets*; for each offset every (source cell, target cell) pair is
    resolved with one vectorized binary search, the ragged point-pair lists
    are expanded with ``np.repeat`` arithmetic, and all distances for the
    offset are evaluated in a single NumPy expression.  The visited cell
    pairs and emitted results are identical to Algorithm 1; only the loop
    nesting differs (data-parallel over cells rather than over points), which
    mirrors how the CUDA kernel is data-parallel over points.

All kernels operate on an optional subset of source cells so the batching
scheme (Section V-A) can split the work into ≥ 3 batches whose union is the
complete self-join result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import nativekernels
from repro.core.gridindex import GridIndex
from repro.core.neighbors import (
    adjacent_ranges,
    all_neighbor_offsets,
    enumerate_candidate_cells,
    mask_filter_ranges,
)
from repro.core.result import PairFragments, ResultSet
from repro.core.unicomp import unicomp_candidate_cells, unicomp_offset_mask

#: Default bound on the number of candidate point pairs expanded at once by
#: the vectorized kernel.  Bounds peak memory at roughly
#: ``max_candidate_pairs * (2 * 8 + n_dims * 8)`` bytes of temporaries.
DEFAULT_MAX_CANDIDATE_PAIRS = 4_000_000


@dataclass
class KernelStats:
    """Work counters gathered while a kernel executes.

    These mirror the quantities the paper reasons about: the number of
    candidate cells checked against ``B``, how many of them were non-empty,
    and the number of Euclidean distance evaluations.  UNICOMP is expected to
    roughly halve ``cells_checked`` and ``distance_calcs`` relative to the
    GLOBAL kernel on the same input (Section V-B).
    """

    cells_checked: int = 0
    nonempty_cells_visited: int = 0
    distance_calcs: int = 0
    result_pairs: int = 0
    #: Kernel tier that produced these counters (``"numpy"``/``"numba"``);
    #: empty until a tier-dispatched kernel stamps it.  Merging stats from
    #: different tiers joins the names with ``+``.
    tier: str = ""
    #: How many tier-dispatched kernel invocations ran each kernel regime
    #: (``"dense"``/``"sparse"``).  Under sharded execution one invocation is
    #: one shard, so this records the adaptive per-shard selection outcome.
    kernel_counts: Dict[str, int] = field(default_factory=dict)
    #: Scheduling counters stamped by the parallel backends
    #: (:meth:`repro.parallel.scheduler.ScheduleReport.counts`): shards
    #: planned, steals, resplits, rebalances, hedges, re-dispatches and the
    #: achieved-vs-predicted cost ratio.  Empty when execution was serial.
    schedule_counts: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Accumulate another batch's counters into this one (returns self)."""
        self.cells_checked += other.cells_checked
        self.nonempty_cells_visited += other.nonempty_cells_visited
        self.distance_calcs += other.distance_calcs
        self.result_pairs += other.result_pairs
        if other.tier:
            if not self.tier:
                self.tier = other.tier
            elif other.tier != self.tier:
                self.tier = "+".join(sorted(
                    set(self.tier.split("+")) | set(other.tier.split("+"))))
        for kernel, count in other.kernel_counts.items():
            self.kernel_counts[kernel] = self.kernel_counts.get(kernel, 0) + count
        for counter, count in other.schedule_counts.items():
            self.schedule_counts[counter] = \
                self.schedule_counts.get(counter, 0) + count
        return self


@dataclass
class KernelOutput:
    """A kernel invocation's result pairs plus its work counters.

    ``result`` is ``None`` when the kernel emitted into an externally
    supplied :class:`~repro.core.result.PairFragments` sink (the CSR-native
    engine path); the pair count is then available as ``stats.result_pairs``
    and the pairs live in the caller's sink.
    """

    result: Optional[ResultSet]
    stats: KernelStats = field(default_factory=KernelStats)


# --------------------------------------------------------------------------
# pointwise reference kernel (Algorithm 1, literal transcription)
# --------------------------------------------------------------------------
def selfjoin_global_pointwise(index: GridIndex, eps: Optional[float] = None,
                              query_ids: Optional[Sequence[int]] = None,
                              sink: Optional[PairFragments] = None) -> KernelOutput:
    """Literal per-point transcription of Algorithm 1 (reference, slow).

    Parameters
    ----------
    index:
        Built grid index.
    eps:
        Search distance; defaults to the index's cell length (the standard
        configuration of the paper, where the cell side length equals ε).
    query_ids:
        Optional subset of query point ids (defaults to all points).
    sink:
        Optional external :class:`PairFragments` to emit into (the engine's
        CSR-native path); when given, ``KernelOutput.result`` is ``None``.
    """
    eps = index.eps if eps is None else float(eps)
    eps2 = eps * eps
    points = index.points
    stats = KernelStats()
    external = sink is not None
    sink = sink if sink is not None else PairFragments(index.num_points)
    before = sink.num_pairs
    keys: List[int] = []
    values: List[int] = []
    ids = range(index.num_points) if query_ids is None else query_ids
    for gid in ids:
        point = points[gid]
        coords = index.cell_of_point(gid)
        ranges = adjacent_ranges(coords, index.num_cells)
        filtered = mask_filter_ranges(ranges, index.masks)
        for cand in enumerate_candidate_cells(filtered):
            stats.cells_checked += 1
            linear = int(index.coords_to_linear(cand))
            h = index.lookup_cell(linear)
            if h < 0:
                continue
            stats.nonempty_cells_visited += 1
            candidate_ids = index.points_in_cell(h)
            diff = points[candidate_ids] - point
            dist2 = np.einsum("ij,ij->i", diff, diff)
            stats.distance_calcs += int(candidate_ids.shape[0])
            within = candidate_ids[dist2 <= eps2]
            keys.extend([gid] * int(within.shape[0]))
            values.extend(within.tolist())
    sink.emit(np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.int64))
    stats.result_pairs = sink.num_pairs - before
    result = None if external else sink.to_result_set()
    return KernelOutput(result=result, stats=stats)


# --------------------------------------------------------------------------
# cellwise kernels
# --------------------------------------------------------------------------
def selfjoin_global_cellwise(index: GridIndex, eps: Optional[float] = None,
                             source_cells: Optional[np.ndarray] = None,
                             sink: Optional[PairFragments] = None) -> KernelOutput:
    """Per-cell GLOBAL kernel: every source cell scans its non-empty adjacent cells."""
    eps = index.eps if eps is None else float(eps)
    eps2 = eps * eps
    points = index.points
    stats = KernelStats()
    external = sink is not None
    sink = sink if sink is not None else PairFragments(index.num_points)
    before = sink.num_pairs
    cells = np.arange(index.num_nonempty_cells) if source_cells is None \
        else np.asarray(source_cells, dtype=np.int64)
    for h in cells:
        src_ids = index.points_in_cell(int(h))
        coords = index.cell_coords[int(h)]
        ranges = adjacent_ranges(coords, index.num_cells)
        filtered = mask_filter_ranges(ranges, index.masks)
        candidate_ids: List[np.ndarray] = []
        for cand in enumerate_candidate_cells(filtered):
            stats.cells_checked += 1
            t = index.lookup_cell(int(index.coords_to_linear(cand)))
            if t < 0:
                continue
            stats.nonempty_cells_visited += 1
            candidate_ids.append(index.points_in_cell(t))
        if not candidate_ids:
            continue
        cand_arr = np.concatenate(candidate_ids)
        diff = points[src_ids][:, None, :] - points[cand_arr][None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        stats.distance_calcs += int(dist2.size)
        qi, ci = np.nonzero(dist2 <= eps2)
        sink.emit(src_ids[qi], cand_arr[ci])
    stats.result_pairs = sink.num_pairs - before
    result = None if external else sink.to_result_set()
    return KernelOutput(result=result, stats=stats)


def selfjoin_unicomp_cellwise(index: GridIndex, eps: Optional[float] = None,
                              source_cells: Optional[np.ndarray] = None,
                              sink: Optional[PairFragments] = None) -> KernelOutput:
    """Per-cell UNICOMP kernel following Algorithm 2's loop structure.

    The home cell is scanned normally (each ordered intra-cell pair emitted
    once); for the UNICOMP-selected neighbor cells both ordered pairs
    ``(p, q)`` and ``(q, p)`` are emitted, so the output matches the GLOBAL
    kernel exactly.
    """
    eps = index.eps if eps is None else float(eps)
    eps2 = eps * eps
    points = index.points
    stats = KernelStats()
    external = sink is not None
    sink = sink if sink is not None else PairFragments(index.num_points)
    before = sink.num_pairs
    cells = np.arange(index.num_nonempty_cells) if source_cells is None \
        else np.asarray(source_cells, dtype=np.int64)
    for h in cells:
        src_ids = index.points_in_cell(int(h))
        coords = index.cell_coords[int(h)]

        # Home cell: all ordered pairs within the cell (including self-pairs).
        stats.cells_checked += 1
        stats.nonempty_cells_visited += 1
        diff = points[src_ids][:, None, :] - points[src_ids][None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        stats.distance_calcs += int(dist2.size)
        qi, ci = np.nonzero(dist2 <= eps2)
        sink.emit(src_ids[qi], src_ids[ci])

        # UNICOMP-selected neighbor cells.
        candidate_ids: List[np.ndarray] = []
        for cand in unicomp_candidate_cells(coords, index.masks, index.num_cells):
            stats.cells_checked += 1
            t = index.lookup_cell(int(index.coords_to_linear(cand)))
            if t < 0:
                continue
            stats.nonempty_cells_visited += 1
            candidate_ids.append(index.points_in_cell(t))
        if not candidate_ids:
            continue
        cand_arr = np.concatenate(candidate_ids)
        diff = points[src_ids][:, None, :] - points[cand_arr][None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        stats.distance_calcs += int(dist2.size)
        qi, ci = np.nonzero(dist2 <= eps2)
        q_pts = src_ids[qi]
        c_pts = cand_arr[ci]
        sink.emit(q_pts, c_pts)
        sink.emit(c_pts, q_pts)
    stats.result_pairs = sink.num_pairs - before
    result = None if external else sink.to_result_set()
    return KernelOutput(result=result, stats=stats)


# --------------------------------------------------------------------------
# vectorized kernels (production path)
# --------------------------------------------------------------------------
def selfjoin_global_vectorized(index: GridIndex, eps: Optional[float] = None,
                               source_cells: Optional[np.ndarray] = None,
                               max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
                               sink: Optional[PairFragments] = None,
                               native_kernel: Optional[Callable] = None,
                               ) -> KernelOutput:
    """Vectorized GLOBAL kernel (offset-major loop order).

    For each of the ``3^n`` neighbor offsets, all (source, target) non-empty
    cell pairs are resolved at once and their candidate point pairs expanded
    and distance-filtered in chunks of at most ``max_candidate_pairs``.

    ``native_kernel`` swaps the NumPy expand/filter step for one of the
    compiled pair kernels from :mod:`repro.core.nativekernels`; the cell
    walk, offset order, chunking and stats are unchanged.
    """
    eps = index.eps if eps is None else float(eps)
    stats = KernelStats()
    external = sink is not None
    sink = sink if sink is not None else PairFragments(index.num_points)
    before = sink.num_pairs
    cells = np.arange(index.num_nonempty_cells, dtype=np.int64) if source_cells is None \
        else np.asarray(source_cells, dtype=np.int64)
    offsets = all_neighbor_offsets(index.num_dims, include_home=True)
    for offset in offsets:
        src, tgt, checked = _resolve_offset_pairs(index, cells, offset)
        stats.cells_checked += checked
        stats.nonempty_cells_visited += int(src.shape[0])
        if src.shape[0] == 0:
            continue
        n_dist = _emit_pairs_chunked(index, src, tgt, eps, max_candidate_pairs,
                                     sink, mirror=False,
                                     native_kernel=native_kernel)
        stats.distance_calcs += n_dist
    stats.result_pairs = sink.num_pairs - before
    result = None if external else sink.to_result_set()
    return KernelOutput(result=result, stats=stats)


def selfjoin_unicomp_vectorized(index: GridIndex, eps: Optional[float] = None,
                                source_cells: Optional[np.ndarray] = None,
                                max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
                                sink: Optional[PairFragments] = None,
                                native_kernel: Optional[Callable] = None,
                                ) -> KernelOutput:
    """Vectorized UNICOMP kernel.

    The home offset is processed for every source cell; each non-home offset
    is processed only for the source cells whose UNICOMP parity rule selects
    it, and both ordered pairs are emitted for the matches found.
    """
    eps = index.eps if eps is None else float(eps)
    stats = KernelStats()
    external = sink is not None
    sink = sink if sink is not None else PairFragments(index.num_points)
    before = sink.num_pairs
    cells = np.arange(index.num_nonempty_cells, dtype=np.int64) if source_cells is None \
        else np.asarray(source_cells, dtype=np.int64)
    offsets = all_neighbor_offsets(index.num_dims, include_home=True)
    for offset in offsets:
        is_home = bool(np.all(offset == 0))
        if is_home:
            selected = cells
        else:
            mask = unicomp_offset_mask(index.cell_coords[cells], offset)
            selected = cells[mask]
        if selected.shape[0] == 0:
            continue
        src, tgt, checked = _resolve_offset_pairs(index, selected, offset)
        stats.cells_checked += checked
        stats.nonempty_cells_visited += int(src.shape[0])
        if src.shape[0] == 0:
            continue
        n_dist = _emit_pairs_chunked(index, src, tgt, eps, max_candidate_pairs,
                                     sink, mirror=not is_home,
                                     native_kernel=native_kernel)
        stats.distance_calcs += n_dist
    stats.result_pairs = sink.num_pairs - before
    result = None if external else sink.to_result_set()
    return KernelOutput(result=result, stats=stats)


# --------------------------------------------------------------------------
# tier dispatch
# --------------------------------------------------------------------------
def selfjoin_tiered(index: GridIndex, eps: Optional[float] = None,
                    source_cells: Optional[np.ndarray] = None,
                    max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
                    sink: Optional[PairFragments] = None, *,
                    unicomp: bool = False, tier: str = "auto",
                    kernel: str = "auto") -> KernelOutput:
    """Run the self-join on the resolved kernel tier with adaptive selection.

    This is the production dispatch behind the ``vectorized`` backend (and
    therefore behind ``sharded``/``multiprocess``, which run it once per
    shard).  ``tier`` picks the implementation tier (``numpy``/``numba``,
    ``auto`` preferring numba when available); ``kernel`` picks the cell
    regime (``dense``/``sparse``, ``auto`` deciding from the cell subset's
    population via
    :func:`repro.core.nativekernels.choose_selfjoin_kernel`).  The chosen
    tier and kernel are stamped on the returned
    :class:`KernelStats` (``tier``, ``kernel_counts``).

    On the NumPy tier the dense regime routes to the per-cell kernels and
    the sparse regime to the offset-major vectorized kernels; on the numba
    tier both regimes run the offset-major walk with the corresponding
    compiled pair kernel.  All routes emit identical pair sets.
    """
    resolved = nativekernels.resolve_kernel_tier(tier)
    choice = kernel if kernel != "auto" else nativekernels.choose_selfjoin_kernel(
        index, source_cells, max_candidate_pairs)
    if resolved == "numba":
        native = nativekernels.native_pair_kernels()[choice]
        fn = selfjoin_unicomp_vectorized if unicomp else selfjoin_global_vectorized
        out = fn(index, eps, source_cells, max_candidate_pairs, sink=sink,
                 native_kernel=native)
    elif choice == "dense":
        fn = selfjoin_unicomp_cellwise if unicomp else selfjoin_global_cellwise
        out = fn(index, eps, source_cells, sink=sink)
    else:
        fn = selfjoin_unicomp_vectorized if unicomp else selfjoin_global_vectorized
        out = fn(index, eps, source_cells, max_candidate_pairs, sink=sink)
    out.stats.tier = resolved
    out.stats.kernel_counts[choice] = out.stats.kernel_counts.get(choice, 0) + 1
    return out


#: Legacy dispatch table on (kernel implementation, unicomp flag).  Kept for
#: backward compatibility; the production dispatch now goes through the
#: pluggable backends of :mod:`repro.engine.backends`.
KERNELS = {
    ("pointwise", False): lambda index, eps, cells, chunk: selfjoin_global_pointwise(index, eps),
    ("cellwise", False): lambda index, eps, cells, chunk: selfjoin_global_cellwise(index, eps, cells),
    ("cellwise", True): lambda index, eps, cells, chunk: selfjoin_unicomp_cellwise(index, eps, cells),
    ("vectorized", False): lambda index, eps, cells, chunk: selfjoin_global_vectorized(
        index, eps, cells, chunk),
    ("vectorized", True): lambda index, eps, cells, chunk: selfjoin_unicomp_vectorized(
        index, eps, cells, chunk),
}


# --------------------------------------------------------------------------
# internal helpers
# --------------------------------------------------------------------------
def _resolve_offset_pairs(index: GridIndex, source_cells: np.ndarray,
                          offset: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Map each source cell to its neighbor cell at ``offset``.

    Returns ``(src, tgt, checked)`` where ``src``/``tgt`` are indices into
    ``B`` for the pairs whose neighbor exists (is inside the grid, passes the
    per-dimension masks and is non-empty), and ``checked`` is the number of
    candidate cells that survived the mask filter and were binary-searched
    (the quantity the masking arrays are designed to reduce).
    """
    coords = index.cell_coords[source_cells]
    neighbor = coords + np.asarray(offset, dtype=np.int64)[None, :]
    inside = np.all((neighbor >= 0) & (neighbor < index.num_cells[None, :]), axis=1)
    # Mask filter: each neighbor coordinate must be non-empty in its dimension.
    for j, mask in enumerate(index.masks):
        if not inside.any():
            break
        pos = np.searchsorted(mask, neighbor[:, j])
        pos = np.minimum(pos, mask.shape[0] - 1)
        inside &= mask[pos] == neighbor[:, j]
    candidates = np.flatnonzero(inside)
    checked = int(candidates.shape[0])
    if checked == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
    linear = index.coords_to_linear(neighbor[candidates])
    tgt = index.lookup_cells(linear)
    found = tgt >= 0
    src = source_cells[candidates[found]]
    return src.astype(np.int64), tgt[found].astype(np.int64), checked


def _emit_pairs_chunked(index: GridIndex, src: np.ndarray, tgt: np.ndarray,
                        eps: float, max_candidate_pairs: int,
                        sink: PairFragments, mirror: bool,
                        native_kernel: Optional[Callable] = None) -> int:
    """Expand cell pairs into point pairs, filter by distance, emit into ``sink``.

    Returns the number of distance evaluations performed.  When ``mirror`` is
    true both ordered pairs are emitted for every match (UNICOMP non-home
    offsets).  With ``native_kernel`` the expand/filter step runs as a
    compiled pair kernel emitting into preallocated buffers instead of the
    NumPy ragged expansion.
    """
    eps2 = eps * eps
    points = index.points
    # Gather the CSR ranges of the cell pairs once; the chunk loop below
    # slices these views instead of re-indexing cell_counts/cell_starts for
    # every chunk.
    sizes_s = index.cell_counts[src].astype(np.int64)
    sizes_t = index.cell_counts[tgt].astype(np.int64)
    starts_s = index.cell_starts[src].astype(np.int64)
    starts_t = index.cell_starts[tgt].astype(np.int64)
    pair_counts = sizes_s * sizes_t
    total = int(pair_counts.sum())
    if total == 0:
        return 0
    n_dist = 0
    # Split the cell-pair list into chunks whose expanded size stays bounded.
    boundaries = _chunk_boundaries(pair_counts, max_candidate_pairs)
    for lo, hi in boundaries:
        chunk_total = int(pair_counts[lo:hi].sum())
        if chunk_total == 0:
            continue
        if native_kernel is not None:
            capacity = chunk_total * (2 if mirror else 1)
            keys = np.empty(capacity, dtype=np.int64)
            values = np.empty(capacity, dtype=np.int64)
            n = native_kernel(points, points, index.A, index.A,
                              starts_s[lo:hi], sizes_s[lo:hi],
                              starts_t[lo:hi], sizes_t[lo:hi],
                              eps2, keys, values, mirror)
            n_dist += chunk_total
            # Copy off the oversized buffers so the sink holds right-sized
            # fragments, not views pinning full-capacity allocations.
            sink.emit(keys[:n].copy(), values[:n].copy())
            continue
        q_idx, c_idx = _expand_cell_pairs(index.A, index.A,
                                          starts_s[lo:hi], sizes_s[lo:hi],
                                          starts_t[lo:hi], sizes_t[lo:hi])
        diff = points[q_idx]
        diff -= points[c_idx]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        n_dist += int(dist2.shape[0])
        within = dist2 <= eps2
        q_sel = q_idx[within]
        c_sel = c_idx[within]
        sink.emit(q_sel, c_sel)
        if mirror:
            sink.emit(c_sel, q_sel)
    return n_dist


def _chunk_boundaries(pair_counts: np.ndarray, max_candidate_pairs: int) -> List[tuple[int, int]]:
    """Split a cell-pair list into ranges whose total expansion is bounded.

    Greedy: a range grows while its running total stays within
    ``max_candidate_pairs``; a single cell pair larger than the bound gets a
    range of its own.  Each range end is found with one ``searchsorted`` on
    the prefix sums, and a list whose total fits is one range.
    """
    n = int(pair_counts.shape[0])
    cum = pair_counts.cumsum()
    if n == 0 or int(cum[-1]) <= max_candidate_pairs:
        return [(0, n)]
    boundaries: List[tuple[int, int]] = []
    lo = 0
    while lo < n:
        base = int(cum[lo]) - int(pair_counts[lo])
        hi = int(np.searchsorted(cum, base + max_candidate_pairs, side="right"))
        # Only empty cell pairs precede the first one past the bound: that
        # oversized pair still joins this range (every range expands work).
        if hi < n and (hi == lo or int(cum[hi - 1]) == base):
            hi += 1
        boundaries.append((lo, hi))
        lo = hi
    return boundaries


def _expand_cell_pairs(src_lookup: np.ndarray, tgt_lookup: np.ndarray,
                       starts_s: np.ndarray, sizes_s: np.ndarray,
                       starts_t: np.ndarray, sizes_t: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Expand (source cell, target cell) pairs into all candidate point pairs.

    Takes the cell pairs' already-gathered CSR ranges (the caller hoists the
    ``cell_counts``/``cell_starts`` gathers out of its chunk loop).  The
    k-th cell pair, with ``s_k`` source and ``t_k`` target points, yields
    its ``s_k * t_k`` candidates source-row-major, in two ragged steps: the
    pair becomes ``s_k`` source rows (arrays of row length), and each row
    becomes ``t_k`` candidates, one ``np.repeat`` of its source id and a
    running position in the target cell's range.  Positions index the
    point lookup arrays: ``src_lookup`` for the source side and
    ``tgt_lookup`` for the target side (the index's ``A`` for both in a
    self-join; a probe's group order and ``A`` in a probe).
    """
    # ndarray methods, not np.* wrappers: single-point probes call this
    # once per offset on arrays of a few elements.
    row_len = sizes_t.repeat(sizes_s)
    total = int(row_len.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # A running index plus a per-row (per-candidate) base yields each
    # position: base = range start minus where the pair's (row's) run begins.
    src_pos = (starts_s - (sizes_s.cumsum() - sizes_s)).repeat(sizes_s)
    src_pos += np.arange(src_pos.shape[0], dtype=np.int64)
    tgt_pos = (starts_t.repeat(sizes_s)
               - (row_len.cumsum() - row_len)).repeat(row_len)
    tgt_pos += np.arange(total, dtype=np.int64)
    return src_lookup[src_pos].repeat(row_len), tgt_lookup[tgt_pos]
