"""The grid join operators: the self-join and the probe.

The paper's self-join is the special case of a join between two point sets
(Section II), and both run the same bounded 3^n adjacent-cell search
(Algorithm 1).  This module exposes the two operators, each taking a sink
and returning the :class:`KernelStats` work counters, and their exact
costs: :func:`run_selfjoin` (GPUSELFJOINGLOBAL, Algorithm 1, and its
UNICOMP variant, Algorithm 2, over an optional subset of source cells, so
the batching scheme of Section V-A and the shard planner can split it),
:func:`run_probe` (an external query set, over an optional subset of
rows), :func:`selfjoin_cell_costs` (and :func:`selfjoin_plan_costs`, the
same vector for an index that only plans) and :func:`probe_row_costs`.  Both
operators run, on both kernel tiers, through one body
(:func:`_run_operator`), one loop-free walker (:func:`_walk_cell_pairs`)
and one emitter (:func:`_emit_pairs`).
The walker broadcasts source cell coordinates x neighbor offsets in
bounded row groups, filters them by the masks ``M_j`` (read once per walk
into per-dimension admit rows, from a dense table over the dimension
when it is small next to the walk) and finds each
candidate cell in one vectorized step: a dense table of every grid cell's
``B`` position when the grid is small next to the walk and the points,
else a binary search of ``B`` (:func:`_dense_cell_table`).  The emitter
expands the cell pairs into point pairs and filters them by distance in
bounded chunks.  A self-join expands only the cell pairs whose point
boxes may lie within ε (see "Who walks, and when" below).  UNICOMP keeps
only the cell pairs Algorithm 2 selects, and on the NumPy tier emits each
match of a non-home cell pair once, flagged as mirrored: the sink keeps it
compact, the CSR finalize makes the reverse pair inside its one sort, and
every other view expands it right after its match
(:class:`~repro.core.result.PairFragments`).  The visited cell pairs and
results are identical to Algorithm 1; only the loop nesting differs
(data-parallel over cells rather than over points).  A per-cell
transcription of both operators, the oracle the tests compare against,
lives off the query path in :mod:`repro.baselines.cellwise`.

The distance.  Both tiers sum the squared distance one dimension at a
time, in dimension order, ``((d_0² + d_1²) + d_2²) + ...`` with ``d_j =
fl(q_j - c_j)`` (:mod:`repro.core.distance`, whose
:func:`~repro.core.distance.squared_distances` the oracles use), so the
two tiers and the oracles decide every pair alike, ε-boundary pairs
included.  The NumPy emitter reads the index's points column-major, in
``A`` order (:meth:`~repro.core.gridindex.GridIndex.cell_ordered_columns`),
and a probe's query groups the same way, built once per call: per
dimension it gathers one column on each side with 1-D takes, subtracts,
squares and adds.

Reduced dims.  An index over ``k < n`` dims (the JPDC follow-up's layout)
walks 3^k cells per cell but expands more candidates, most of them far
apart in some non-indexed dim.  So on the NumPy tier the emitter's
per-dimension loop takes the non-indexed dims first: it drops a
candidate whose rounded ``d * d`` exceeds ``eps2`` and keeps the
survivors' squares, which the sum reads in their place in the order.
The test is exact: a sum of rounded non-negative squares is, in any
order, fused multiply-adds included, at least each of its terms, so a
dropped candidate is never a hit (``|d| > eps`` would not be the same
test).  Streams, tables and all four :class:`KernelStats` counters are
those of the unfiltered path; ``distance_calcs`` still counts every
expanded candidate.  The numba tier skips the filter.

Who walks, and when.  The cell pairs of a self-join depend only on the
index and the UNICOMP flag, so each :class:`GridIndex` keeps them: one
:class:`CellAdjacency` per flag, stored through
:meth:`GridIndex.cached <repro.core.gridindex.GridIndex.cached>` and
living and dying with the index in whichever cache holds it (the session's
per-ε LRU, a worker's :class:`~repro.parallel.compute.ShardDataset` LRU,
the inline ``sharded`` dataset).  The first self-join on an index walks
every non-empty cell once, even when it asks for one shard's cells, and
stores the walk; that call and every later self-join on the index, for
any cell subset, read their cells back from the store and do not walk.
A cold shard therefore walks the whole index once per process: a one-shot
``multiprocess(2)`` call builds the index and walks it in each of its two
workers.  An index that only plans does not store the walk: the driver
of ``multiprocess`` and ``distributed`` (whose shards emit in other
processes) balances its shards on :func:`selfjoin_plan_costs`, a plain
walk, without boxes or prune, that keeps the cost vector and nothing
else.  An index that emits in this process (``vectorized``, the inline
``sharded`` shards, which share the caller's index, and every worker's)
asks :func:`selfjoin_cell_costs`, which fills the adjacency on the first
cost query, so a one-shot self-join there walks each cell once.  Which
of the two a call site asks is fixed by the backend, not by a setting.
An adjacency past a byte bound derived from the index
(:data:`_ADJACENCY_BYTES_PER_POINT_BYTE`, charged on the walked pairs) is
not kept, and every call walks its own cells as before.  Probes always
walk (their query cells are arbitrary).

A self-join's walk keeps only the cell pairs whose point boxes may lie
within ε (:func:`_near_pairs`).  The walk builds each non-empty cell's
box over all n dims from the cell-ordered columns (so it builds those on
either tier), uses the boxes and drops them, and a pair is dropped when its rounded squared box gap exceeds ``eps2 *
(1 + m)``.  Per dim the gap ``max(fl(lo_t - hi_s), fl(lo_s - hi_t), 0)``
is never above any of its point pairs' ``|fl(q_j - c_j)|`` (rounding is
monotone), and the margin ``m = 2 (2n + 2) u`` (:func:`_box_limit`, ``u``
the float64 unit roundoff) covers the rounding of both sums of squares in
any order, fused multiply-adds included.  So a dropped pair holds no
point pair any route's distance would keep, and a home pair (gap 0) is
never dropped: streams and tables are those of the unpruned walk, on both
kernel tiers and past the byte bound, where each call walks and prunes
its own cells alike.  The walk on a ``k < n`` grid drops most of its pairs
on the dims it does not index; on the benchmark inputs it keeps 46% of
lowdim's UNICOMP pairs and 28% of highdim's.  The counters keep their
meaning: per source cell the walk records the candidate cells it looked
up (``checked``), the non-empty cells it paired (``visited``) and their
candidates (``costs``), all before the prune, and ``cells_checked``,
``nonempty_cells_visited`` and ``distance_calcs`` are summed from these,
so they count Algorithm 1/2's lookups, cell pairs and candidates as an
unpruned walk does.  The work of a self-join is that cost vector:
:func:`selfjoin_cell_costs` gives each source cell's distance
calculations exactly, and it is the one cost the shard planner, the
scheduler, the grid-vs-brute-force selector and the batch planner's
exact result bound use (:func:`selfjoin_plan_costs` gives the same
vector).  The index also keeps its points in ``A`` order, column-major
(:meth:`~repro.core.gridindex.GridIndex.cell_ordered_columns`), from
which the NumPy emitter gathers coordinates and the walk builds its
boxes.  Together these keep at most nine times the bytes of the points
per index (one copy and two adjacencies of four; past the bound, or on
an index that only plans, 8 bytes per non-empty cell and UNICOMP flag
for the cell costs instead), and the batch planner counts what an index
keeps
(:meth:`~repro.core.gridindex.GridIndex.cached_nbytes`).  The walker's
dense cell table is not kept: each walk that takes it builds its own and
drops it, so neither ``memory_footprint()`` nor ``cached_nbytes()``
counts it.  Either lookup leaves ``cells_checked`` counting Algorithm 1's
candidate lookups, the adjacent cells that pass the masks ``M_j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core import nativekernels
from repro.core.gridindex import GridIndex, group_by_cell_id
from repro.core.neighbors import all_neighbor_offsets
from repro.core.result import PairFragments
from repro.utils.cancellation import check_cancelled
from repro.utils.counters import accumulate, snapshot

#: Default bound on the number of candidate point pairs expanded at once by
#: the vectorized kernel.  Bounds peak memory at roughly
#: ``max_candidate_pairs * (2 * 8 + 3 * 8)`` bytes of temporaries (the two
#: positions, the running sum and one dimension's gathers), plus 8 per
#: non-indexed dim on a reduced grid.
DEFAULT_MAX_CANDIDATE_PAIRS = 4_000_000


def merge_schedule_counts(into: Dict[str, int],
                          other: Dict[str, int]) -> Dict[str, int]:
    """Add ``other``'s schedule counters to ``into`` (returned).

    ``cost_ratio_pct`` is not added but derived from the summed
    ``achieved_cost`` over the summed ``predicted_cost``, when both are
    positive.
    """
    for counter, count in other.items():
        if counter != "cost_ratio_pct":
            into[counter] = into.get(counter, 0) + count
    predicted = into.get("predicted_cost", 0)
    achieved = into.get("achieved_cost", 0)
    if predicted > 0 and achieved > 0:
        into["cost_ratio_pct"] = int(round(achieved / predicted * 100))
    return into


def _join_tiers(tier: str, other: str) -> str:
    """Every tier name of either, sorted and joined with ``+``."""
    return "+".join(sorted(set(tier.split("+") + other.split("+")) - {""}))


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
    tier: str = field(default="", metadata={"merge": _join_tiers})
    #: How many numba-tier kernel invocations ran each compiled kernel
    #: (``"dense"``/``"sparse"``); empty on the NumPy tier, which has one
    #: route.  Under sharded execution one invocation is one shard, so this
    #: records the adaptive per-shard selection outcome.
    kernel_counts: Dict[str, int] = field(default_factory=dict)
    #: Scheduling counters stamped by the parallel backends
    #: (:meth:`repro.parallel.scheduler.ScheduleReport.counts`), merged by
    #: :func:`merge_schedule_counts`.  Empty when execution was serial.
    schedule_counts: Dict[str, int] = field(
        default_factory=dict, metadata={"merge": merge_schedule_counts})

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Accumulate another batch's counters into this one (returns self)."""
        accumulate(self, snapshot(other))
        return self


# --------------------------------------------------------------------------
# the two operators
# --------------------------------------------------------------------------
def run_selfjoin(index: GridIndex, eps: float, sink: PairFragments, *,
                 cells: Optional[np.ndarray] = None, unicomp: bool = False,
                 tier: str = "auto",
                 max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
                 ) -> KernelStats:
    """Self-join ``index`` over ``cells`` (``B`` positions; every non-empty
    cell when ``None``) and emit the pairs into ``sink``.

    GLOBAL (Algorithm 1) pairs every source cell with its 3^k adjacent
    cells.  Under ``unicomp`` (Algorithm 2) a source cell scans its home
    cell and, per dimension ``j`` with an odd ``j`` coordinate, the offsets
    whose highest non-zero dimension is ``j``; both ordered pairs stand in
    the stream for each non-home match (on the NumPy tier as one flagged
    entry, see :func:`_emit_pairs`).  The cell pairs come from the index's
    kept adjacency (walked and box-pruned once, :func:`_visit_cell_pairs`)
    and are expanded and distance-filtered in chunks of at most
    ``max_candidate_pairs``.  ``tier`` picks the emitter's kernel tier
    (:func:`_run_operator`).
    """
    if cells is not None:
        cells = np.asarray(cells, dtype=np.int64)
    eps = float(eps)
    eps2 = eps * eps

    def join(native_kernel: Optional[Callable]) -> List[Tuple[int, int, int]]:
        side = _index_side(index, native_kernel)
        work: List[Tuple[int, int, int]] = []

        def emit(src: np.ndarray, tgt: np.ndarray,
                 mirror: Optional[np.ndarray],
                 group_work: Tuple[int, int, int]) -> None:
            _emit_pairs(sink, side, src, side, tgt, eps2, max_candidate_pairs,
                        mirror=mirror, native_kernel=native_kernel)
            work.append(group_work)

        _visit_cell_pairs(index, cells, unicomp, emit)
        return work

    return _run_operator(index, cells, tier, sink, join)


def run_probe(queries: np.ndarray, index: GridIndex, eps: float,
              sink: PairFragments, *, rows: Optional[np.ndarray] = None,
              tier: str = "auto",
              max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
              ) -> KernelStats:
    """Probe ``queries[rows]`` (every row when ``None``) against ``index``
    and emit ``(row, data id)`` pairs into ``sink``, keyed by global row.

    The self-join's search with another point set on the query side: the
    query points are grouped by their cell in the index's grid
    (:func:`_query_groups`), so co-located queries share one walk row, and
    the groups' cells are walked against all 3^k offsets on every call
    (query cells are arbitrary, so nothing is kept).  The emitter gathers
    from the groups' and the index's cell-ordered columns, the groups'
    built once per call.  Correct for ``eps <= index.eps``.  On the numba tier
    the dense/sparse choice reads the index's cell populations (the
    candidate side dominates the expansion work).
    """
    rows = np.arange(queries.shape[0], dtype=np.int64) if rows is None \
        else np.asarray(rows, dtype=np.int64)
    eps = float(eps)
    eps2 = eps * eps

    def join(native_kernel: Optional[Callable]) -> List[Tuple[int, int, int]]:
        if rows.shape[0] == 0:
            return []
        probe_pts = queries[rows]
        order, starts, counts, coords = _query_groups(index, probe_pts)
        side = _index_side(index, native_kernel)
        groups = _JoinSide(probe_pts, order, starts, counts,
                           None if native_kernel is not None
                           else probe_pts.T.take(order, axis=1),
                           side.unindexed)
        return [(int(checked.sum()), int(src.shape[0]),
                 _emit_pairs(sink, groups, src, side, tgt, eps2,
                             max_candidate_pairs, key_map=rows,
                             native_kernel=native_kernel))
                for src, tgt, checked in _walk_cell_pairs(index, coords)]

    return _run_operator(index, None, tier, sink, join)


def probe_row_costs(queries: np.ndarray, index: GridIndex) -> np.ndarray:
    """Each query row's distance calculations in :func:`run_probe`, plus
    one (int64, length ``len(queries)``).

    The rows are grouped by cell as the probe groups them, and one walk of
    the groups' cells sums, per group, the populations of the non-empty
    cells it reaches: every row of the group evaluates that many
    candidates.  The base cost of 1 keeps rows probing empty space
    weighted.
    """
    queries = np.asarray(queries, dtype=np.float64)
    costs = np.ones(queries.shape[0], dtype=np.int64)
    if queries.shape[0] == 0:
        return costs
    order, _, counts, coords = _query_groups(index, queries)
    reach = np.zeros(coords.shape[0], dtype=np.int64)
    for src, tgt, _ in _walk_cell_pairs(index, coords):
        np.add.at(reach, src, index.cell_counts.take(tgt))
    costs[order] += reach.repeat(counts)
    return costs


def _query_groups(index: GridIndex, points: np.ndarray,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``points`` grouped by their cell in the index's grid
    (:func:`repro.core.gridindex.group_by_cell_id`): the rows in group
    order, each group's start and size in that order, and each group's
    cell coordinates, groups ascending by linear cell id."""
    coords = index.cell_coords_of(points)
    order, _, starts, counts = group_by_cell_id(index.coords_to_linear(coords))
    return order, starts, counts, coords[order[starts]]


def _run_operator(index: GridIndex, cells: Optional[np.ndarray], tier: str,
                  sink: PairFragments,
                  join: Callable[[Optional[Callable]],
                                 List[Tuple[int, int, int]]]) -> KernelStats:
    """The body both operators share: resolve the kernel tier, run
    ``join`` on it, and count its work.

    ``tier`` is ``numpy``, ``numba`` or ``auto`` (numba when available).
    ``join`` is called with the emitter's pair kernel: ``None`` on the
    NumPy tier, which has one route; on the numba tier the compiled
    ``dense`` or ``sparse`` kernel that
    :func:`repro.core.nativekernels.choose_selfjoin_kernel` picks from the
    populations of ``cells`` (the whole index when ``None``), counted in
    ``kernel_counts``.  Every route emits the same pair stream.  ``join``
    emits into ``sink`` and returns per walker group its ``(cells_checked,
    nonempty_cells_visited, distance_calcs)``, which are summed here; the
    result pairs are what the sink gained, and the resolved tier is
    stamped on the stats.
    """
    resolved = nativekernels.resolve_kernel_tier(tier)
    stats = KernelStats(tier=resolved)
    native_kernel = None
    if resolved != "numpy":
        choice = nativekernels.choose_selfjoin_kernel(index, cells)
        native_kernel = nativekernels.native_pair_kernels()[choice]
        stats.kernel_counts[choice] = 1
    before = sink.num_pairs
    for checked, visited, distance_calcs in join(native_kernel):
        stats.cells_checked += checked
        stats.nonempty_cells_visited += visited
        stats.distance_calcs += distance_calcs
    stats.result_pairs = sink.num_pairs - before
    return stats


# --------------------------------------------------------------------------
# the cell-pair walker
# --------------------------------------------------------------------------
#: Rows (source cell x offset) one walker group broadcasts and resolves at
#: once.  A group always holds at least one whole source cell.
_WALK_ROWS = 16384


@lru_cache(maxsize=None)
def _neighbor_offsets(n_dims: int) -> Tuple[np.ndarray, np.ndarray]:
    """The 3^n offsets of an n-dim grid and, per offset, its highest
    non-zero dimension.

    The home offset's highest dimension is ``-1``, the convention of
    :func:`repro.core.unicomp.highest_nonzero_dim`.  Both cached arrays are
    read-only.
    """
    offsets = all_neighbor_offsets(n_dims, include_home=True)
    nonzero = offsets != 0
    top = np.where(nonzero.any(axis=1),
                   n_dims - 1 - nonzero[:, ::-1].argmax(axis=1), -1)
    offsets.setflags(write=False)
    top.setflags(write=False)
    return offsets, top


@lru_cache(maxsize=None)
def _parity_offsets(n_dims: int) -> np.ndarray:
    """UNICOMP's selected offsets per parity class of source cell.

    A read-only ``(2^n, 3^n)`` bool table over the offsets of
    :func:`_neighbor_offsets`, in their order.  A source cell's class sets
    bit ``j`` where its ``j`` coordinate is odd, and row ``c`` marks what
    a class-``c`` cell evaluates under Algorithm 2: the home offset and
    every offset whose highest non-zero dimension ``j`` has bit ``j``
    set in ``c``.
    """
    _, top = _neighbor_offsets(n_dims)
    classes = np.arange(2 ** n_dims, dtype=np.int64)[:, None]
    selected = (top < 0) | ((classes >> np.maximum(top, 0)) & 1 == 1)
    selected.setflags(write=False)
    return selected


def _group_cells(index: GridIndex) -> int:
    """Source cells per walker group: ``_WALK_ROWS`` rows of 3^k offsets."""
    return max(1, _WALK_ROWS // 3 ** index.num_grid_dims)


def _position_dtype(n_cells: int) -> np.dtype:
    """The narrowest of int32/int64 holding ``B`` positions of ``n_cells``."""
    return np.dtype(np.int32 if n_cells <= np.iinfo(np.int32).max
                    else np.int64)


def _dense_cell_table(index: GridIndex, n_rows: int) -> Optional[np.ndarray]:
    """Every cell of the full grid to its ``B`` position, ``-1`` where
    empty; ``None`` where the walker should binary-search ``B`` instead.

    The table costs a pass over the whole grid, so a walk of ``n_rows``
    candidate rows takes it only when the grid has no more cells than
    that, and when it is no larger than the indexed points.  It lives for
    one walk and is kept nowhere.
    """
    dtype = _position_dtype(index.num_nonempty_cells)
    total = index.total_cells
    if total > n_rows or total * dtype.itemsize > index.points.nbytes:
        return None
    table = np.full(total, -1, dtype=dtype)
    table[index.B] = np.arange(index.num_nonempty_cells, dtype=dtype)
    return table


def _admit_rows(mask: np.ndarray, extent: int,
                coords: np.ndarray) -> np.ndarray:
    """Whether each of ``coords``, moved by -1, 0 and +1, is in ``mask``
    (a dimension's ``M_j``, within ``[0, extent)``): a ``(3,
    len(coords))`` bool array.

    Read from a dense bool table over the dimension's ``extent`` cells,
    padded by one empty entry at each end that every coordinate outside
    the grid clips to, when the table has no more entries than the moved
    coordinates it answers; otherwise by a binary search of ``mask``.
    Both give the same rows.
    """
    moved = coords + np.arange(-1, 2, dtype=np.int64)[:, None]
    if extent + 2 > moved.size:
        return mask.take(mask.searchsorted(moved), mode="clip") == moved
    present = np.zeros(extent + 2, dtype=bool)
    present[mask + 1] = True
    moved += 1
    return present.take(moved, mode="clip")


def _walk_cell_pairs(index: GridIndex, coords: np.ndarray, unicomp: bool = False,
                     ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Resolve source cells x neighbor offsets against the index's ``B``.

    ``coords`` are ``(m, k)`` source cell coordinates in ``index``'s grid
    of ``k`` indexed dims.  Each source cell is paired with the 3^k
    offsets; under ``unicomp`` only with those Algorithm 2 selects: the
    home cell, and the offsets whose highest non-zero dimension ``j`` has
    an odd ``j`` coordinate in the source cell (one row of
    :func:`_parity_offsets` per parity class).  The rows are broadcast
    source-cell-major in groups of :func:`_group_cells` whole source
    cells, at most ``_WALK_ROWS`` rows unless one cell alone is more.

    Each group is filtered by the per-dimension masks ``M_j``, which also
    keep every candidate inside the grid (Algorithm 1, lines 6-10), read
    once per walk into admit rows (:func:`_admit_rows`).  The
    candidates that pass are Algorithm 1's lookups of ``B`` (line 11) and
    are what ``checked`` counts, however they are then found: in a dense
    table of every grid cell's ``B`` position, built for this call when
    the grid is small enough (:func:`_dense_cell_table`), or else by the
    binary search of :meth:`~repro.core.gridindex.GridIndex.lookup_cells`.
    Both find the same cells.

    Per group this yields ``(src, tgt, checked)``:

    - ``src``: positions into ``coords`` of the pairs' source cells;
    - ``tgt``: indices into ``B`` of the non-empty neighbor cells found;
    - ``checked``: per source cell of the group, in order, the number of
      candidate cells that passed the filter (the groups' arrays
      concatenate to one entry per row of ``coords``).

    Under ``unicomp`` a pair emits both ordered pairs exactly when it is
    not the home pair (its target is not its source cell), so no flag is
    yielded.

    A self-join walks only to fill its index's cached adjacency, or when
    that adjacency is past its byte bound (:func:`_visit_cell_pairs`);
    probes walk on every call.  Because the walk is source-cell-major,
    the pairs of any contiguous subset of the source cells are a
    contiguous run of the whole walk: a shard split at
    a ``B``-order boundary emits, half after half, exactly the unsplit
    shard's pair stream.  A cancellation checkpoint runs before every
    group, so a deadline stops a kernel call between groups.
    """
    n_src = coords.shape[0]
    offsets, _ = _neighbor_offsets(index.num_grid_dims)
    if n_src == 0 or index.num_nonempty_cells == 0:
        return
    # admit[j][d + 1, i]: coordinate j of source cell i, moved by d, is in
    # M_j (which also keeps it inside the grid).  Source cells run along
    # the last axis here and below, so the broadcasts run over whole rows.
    admit = [_admit_rows(mask, int(extent), coords[:, j])
             for j, (mask, extent) in enumerate(zip(index.masks,
                                                    index.num_cells))]
    n_offsets = offsets.shape[0]
    if unicomp:
        selected = _parity_offsets(index.num_grid_dims)
        parity = (coords & 1) @ (1 << np.arange(index.num_grid_dims))
    table = _dense_cell_table(index, n_src * n_offsets)
    B = index.B
    base = index.coords_to_linear(coords)
    shift = index.coords_to_linear(offsets)
    step = _group_cells(index)
    for lo in range(0, n_src, step):
        check_cancelled()
        # An offset passes where every coordinate does: the outer product
        # of the per-dimension admit rows, in the offsets' (row-major) order.
        keep = admit[0][:, lo:lo + step]
        for more in admit[1:]:
            keep = (keep[:, None, :] & more[None, :, lo:lo + step]).reshape(
                -1, keep.shape[1])
        if unicomp:
            # In place: with one dimension ``keep`` is a view of this
            # group's admit rows, which no later group reads.
            keep &= selected.take(parity[lo:lo + step], axis=0).T
        checked = keep.sum(axis=0)
        # Source-cell-major: the rows of each source cell, offsets ascending.
        row = np.flatnonzero(keep.T)
        src = np.arange(lo, lo + checked.shape[0]).repeat(checked)
        offset = row - (src - lo) * n_offsets
        # Every admitted row is a cell inside the grid.  Look it up in the
        # dense table, or else as lookup_cells does, keeping only the hits.
        ids = base.take(src)
        ids += shift.take(offset)
        if table is None:
            pos = B.searchsorted(ids)
            hit = np.flatnonzero(B.take(pos, mode="clip") == ids)
        else:
            pos = table.take(ids)
            hit = np.flatnonzero(pos >= 0)
        yield src.take(hit), pos.take(hit), checked


# --------------------------------------------------------------------------
# the cell-pair adjacency cache
# --------------------------------------------------------------------------
#: Byte bound of a cached adjacency, as a multiple of the bytes of the
#: indexed points: a cache may not outgrow a few copies of the data it
#: indexes.  Past it the adjacency is not kept and each call walks.  The
#: bound is charged on the walked cell pairs, before the prune, so whether
#: an index keeps its adjacency depends on its grid alone.  It is per
#: UNICOMP flag, so an index keeps at most twice this plus its
#: cell-ordered copy of the points.
_ADJACENCY_BYTES_PER_POINT_BYTE = 4


@dataclass(frozen=True)
class CellAdjacency:
    """The kept cell pairs of an index's self-join walk, source-cell-major.

    A CSR over the non-empty cells: the kept pairs of source cell ``h``
    are ``targets[starts[h]:starts[h + 1]]``, ``B`` positions (int32
    below 2^31 cells) in the walker's order, without the pairs the box
    prune drops (:func:`_near_pairs`).  Per source cell the walk also
    records its work before the prune: ``checked[h]``, the candidate
    cells looked up, ``visited[h]``, the non-empty cells paired with it,
    and ``costs[h]``, its distance calculations (read-only; what
    :func:`selfjoin_cell_costs` returns).  The four :class:`KernelStats`
    counters of any cell subset are therefore those of an unpruned,
    uncached walk.  A UNICOMP pair mirrors exactly when it is not the home
    pair (target != source), so the flags are not stored.
    """

    starts: np.ndarray
    targets: np.ndarray
    checked: np.ndarray
    visited: np.ndarray
    costs: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes of the five arrays."""
        return int(self.starts.nbytes + self.targets.nbytes
                   + self.checked.nbytes + self.visited.nbytes
                   + self.costs.nbytes)


def _cell_boxes(index: GridIndex) -> Tuple[np.ndarray, np.ndarray]:
    """Each non-empty cell's point box over all n dims, as two ``(|G|,
    2n)`` rows per cell: ``[lo, -hi]`` for the cell as a target and
    ``[-hi, lo]`` as a source, one 1-D ``reduceat`` per cell-ordered
    column.  Built per walk and kept nowhere."""
    columns = index.cell_ordered_columns()
    n_dims = columns.shape[0]
    as_target = np.empty((index.num_nonempty_cells, 2 * n_dims))
    for j, column in enumerate(columns):
        np.minimum.reduceat(column, index.cell_starts, out=as_target[:, j])
        np.maximum.reduceat(column, index.cell_starts,
                            out=as_target[:, n_dims + j])
    neg_hi = as_target[:, n_dims:]
    np.negative(neg_hi, out=neg_hi)
    return as_target, np.hstack([neg_hi, as_target[:, :n_dims]])


def _box_limit(eps2: float, n_dims: int) -> float:
    """The squared box gap above which a cell pair holds no hit at
    ``eps2``: ``eps2 * (1 + m)`` with ``m = 2 (2n + 2) u``, ``u`` the unit
    roundoff of float64 (see :func:`_near_pairs`)."""
    return eps2 * (1.0 + (2 * n_dims + 2) * float(np.finfo(np.float64).eps))


def _near_pairs(boxes: Tuple[np.ndarray, np.ndarray], src: np.ndarray,
                tgt: np.ndarray, limit: float) -> np.ndarray:
    """Positions of the cell pairs ``(src[i], tgt[i])`` whose point boxes
    may hold a pair within ε, ascending.

    Per dim the box gap is ``g_j = max(a_j, b_j, 0)`` with ``a_j =
    fl(lo_t - hi_s)`` and ``b_j = fl(lo_s - hi_t)``, one row sum of the
    boxes of :func:`_cell_boxes`.  Any ``q`` of cell ``s`` and ``c`` of
    cell ``t`` are at least that far apart exactly, and since rounding is
    monotone the emitter's ``|fl(q_j - c_j)|`` is never below ``g_j``, nor
    its rounded square below ``fl(g_j^2)``.  ``a_j + b_j <= 0`` exactly and
    rounding keeps signs, so at most one of them is positive and ``g_j^2``
    is ``max(a_j, 0)^2 + max(b_j, 0)^2``: the pair's squared gap is one
    sum of ``2n`` non-negative terms, at most ``n`` of them non-zero.  A
    sum of ``n`` non-negative terms rounded in any order, fused
    multiply-adds included, is within a factor ``1 ± γ_n`` (``γ_n ≈ n u``)
    of its exact value, so a pair whose rounded squared gap exceeds
    ``eps2 * (1 + m)`` (:func:`_box_limit`, whose ``m`` is more than the
    ``2 γ_n + u`` that covers both sums and the rounding of the limit) has
    every computed distance above ``eps2`` and is dropped.  A home pair's
    gaps are 0, so it is always kept, and so is a pair whose gaps are NaN.
    """
    as_target, as_source = boxes
    gap = as_target.take(tgt, axis=0)
    gap += as_source.take(src, axis=0)
    np.maximum(gap, 0.0, out=gap)
    return np.flatnonzero(~(np.einsum("ij,ij->i", gap, gap) > limit))


def _walk_near_pairs(index: GridIndex, cells: Optional[np.ndarray],
                     unicomp: bool) -> Iterator[Tuple[
                         np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                         np.ndarray]]:
    """Walk ``cells`` (``B`` positions; every non-empty cell when
    ``None``) with :func:`_walk_cell_pairs` and keep the cell pairs whose
    point boxes may lie within ε (:func:`_near_pairs`).

    Per walker group this yields ``(src, tgt, checked, visited, costs)``:
    the ``B`` positions of the kept pairs' source and target cells, in
    the walk's order, and per source cell of the group the walk's work
    before the prune (candidate cells looked up, non-empty cells paired,
    distance calculations).  The boxes are built once per call and dropped
    with it.  The prune is at the index's ε, which is exact for any
    self-join the index serves (``eps <= index.eps``).
    """
    if (index.num_nonempty_cells if cells is None else cells.shape[0]) == 0:
        return
    boxes = _cell_boxes(index)
    limit = _box_limit(index.eps * index.eps, index.num_dims)
    for src, tgt, checked, visited, costs in _walk_cell_work(
            index, cells, unicomp):
        near = _near_pairs(boxes, src, tgt, limit)
        yield src.take(near), tgt.take(near), checked, visited, costs


def _walk_cell_work(index: GridIndex, cells: Optional[np.ndarray],
                    unicomp: bool) -> Iterator[Tuple[
                        np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                        np.ndarray]]:
    """Walk ``cells`` (``B`` positions; every non-empty cell when
    ``None``) with :func:`_walk_cell_pairs` and count each source cell's
    work.

    Per walker group this yields ``(src, tgt, checked, visited, costs)``:
    the ``B`` positions of every walked pair's source and target cells, in
    the walk's order, and per source cell of the group the candidate cells
    looked up, the non-empty cells paired and the distance calculations.
    A source cell's calculations are its population times the summed
    populations of its targets, one integer ``add.reduceat`` over the
    group: every self-join source cell pairs with its own home cell, so
    each has a run of pairs and no run is empty.
    """
    coords = index.cell_coords if cells is None else index.cell_coords[cells]
    counts = index.cell_counts
    lo = 0
    for src, tgt, checked in _walk_cell_pairs(index, coords, unicomp):
        hi = lo + checked.shape[0]
        visited = np.bincount(src - lo, minlength=hi - lo)
        costs = np.add.reduceat(counts.take(tgt), visited.cumsum() - visited)
        costs *= counts[lo:hi] if cells is None else counts.take(cells[lo:hi])
        if cells is not None:
            src = cells.take(src)
        yield src, tgt, checked, visited, costs
        lo = hi


def _visit_cell_pairs(index: GridIndex, cells: Optional[np.ndarray],
                      unicomp: bool,
                      visit: Callable[[np.ndarray, np.ndarray,
                                       Optional[np.ndarray],
                                       Tuple[int, int, int]], None]) -> None:
    """Pass the kept self-join cell pairs of ``cells`` to ``visit``, in groups.

    ``cells`` are ``B`` positions (all non-empty cells when ``None``).
    Each group is ``visit(src, tgt, mirror, work)``: the ``B`` positions
    of each kept pair's source and target cell, UNICOMP's mirror flags
    (``None`` for GLOBAL), and the walk's work for the group's source
    cells before the prune, ``(checked, visited, distance_calcs)``.  The
    pairs come source-cell-major in the order of ``cells``, exactly as
    :func:`_walk_near_pairs` would keep them, so the emitted stream and
    counters do not depend on whether they were walked or read back, and
    the dropped pairs would have emitted nothing.

    On the index's first self-join (per UNICOMP flag) this walks every
    non-empty cell once, whatever ``cells`` asks for, and stores the kept
    pairs as a :class:`CellAdjacency` (:meth:`GridIndex.cached
    <repro.core.gridindex.GridIndex.cached>`).  Every call, that first one
    included, then reads its cells back in the walker's groups of source
    cells (:func:`_group_cells`), so the emitter gets the groups an
    uncached walk of ``cells`` would give it: a contiguous cell range is
    one slice of the store, any other subset one ragged gather per group.
    Past the byte bound nothing is stored and each call walks and prunes
    its own cells.  A cancellation checkpoint runs before every group
    either way.
    """
    if cells is not None and cells.shape[0] == 0:
        return
    adjacency = _adjacency(index, unicomp)
    if adjacency is None:
        for src, tgt, checked, visited, costs in _walk_near_pairs(
                index, cells, unicomp):
            visit(src, tgt, tgt != src if unicomp else None,
                  (int(checked.sum()), int(visited.sum()), int(costs.sum())))
        return
    if cells is None:
        cells = np.arange(index.num_nonempty_cells, dtype=np.int64)
    first = adjacency.starts.take(cells)
    sizes = adjacency.starts.take(cells + 1) - first
    contiguous = _is_cell_range(cells)
    step = _group_cells(index)
    for lo in range(0, cells.shape[0], step):
        check_cancelled()
        hi = min(lo + step, cells.shape[0])
        group_sizes = sizes[lo:hi]
        if contiguous:
            tgt = adjacency.targets[first[lo]:first[hi - 1] + sizes[hi - 1]]
            group = slice(cells[lo], cells[hi - 1] + 1)
        else:
            tgt = adjacency.targets.take(
                _ragged_positions(first[lo:hi], group_sizes))
            group = cells[lo:hi]
        src = cells[lo:hi].repeat(group_sizes)
        visit(src, tgt, tgt != src if unicomp else None,
              tuple(int(work[group].sum()) for work in (
                  adjacency.checked, adjacency.visited, adjacency.costs)))


def _adjacency(index: GridIndex, unicomp: bool) -> Optional[CellAdjacency]:
    """The index's kept adjacency for ``unicomp``, walked on first use;
    ``None`` past the byte bound."""
    return index.cached(("cell_pairs", unicomp),
                        lambda: _walk_adjacency(index, unicomp))


def _walk_adjacency(index: GridIndex, unicomp: bool) -> Optional[CellAdjacency]:
    """Walk every non-empty cell once and keep the near pairs and the
    per-cell work as a :class:`CellAdjacency`; ``None`` (and the walk
    stops) once the walked pairs pass the byte bound."""
    n_cells = index.num_nonempty_cells
    dtype = _position_dtype(n_cells)
    starts = np.zeros(n_cells + 1, dtype=np.int64)
    checked = np.empty(n_cells, dtype=np.int32)
    visited = np.empty(n_cells, dtype=np.int32)
    costs = np.empty(n_cells, dtype=np.int64)
    budget = _ADJACENCY_BYTES_PER_POINT_BYTE * index.points.nbytes \
        - starts.nbytes - checked.nbytes - visited.nbytes - costs.nbytes
    targets = [np.empty(0, dtype=dtype)]
    lo = 0
    for src, tgt, group_checked, group_visited, group_costs in \
            _walk_near_pairs(index, None, unicomp):
        budget -= int(group_visited.sum()) * dtype.itemsize
        if budget < 0:
            return None
        hi = lo + group_checked.shape[0]
        targets.append(tgt.astype(dtype, copy=False))
        checked[lo:hi] = group_checked
        visited[lo:hi] = group_visited
        costs[lo:hi] = group_costs
        starts[lo + 1:hi + 1] = np.bincount(src - lo, minlength=hi - lo)
        lo = hi
    np.cumsum(starts, out=starts)
    costs.setflags(write=False)
    return CellAdjacency(starts=starts, targets=np.concatenate(targets),
                         checked=checked, visited=visited, costs=costs)


def selfjoin_cell_costs(index: GridIndex, unicomp: bool) -> np.ndarray:
    """Distance calculations of each non-empty cell's self-join (int64,
    length ``|G|``, read-only), on an index that also emits in this
    process.

    Source cell ``h`` evaluates ``cell_counts[h] * cell_counts[t]``
    candidates against each cell ``t`` its walk pairs it with, so its cost
    is ``cell_counts[h]`` times the populations of those cells: the sum
    over any cell subset equals the ``distance_calcs`` of joining that
    subset.  The walk records the vector in the index's adjacency, and
    the first call fills it, so the self-join that follows reads its cell
    pairs back instead of walking again.  Past the byte bound the vector
    comes from :func:`selfjoin_plan_costs`.
    """
    adjacency = _adjacency(index, unicomp)
    if adjacency is not None:
        return adjacency.costs
    return selfjoin_plan_costs(index, unicomp)


def selfjoin_plan_costs(index: GridIndex, unicomp: bool) -> np.ndarray:
    """The vector of :func:`selfjoin_cell_costs`, on an index that only
    plans: the driver of a backend whose shards run in other processes.

    A plain walk, with no boxes and no prune, counts the costs, and the
    index keeps the vector alone (:meth:`GridIndex.cached
    <repro.core.gridindex.GridIndex.cached>`): no cell pairs and no
    cell-ordered copy of the points.
    """
    def build() -> np.ndarray:
        parts = [np.empty(0, dtype=np.int64)]
        parts += [costs for *_, costs in _walk_cell_work(index, None, unicomp)]
        costs = np.concatenate(parts)
        costs.setflags(write=False)
        return costs

    return index.cached(("cell_costs", unicomp), build)


def _is_cell_range(cells: np.ndarray) -> bool:
    """Whether ``cells`` are consecutive ascending ``B`` positions."""
    return bool((np.diff(cells) == 1).all())


def _ragged_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + sizes[i]``, concatenated."""
    # A running index plus a per-range base: the range start minus where
    # the range's run begins.
    pos = (starts - (sizes.cumsum() - sizes)).repeat(sizes)
    pos += np.arange(pos.shape[0], dtype=np.int64)
    return pos


# --------------------------------------------------------------------------
# the expand/filter/emit step
# --------------------------------------------------------------------------
class _JoinSide(NamedTuple):
    """One side of a cell-pair join.

    The side's cell ``h`` holds the positions ``starts[h] .. starts[h] +
    counts[h]``; ``lookup`` maps a position to its point id and
    ``columns`` holds the coordinates by position, column-major
    (``columns[:, p] == points[lookup[p]]``): the index's CSR arrays with
    ``A`` as the lookup and its cell-ordered columns, or a probe's query
    groups with their sort order as the lookup.  The NumPy emitter reads
    ``columns`` and ``lookup``; the compiled pair kernels read ``points``
    and ``lookup``, and get no ``columns`` copy.
    """

    points: np.ndarray
    lookup: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    columns: Optional[np.ndarray]
    #: The point dimensions the grid does not index, which the NumPy
    #: emitter tests first (see :func:`_emit_pairs`).
    unindexed: Tuple[int, ...] = ()


def _index_side(index: GridIndex, native_kernel: Optional[Callable]) -> _JoinSide:
    """The index as a join side, with its cached cell-ordered columns on
    the NumPy tier."""
    return _JoinSide(index.points, index.A, index.cell_starts,
                     index.cell_counts,
                     None if native_kernel is not None
                     else index.cell_ordered_columns(),
                     index.unindexed_dims)


def _emit_pairs(sink: PairFragments, q_side: _JoinSide, q_cells: np.ndarray,
                c_side: _JoinSide, c_cells: np.ndarray, eps2: float,
                max_candidate_pairs: int, *,
                mirror: Optional[np.ndarray] = None,
                key_map: Optional[np.ndarray] = None,
                native_kernel: Optional[Callable] = None) -> int:
    """Expand cell pairs into point pairs, filter by distance, emit into ``sink``.

    The k-th cell pair joins cell ``q_cells[k]`` of the query side with cell
    ``c_cells[k]`` of the candidate side, in chunks whose expansion stays
    within ``max_candidate_pairs``.  Returns the number of distance
    evaluations.  Matches are emitted cell pair by cell pair, query point by
    query point; where ``mirror[k]`` is set (UNICOMP's non-home pairs) each
    match stands for itself followed by its reverse.  The NumPy tier emits
    such matches once, as ``(q_sel, c_sel, twice)`` with ``twice`` the
    per-match mirror flag, and the sink keeps them compact
    (:class:`~repro.core.result.PairFragments`); the compiled kernels write
    the reverse right after its match and emit unflagged pairs.  Either
    way the expanded stream is the same and does not depend on the
    chunking.  ``key_map`` maps emitted keys (a probe's local rows to
    global rows; probes carry no mirror flags).

    The cell pairs come from a self-join's box-pruned adjacency
    (:func:`_visit_cell_pairs`) or a probe's walk; this step runs on
    every call, and its return counts only the pairs it is given.  On the
    NumPy tier the candidates are positions into both sides, and the
    squared distance is built one dimension at a time: the dimension's
    column is gathered on both sides with 1-D takes, subtracted, squared
    and added to the running sum in dimension order, the order of
    :func:`repro.core.distance.squared_distances` and of the compiled
    kernels, so both tiers decide every pair alike.  Only the matches are
    mapped to point ids through the lookups.  With ``native_kernel`` the
    expand/filter step runs as a compiled pair kernel on the sides' points
    and lookups, writing into preallocated buffers.

    On a grid over ``k < n`` dims the sides' non-indexed dims come first:
    each one's squares drop the candidates whose square alone exceeds
    ``eps2`` and are kept, compacted, for the sum, which then reads them
    in their place in the order.  The test is exact: the sum is never
    below one of its rounded squares (:mod:`repro.core.distance`).  The
    mirror flags follow the survivors to their candidate slots, so the
    stream is unchanged, and the returned count, ``distance_calcs``, is
    still every expanded candidate.
    """
    # Gather the CSR ranges of the cell pairs once; the chunk loop slices
    # these instead of re-indexing starts/counts for every chunk.
    sizes_q = q_side.counts.take(q_cells)
    sizes_c = c_side.counts.take(c_cells)
    starts_q = q_side.starts.take(q_cells)
    starts_c = c_side.starts.take(c_cells)
    pair_counts = sizes_q * sizes_c
    n_dist = 0
    for lo, hi in _chunk_boundaries(pair_counts, max_candidate_pairs):
        chunk_total = int(pair_counts[lo:hi].sum())
        if chunk_total == 0:
            continue
        n_dist += chunk_total
        chunk = (starts_q[lo:hi], sizes_q[lo:hi], starts_c[lo:hi], sizes_c[lo:hi])
        if native_kernel is not None:
            twice = np.zeros(hi - lo, dtype=bool) if mirror is None else mirror[lo:hi]
            capacity = chunk_total + int(pair_counts[lo:hi][twice].sum())
            keys = np.empty(capacity, dtype=np.int64)
            values = np.empty(capacity, dtype=np.int64)
            n = native_kernel(q_side.points, c_side.points, q_side.lookup,
                              c_side.lookup, *chunk, eps2, keys, values, twice)
            # Copy off the oversized buffers so the sink holds right-sized
            # fragments, not views pinning full-capacity allocations.
            sink.emit(keys[:n].copy() if key_map is None else key_map[keys[:n]],
                      values[:n].copy())
            continue
        q_pos, c_pos = _expand_cell_pairs(*chunk)
        hit = _near_candidates(q_side, q_pos, c_side, c_pos, eps2)
        q_sel = q_side.lookup.take(q_pos.take(hit))
        c_sel = c_side.lookup.take(c_pos.take(hit))
        if mirror is None:
            sink.emit(q_sel if key_map is None else key_map.take(q_sel), c_sel)
            continue
        # Each match keeps its cell pair's mirror flag: the sink stands a
        # flagged match for itself and then its reverse.
        sink.emit(q_sel, c_sel,
                  mirror[lo:hi].repeat(pair_counts[lo:hi]).take(hit))
    return n_dist


def _near_candidates(q_side: _JoinSide, q_pos: np.ndarray, c_side: _JoinSide,
                     c_pos: np.ndarray, eps2: float) -> np.ndarray:
    """The slots ``i``, ascending, of the candidates ``(q_pos[i],
    c_pos[i])`` (positions into the sides' columns) whose squared distance
    is at most ``eps2``: the NumPy emitter's distance filter.

    The non-indexed dims go first; each keeps the candidates whose square
    alone is within ``eps2`` and their squares, compacted.  The sum then
    runs in dimension order over the survivors, reading a kept square in
    its place and gathering every other dimension's.
    """
    slot = None
    kept = {}
    for j in q_side.unindexed:
        # A far coordinate squares (or subtracts) past the float range to
        # inf, which fails ``<= eps2`` and drops the candidate as it
        # should; only the overflow warning is silenced.
        with np.errstate(over="ignore"):
            square = _squared_differences(q_side, q_pos, c_side, c_pos, j)
        near = np.flatnonzero(square <= eps2)
        q_pos = q_pos.take(near)
        c_pos = c_pos.take(near)
        slot = near if slot is None else slot.take(near)
        kept = {i: kept_square.take(near) for i, kept_square in kept.items()}
        kept[j] = square.take(near)
    total = None
    for j in range(q_side.columns.shape[0]):
        square = kept.pop(j, None)
        if square is None:
            square = _squared_differences(q_side, q_pos, c_side, c_pos, j)
        if total is None:
            total = square
        else:
            total += square
    hit = np.flatnonzero(total <= eps2)
    return hit if slot is None else slot.take(hit)


def _squared_differences(q_side: _JoinSide, q_pos: np.ndarray,
                         c_side: _JoinSide, c_pos: np.ndarray,
                         j: int) -> np.ndarray:
    """``(q_j - c_j)²`` of each candidate, from the sides' column ``j``."""
    square = q_side.columns[j].take(q_pos)
    square -= c_side.columns[j].take(c_pos)
    square *= square
    return square


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


def _expand_cell_pairs(starts_s: np.ndarray, sizes_s: np.ndarray,
                       starts_t: np.ndarray, sizes_t: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Expand (source cell, target cell) pairs into all candidate point pairs.

    Takes the cell pairs' already-gathered CSR ranges (the caller hoists the
    ``cell_counts``/``cell_starts`` gathers out of its chunk loop).  The
    k-th cell pair, with ``s_k`` source and ``t_k`` target points, yields
    its ``s_k * t_k`` candidates source-row-major, in two ragged steps: the
    pair becomes ``s_k`` source rows (arrays of row length), and each row
    becomes ``t_k`` candidates, one ``np.repeat`` of its source position
    and a running position in the target cell's range.  Returns positions
    into the two sides' CSR order (see :class:`_JoinSide`), not point ids.
    """
    # ndarray methods, not np.* wrappers: single-point probes call this on
    # arrays of a few elements.
    row_len = sizes_t.repeat(sizes_s)
    if int(row_len.sum()) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    src_pos = _ragged_positions(starts_s, sizes_s)
    tgt_pos = _ragged_positions(starts_t.repeat(sizes_s), row_len)
    return src_pos.repeat(row_len), tgt_pos
