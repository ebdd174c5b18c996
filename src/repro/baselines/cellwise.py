"""Per-cell grid self-join and probe: the readable oracle of the grid kernels.

The paper's Algorithms 1 and 2 one cell at a time: each cell's candidate
cells come from the scalar walk of :mod:`repro.core.neighbors` (adjacent
ranges, masks ``M_j``, binary search of ``B``), or under UNICOMP from
:func:`repro.core.unicomp.unicomp_candidate_cells`, and its distances to
their points are one NumPy block.  The production operators
(:func:`repro.core.kernels.run_selfjoin`, :func:`~repro.core.kernels.run_probe`)
visit the same cell pairs in another loop nesting.  Both functions here
have their shape (a sink goes in, :class:`~repro.core.kernels.KernelStats`
comes out), so on the same index they fill a sink with the same pairs and
count the same four counters.  Slow, and kept off the query path: tests
compare against it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.distance import squared_distances
from repro.core.gridindex import GridIndex
from repro.core.kernels import KernelStats
from repro.core.neighbors import adjacent_cells
from repro.core.result import PairFragments
from repro.core.unicomp import unicomp_candidate_cells


def selfjoin_cellwise(index: GridIndex, sink: PairFragments, *,
                      unicomp: bool = False) -> KernelStats:
    """Self-join ``index`` one non-empty cell at a time, into ``sink``.

    Each cell is joined with its adjacent non-empty cells (Algorithm 1).
    Under ``unicomp`` it is joined with its home cell, which yields each
    ordered intra-cell pair once, and with the neighbor cells Algorithm 2
    selects, whose matches are emitted in both orders: the pairs are
    Algorithm 1's.  Distances are compared with the index's cell length.
    """
    eps = index.eps
    stats = KernelStats()
    before = sink.num_pairs
    for h in range(index.num_nonempty_cells):
        members = index.points_in_cell(h)
        coords = index.cell_coords[h]
        queries = index.points[members]
        if unicomp:
            _join(index, members, queries, (1, [h]), eps, stats, sink)
            _join(index, members, queries, _unicomp_cells(index, coords),
                  eps, stats, sink, mirror=True)
        else:
            _join(index, members, queries, adjacent_cells(index, coords),
                  eps, stats, sink)
    stats.result_pairs = sink.num_pairs - before
    return stats


def probe_cellwise(queries: np.ndarray, index: GridIndex,
                   sink: PairFragments) -> KernelStats:
    """Probe every row of ``queries`` against ``index`` into ``sink``; keys
    are rows.

    The queries are grouped by their cell in the index's grid, and each
    group is joined with the non-empty cells adjacent to it, as the
    production probe groups them.
    """
    queries = np.asarray(queries, dtype=np.float64)
    eps = index.eps
    stats = KernelStats()
    before = sink.num_pairs
    coords = index.cell_coords_of(queries)
    _, first, group = np.unique(index.coords_to_linear(coords),
                                return_index=True, return_inverse=True)
    for g, row in enumerate(first):
        rows = np.flatnonzero(group == g)
        _join(index, rows, queries[rows], adjacent_cells(index, coords[row]),
              eps, stats, sink)
    stats.result_pairs = sink.num_pairs - before
    return stats


def _unicomp_cells(index: GridIndex, coords: np.ndarray) -> Tuple[int, List[int]]:
    """Algorithm 2's neighbor cells of the cell at ``coords``, home
    excluded, as ``(checked, found)`` like
    :func:`~repro.core.neighbors.adjacent_cells`."""
    candidates = list(unicomp_candidate_cells(coords, index.masks,
                                              index.num_cells))
    found = [index.lookup_cell(int(index.coords_to_linear(cand)))
             for cand in candidates]
    return len(candidates), [h for h in found if h >= 0]


def _join(index: GridIndex, keys: np.ndarray, queries: np.ndarray,
          cells: Tuple[int, List[int]], eps: float, stats: KernelStats,
          sink: PairFragments, *, mirror: bool = False) -> None:
    """Emit ``(keys[i], id)`` for each point ``id`` of the ``found`` cells
    of ``cells = (checked, found)`` within ε of ``queries[i]`` (and the
    reverse pair too under ``mirror``), counting the work in ``stats``.

    The differences are ``query - candidate`` and their squares are summed
    in dimension order (:func:`repro.core.distance.squared_distances`), as
    both production kernel tiers sum them, so ε-boundary pairs agree.
    """
    checked, found = cells
    stats.cells_checked += checked
    stats.nonempty_cells_visited += len(found)
    if not found:
        return
    candidates = np.concatenate([index.points_in_cell(h) for h in found])
    dist2 = squared_distances(queries[:, None, :],
                              index.points[candidates][None, :, :])
    stats.distance_calcs += int(dist2.size)
    rows, cols = np.nonzero(dist2 <= eps * eps)
    sink.emit(keys[rows], candidates[cols])
    if mirror:
        sink.emit(candidates[cols], keys[rows])
