"""The UNICOMP work-avoidance rule (paper Section V-B, Algorithm 2).

Euclidean distance is symmetric, so every *unordered* pair of adjacent cells
only needs to be evaluated once; both ordered result pairs are then emitted.
The paper selects, per dimension ``k`` with an **odd** cell coordinate, the
neighbor cells that differ in dimension ``k``, range freely over the adjacent
coordinates in dimensions ``< k`` and agree in dimensions ``> k``.

An equivalent formulation (walked by the vectorized kernel and proved in the
tests) is in terms of the cell *offset* ``delta = b - a`` between an adjacent
pair ``(a, b)``:

    let ``k`` be the highest dimension with ``delta_k != 0``;
    cell ``a`` evaluates cell ``b`` iff ``a_k`` is odd.

Exactly one of ``a`` and ``b`` satisfies this (their ``k`` coordinates differ
by one, hence have opposite parity), so every unordered adjacent pair is
covered exactly once.  The home cell (``delta = 0``) is excluded from the rule
and processed normally, which already yields each ordered intra-cell pair
exactly once.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.core.neighbors import adjacent_ranges, mask_filter_ranges


def highest_nonzero_dim(offset: np.ndarray) -> int:
    """Index of the highest dimension with a non-zero offset, or ``-1`` for home."""
    nz = np.flatnonzero(np.asarray(offset) != 0)
    return int(nz[-1]) if nz.size else -1


def unicomp_evaluates(cell_coords: np.ndarray, offset: np.ndarray) -> bool:
    """Does the cell at ``cell_coords`` evaluate its neighbor at ``offset``?

    Implements the offset formulation described in the module docstring.
    ``offset == 0`` (the home cell) returns ``True`` because the home cell is
    always scanned (each ordered intra-cell pair is produced exactly once).
    """
    k = highest_nonzero_dim(offset)
    if k < 0:
        return True
    return bool(np.asarray(cell_coords, dtype=np.int64)[k] % 2 == 1)


def unicomp_candidate_cells(cell_coords: np.ndarray,
                            masks: Sequence[np.ndarray],
                            num_cells: np.ndarray) -> Iterator[np.ndarray]:
    """Per-cell candidate enumeration following Algorithm 2 (generalized to n-D).

    Yields the coordinates of the neighbor cells the source cell must
    evaluate, **excluding** the home cell (which the caller scans separately).
    This is the loop structure of Algorithm 2: for every dimension ``k`` with
    an odd coordinate, iterate dimensions ``< k`` over their filtered adjacent
    ranges, dimension ``k`` over its filtered range excluding the source
    coordinate, and keep dimensions ``> k`` fixed at the source coordinate.
    """
    cell_coords = np.asarray(cell_coords, dtype=np.int64)
    n = cell_coords.shape[0]
    ranges = adjacent_ranges(cell_coords, num_cells)
    filtered = mask_filter_ranges(ranges, masks)
    for k in range(n):
        if cell_coords[k] % 2 != 1:
            continue
        lower_dims: List[np.ndarray] = [filtered[j] for j in range(k)]
        k_values = filtered[k][filtered[k] != cell_coords[k]]
        if k_values.size == 0:
            continue
        # Cartesian product over dims < k, the differing dim k, fixed dims > k.
        def _recurse(j: int, prefix: List[int]) -> Iterator[np.ndarray]:
            if j == k:
                for v in k_values:
                    coords = np.array(prefix + [int(v)] + cell_coords[k + 1:].tolist(),
                                      dtype=np.int64)
                    yield coords
                return
            for v in lower_dims[j]:
                yield from _recurse(j + 1, prefix + [int(v)])

        yield from _recurse(0, [])


def expected_pair_fraction(n_dims: int) -> float:
    """Expected fraction of adjacent-cell evaluations kept by UNICOMP.

    For a cell interior to a dense grid there are ``3^n`` adjacent cells
    (including home).  UNICOMP keeps the home cell plus half of the remaining
    ``3^n - 1`` cells on average, i.e. a fraction ``(1 + (3^n - 1)/2) / 3^n``
    which tends to one half as ``n`` grows — the "factor of ~2" reduction the
    paper cites.
    """
    total = 3 ** n_dims
    return (1.0 + (total - 1) / 2.0) / total
