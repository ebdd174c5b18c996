"""The squared Euclidean distance, summed in one documented order.

Every path that decides whether two points lie within ε compares a squared
distance with ``eps2 = eps * eps``, and a pair one ulp from the boundary is
decided by how that sum was rounded.  So all of them sum the same rounded
terms in the same order: ``d_j = fl(q_j - c_j)`` (query minus candidate),
squared and rounded, then added in dimension order,
``((d_0² + d_1²) + d_2²) + ...``, with no fused multiply-add.  That is the
numba pair kernels' loop (:mod:`repro.core.nativekernels`), the NumPy
emitter's per-dimension loop (:func:`repro.core.kernels._emit_pairs`) and
:func:`squared_distances` below, which the brute-force and per-cell oracles
(:mod:`repro.baselines.bruteforce`, :mod:`repro.baselines.cellwise`), the
dense-grid and EGO joins, the GPU simulator's kernels
(:mod:`repro.core.simkernels`) and the kNN executor's exactness check use.
The R-tree baseline (:mod:`repro.baselines.rtree`) is the one exception:
it compares ``np.linalg.norm`` distances with ε itself, a different test
at the boundary.  ``einsum`` is not used for this: its
reduction order depends on the operands' memory layout (on one host a
contiguous 3-D row sums as ``(d_0² + d_2²) + d_1²`` and a strided one in
plain order), so it cannot agree with the kernels bit for bit.

Two facts about this sum carry the kernels' exact shortcuts.  It is never
below any of its rounded terms or partial sums (adding a non-negative float
never rounds below the larger operand), so a candidate one of whose squares
already exceeds ``eps2`` is never a hit.  And, like any order of the same
sum, it is within a factor ``1 ± γ_n`` (``γ_n ≈ n u``, ``u`` the unit
roundoff) of the exact sum of the ``d_j²``, which bounds how far two
differently rounded distances of one pair can disagree.
"""

from __future__ import annotations

import numpy as np


def squared_distances(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``sum_j (queries[..., j] - candidates[..., j])²``, summed in dimension
    order (see the module docstring).

    The operands broadcast over all axes but the last, which holds the
    dimensions: ``(m, n)`` against ``(m, n)`` gives ``m`` distances, and
    ``block[:, None, :]`` against ``data[None, :, :]`` gives the ``(m, |D|)``
    all-pairs block.  One dimension's ``(m, |D|)`` slice is live at a time
    next to the running sum.
    """
    total = None
    for j in range(queries.shape[-1]):
        square = queries[..., j] - candidates[..., j]
        square *= square
        if total is None:
            total = square
        else:
            total += square
    return total
