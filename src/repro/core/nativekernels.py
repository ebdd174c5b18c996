"""Native-speed kernel tier: Numba JIT pair kernels with adaptive selection.

The hot loop of every backend is the same operation: expand (source cell,
target cell) pairs resolved against the :class:`~repro.core.gridindex.
GridIndex` CSR arrays into candidate point pairs, evaluate the Euclidean
distances, and emit the pairs within ε.  The NumPy tier does this with
ragged ``np.repeat`` expansion and one vectorized distance expression per
chunk; this module provides the *native* tier — ``@njit(cache=True)``
kernels that run the same walk as compiled machine code, emitting directly
into preallocated int64 pair buffers compatible with
:class:`~repro.core.result.PairFragments`.

Two kernels cover the two cell-population regimes the ablation reports
(``benchmarks/reports/ablation_kernels.txt``, ``ablation_densegrid.txt``)
distinguish:

``dense``
    Tiled all-pairs: the target cell's points are gathered into a small
    contiguous tile that stays cache-resident while every source point is
    streamed against it.  Wins when cells hold many points (low
    dimensionality / large ε), where the paper's GPU kernel is
    compute-bound.
``sparse``
    Gather/scatter: a plain row-indirected nested loop per cell pair with
    no tiling setup.  Wins when cells hold few points (high dimensionality
    / small ε), where per-pair overhead dominates.

Both exist in GLOBAL and UNICOMP use (per-cell-pair ``mirror`` flags emit
both ordered pairs for UNICOMP's non-home cell pairs) and serve the
self-join *and* the bipartite probe: the query side and the candidate side
each come with their own point array and row-indirection map, so
``(points, A)`` twice is a self-join and ``(probe_pts, group_order)``
against ``(points, A)`` is a probe.

Tier resolution mirrors :func:`repro.engine.backends.backend_availability`:
the ``numba`` tier is *registered* everywhere but only *available* where
numba imports; ``resolve_kernel_tier("auto")`` silently falls back to the
always-available pure-NumPy tier, while an explicit ``"numba"`` request
raises :class:`KernelTierUnavailableError` with the reason.  The kernel
bodies are written in the nopython subset and are usable uncompiled, so the
parity suite exercises their logic even on hosts without numba.

Adaptive selection: :func:`choose_selfjoin_kernel` picks ``dense`` vs
``sparse`` from the *exact* per-cell populations of the cell subset at
hand.  Because the sharded/multiprocess backends call the inner backend
once per shard, the choice is naturally per-shard — a shard over a dense
cluster runs the tiled kernel while a shard over sparse space runs the
gather kernel, and :class:`~repro.core.kernels.KernelStats.kernel_counts`
records how many shards each kernel served.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Registered kernel tiers.  ``numpy`` is always available; ``numba`` is
#: resolved lazily (see :func:`kernel_tier_availability`).
KERNEL_TIER_NAMES = ("numpy", "numba")

#: Kernel regimes the adaptive selector chooses between.
KERNEL_CHOICES = ("dense", "sparse")

#: Mean points-per-cell at or above which a cell subset is considered
#: *dense* and routed to the tiled all-pairs kernel.  Calibrated from the
#: kernel-regime ablation (``benchmarks/reports/kernel_tier.txt`` and
#: ``ablation_kernels.txt``): on the NumPy tier the per-cell kernel ties
#: the offset-major expansion near ~17 points/cell and wins ~1.7x by ~50;
#: on the native tier the tile pays for itself once a target cell spans a
#: few tile rows.  16 is the measured crossover — below it the sparse
#: regime always wins, above it the dense regime never loses.
DENSE_POINTS_PER_CELL_THRESHOLD = 16.0

#: Rows of the dense kernel's target tile.  64 points x 6 dims x 8 bytes =
#: 3 KiB — comfortably L1-resident next to the source point.
DENSE_TILE_ROWS = 64

#: Test hook: set to a reason string to make :func:`numba_availability`
#: report the numba tier as unavailable regardless of the import result
#: (the forced-fallback tests monkeypatch this).
_FORCED_UNAVAILABLE: Optional[str] = None

_UNCHECKED = "\0unchecked"
_availability: Optional[str] = _UNCHECKED
_compiled: Optional[Dict[str, Callable]] = None
_warmed = False


class KernelTierUnavailableError(RuntimeError):
    """An explicitly requested kernel tier cannot run here (missing numba)."""


def numba_availability() -> Optional[str]:
    """``None`` when the numba tier can run, else a human-readable reason.

    The import is attempted once and cached, so callers (tier resolution,
    availability listings, reports) can probe freely.
    """
    global _availability
    if _FORCED_UNAVAILABLE is not None:
        return _FORCED_UNAVAILABLE
    if _availability == _UNCHECKED:
        try:
            import numba  # noqa: F401
        except Exception as exc:  # pragma: no cover - depends on host env
            _availability = (
                "kernel tier 'numba' is unavailable (requires numba): "
                f"{exc}; the pure-NumPy tier is used instead")
        else:
            _availability = None
    return _availability


def numba_version() -> Optional[str]:
    """Installed numba version string, or ``None`` when unavailable."""
    if numba_availability() is not None:
        return None
    import numba

    return str(numba.__version__)


def kernel_tier_availability() -> Dict[str, Optional[str]]:
    """Availability of every registered kernel tier.

    Mirrors :func:`repro.engine.backends.backend_availability`: each tier
    maps to ``None`` when usable or to the reason it is not.  ``numpy`` is
    never unavailable — it is the guaranteed fallback.
    """
    return {"numpy": None, "numba": numba_availability()}


def resolve_kernel_tier(tier: str = "auto") -> str:
    """Resolve a requested tier to the one that will actually run.

    ``"auto"`` prefers ``numba`` and silently falls back to ``numpy``
    (the availability reason stays queryable via
    :func:`kernel_tier_availability`); an explicit ``"numba"`` request on a
    host without numba raises :class:`KernelTierUnavailableError` instead
    of silently degrading.
    """
    if tier == "auto":
        return "numpy" if numba_availability() is not None else "numba"
    if tier == "numpy":
        return "numpy"
    if tier == "numba":
        reason = numba_availability()
        if reason is not None:
            raise KernelTierUnavailableError(reason)
        return "numba"
    raise ValueError(
        f"unknown kernel tier {tier!r}; expected 'auto' or one of "
        f"{KERNEL_TIER_NAMES}")


def parse_kernel_spec(spec: str) -> Tuple[str, str]:
    """Split a backend kernel spec into ``(tier, choice)``.

    Accepted forms: a tier (``"numba"``), a kernel choice (``"dense"``), or
    ``"<tier>/<choice>"`` (``"numba/sparse"``); ``"auto"`` — the default —
    leaves both to be resolved at run time.  This is the value of the
    ``kernel=`` knob in backend specs such as ``"sharded(4, kernel=numba)"``.
    """
    tier, choice = "auto", "auto"
    for part in str(spec).split("/"):
        part = part.strip()
        if part in ("", "auto"):
            continue
        if part in KERNEL_TIER_NAMES:
            tier = part
        elif part in KERNEL_CHOICES:
            choice = part
        else:
            raise ValueError(
                f"unknown kernel spec token {part!r} in {spec!r}; expected a "
                f"tier {KERNEL_TIER_NAMES}, a kernel {KERNEL_CHOICES}, "
                "'auto', or '<tier>/<kernel>'")
    return tier, choice


# --------------------------------------------------------------------------
# kernel bodies (nopython subset; compiled lazily when numba is available)
# --------------------------------------------------------------------------
# Shared signature, serving self-joins and probes alike:
#   q_points, c_points : (n, d) float64 point arrays of the two sides
#   map_q, map_c       : row-indirection into the point arrays (A for the
#                        index side; the group order array for probe rows)
#   starts_*, counts_* : CSR ranges of the k-th cell pair into map_*
#   eps2               : squared search distance
#   keys, values       : preallocated int64 output buffers
#   mirror             : per cell pair, emit both ordered pairs per match
#                        (UNICOMP non-home cell pairs)
# Returns the number of buffer slots written.  The distance accumulates
# dimension-by-dimension in float64, the same order as the NumPy tier's
# einsum contraction, so the ε-boundary decision is bit-identical.

def _pairs_sparse_impl(q_points, c_points, map_q, map_c,
                       starts_q, counts_q, starts_c, counts_c,
                       eps2, keys, values, mirror):
    """Gather/scatter kernel: plain indirected nested loop per cell pair."""
    pos = 0
    n_dims = q_points.shape[1]
    for k in range(starts_q.shape[0]):
        qs = starts_q[k]
        qn = counts_q[k]
        cs = starts_c[k]
        cn = counts_c[k]
        for i in range(qn):
            qi = map_q[qs + i]
            for j in range(cn):
                cj = map_c[cs + j]
                d2 = 0.0
                for d in range(n_dims):
                    diff = q_points[qi, d] - c_points[cj, d]
                    d2 += diff * diff
                if d2 <= eps2:
                    keys[pos] = qi
                    values[pos] = cj
                    pos += 1
                    if mirror[k]:
                        keys[pos] = cj
                        values[pos] = qi
                        pos += 1
    return pos


def _pairs_dense_impl(q_points, c_points, map_q, map_c,
                      starts_q, counts_q, starts_c, counts_c,
                      eps2, keys, values, mirror):
    """Tiled all-pairs kernel: target points staged into a contiguous tile."""
    pos = 0
    n_dims = q_points.shape[1]
    tile_pts = np.empty((DENSE_TILE_ROWS, n_dims), dtype=np.float64)
    tile_ids = np.empty(DENSE_TILE_ROWS, dtype=np.int64)
    for k in range(starts_q.shape[0]):
        qs = starts_q[k]
        qn = counts_q[k]
        cs = starts_c[k]
        cn = counts_c[k]
        j0 = 0
        while j0 < cn:
            m = cn - j0
            if m > DENSE_TILE_ROWS:
                m = DENSE_TILE_ROWS
            for j in range(m):
                cj = map_c[cs + j0 + j]
                tile_ids[j] = cj
                for d in range(n_dims):
                    tile_pts[j, d] = c_points[cj, d]
            for i in range(qn):
                qi = map_q[qs + i]
                for j in range(m):
                    d2 = 0.0
                    for d in range(n_dims):
                        diff = q_points[qi, d] - tile_pts[j, d]
                        d2 += diff * diff
                    if d2 <= eps2:
                        keys[pos] = qi
                        values[pos] = tile_ids[j]
                        pos += 1
                        if mirror[k]:
                            keys[pos] = tile_ids[j]
                            values[pos] = qi
                            pos += 1
            j0 += DENSE_TILE_ROWS
    return pos


def native_pair_kernels() -> Dict[str, Callable]:
    """The ``dense``/``sparse`` pair kernels, compiled when numba is present.

    On hosts without numba the *uncompiled* Python bodies are returned —
    far too slow for production (tier resolution never routes here without
    numba) but exactly what the parity tests need to verify the kernel
    logic everywhere.
    """
    global _compiled
    if _compiled is None:
        if numba_availability() is None:
            from numba import njit

            jit = njit(cache=True, nogil=True)
            _compiled = {"dense": jit(_pairs_dense_impl),
                         "sparse": jit(_pairs_sparse_impl)}
        else:
            _compiled = {"dense": _pairs_dense_impl,
                         "sparse": _pairs_sparse_impl}
    return _compiled


def warm_jit_cache() -> bool:
    """Compile (or cache-load) both kernels once; no-op without numba.

    Called from :meth:`repro.engine.session.EngineSession.open` so the JIT
    cost is paid at attach time, not inside the first timed query.
    ``cache=True`` persists the compiled artifacts next to this module, so
    later processes (multiprocess pool workers included) load from disk
    instead of recompiling.  Returns whether a warmup actually ran.
    """
    global _warmed
    if _warmed or numba_availability() is not None:
        return False
    pts = np.zeros((2, 2), dtype=np.float64)
    rows = np.arange(2, dtype=np.int64)
    starts = np.zeros(1, dtype=np.int64)
    counts = np.full(1, 2, dtype=np.int64)
    keys = np.empty(8, dtype=np.int64)
    values = np.empty(8, dtype=np.int64)
    mirror = np.ones(1, dtype=bool)
    for kernel in native_pair_kernels().values():
        kernel(pts, pts, rows, rows, starts, counts, starts, counts,
               1.0, keys, values, mirror)
    _warmed = True
    return True


# --------------------------------------------------------------------------
# adaptive kernel selection
# --------------------------------------------------------------------------
def choose_selfjoin_kernel(index, cells: Optional[np.ndarray],
                           max_candidate_pairs: int) -> str:
    """Pick ``dense`` or ``sparse`` for a cell subset from its populations.

    The decision reads the *exact* per-cell counts of the subset (O(|cells|),
    no sampling): the tiled/per-cell regime wins once cells average
    :data:`DENSE_POINTS_PER_CELL_THRESHOLD` points.  A memory guard keeps
    the dense regime off subsets whose largest cell would expand a
    candidate block beyond ``max_candidate_pairs`` (the NumPy dense kernel
    materializes one cell's full candidate matrix at a time).
    """
    counts = index.cell_counts if cells is None \
        else index.cell_counts[np.asarray(cells, dtype=np.int64)]
    if counts.size == 0:
        return "sparse"
    if float(counts.mean()) < DENSE_POINTS_PER_CELL_THRESHOLD:
        return "sparse"
    max_count = int(counts.max())
    if max_count * max_count * 3 ** index.num_grid_dims > max_candidate_pairs:
        return "sparse"
    return "dense"
