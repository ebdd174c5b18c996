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

Two compiled kernels cover two cell-population regimes:

``dense``
    Tiled all-pairs: the target cell's points are gathered into a small
    contiguous tile that stays cache-resident while every source point is
    streamed against it.  Meant for cells that hold many points (low
    dimensionality / large ε), where the paper's GPU kernel is
    compute-bound.
``sparse``
    Gather/scatter: a plain row-indirected nested loop per cell pair with
    no tiling setup.  Meant for cells that hold few points (high
    dimensionality / small ε), where per-pair overhead dominates.

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

Adaptive selection, numba tier only: :func:`choose_selfjoin_kernel` picks
``dense`` vs ``sparse`` from the *exact* per-cell populations of the cell
subset at hand.  Because the parallel backends call the vectorized
backend once per shard, the choice is naturally per-shard — a shard over a
dense cluster runs the tiled kernel while a shard over sparse space runs
the gather kernel, and :class:`~repro.core.kernels.KernelStats.kernel_counts`
records how many shards each kernel served.  The NumPy tier has one route
(the walker and emitter of :mod:`repro.core.kernels`) and records no
kernel counts.  A backend's ``kernel=`` spec names a tier only
(:func:`parse_kernel_spec`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

#: Registered kernel tiers.  ``numpy`` is always available; ``numba`` is
#: resolved lazily (see :func:`kernel_tier_availability`).
KERNEL_TIER_NAMES = ("numpy", "numba")

#: Mean points-per-cell at or above which the numba tier runs a cell subset
#: through the tiled ``dense`` kernel instead of the ``sparse`` gather
#: kernel: the crossover where a target cell spans enough tile rows to pay
#: for staging the tile.  It is the numba tile's crossover and is unmeasured
#: on hosts without numba; the NumPy tier has one route and no split.
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


def parse_kernel_spec(spec: str) -> str:
    """The kernel tier a backend's ``kernel=`` spec names.

    The spec is a tier: ``"auto"`` (the default, resolved at run time by
    :func:`resolve_kernel_tier`), ``"numpy"`` or ``"numba"``, as in
    ``"sharded(4, kernel=numba)"``.  Anything else raises ``ValueError``;
    the numba tier picks its compiled kernel itself
    (:func:`choose_selfjoin_kernel`).
    """
    tier = str(spec).strip()
    if tier != "auto" and tier not in KERNEL_TIER_NAMES:
        raise ValueError(
            f"unknown kernel spec {spec!r}; kernel= takes a tier: 'auto' or "
            f"one of {KERNEL_TIER_NAMES}")
    return tier


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
# dimension by dimension in float64, ((d_0² + d_1²) + d_2²) + ..., the
# order of the NumPy tier's per-dimension loop and of the oracles
# (repro.core.distance), so the ε-boundary decision is bit-identical across
# tiers.  The kernels are compiled without fastmath, so the compiler keeps
# that order; tests/test_native_kernels.py's TestBoundaryParity checks the
# compiled tier against the NumPy tier at exact-ε inputs where numba is
# installed.

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
def choose_selfjoin_kernel(index, cells: Optional[np.ndarray]) -> str:
    """Pick the numba tier's ``dense`` or ``sparse`` kernel for a cell subset.

    The decision reads the *exact* per-cell counts of the subset (O(|cells|),
    no sampling): the tiled kernel is chosen once cells average
    :data:`DENSE_POINTS_PER_CELL_THRESHOLD` points.
    """
    counts = index.cell_counts if cells is None \
        else index.cell_counts[np.asarray(cells, dtype=np.int64)]
    return "dense" if counts.size and \
        float(counts.mean()) >= DENSE_POINTS_PER_CELL_THRESHOLD else "sparse"
