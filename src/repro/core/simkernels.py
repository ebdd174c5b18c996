"""Per-thread device kernels for the instrumented simulator path.

These functions are the closest Python analogue of the CUDA kernels in the
paper: one *thread per point* (Algorithm 1), global loads for every access to
the point data ``D``, the lookup array ``A``, the cell array ``G`` and each
binary-search probe of ``B``, and an atomic append for every result pair.

They execute on the :class:`repro.gpusim.kernel.KernelLaunch` device model,
which accounts for warp divergence, unified-cache behaviour and theoretical
occupancy.  Because each thread is interpreted Python, this path is only used
for small instrumented runs — in particular the Table II experiment
(occupancy and cache-utilization ratios with and without UNICOMP).  The
production self-join uses the vectorized kernels in :mod:`repro.core.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.distance import squared_distances
from repro.core.gridindex import GridIndex
from repro.core.neighbors import (
    adjacent_ranges,
    enumerate_candidate_cells,
    mask_filter_ranges,
)
from repro.core.result import ResultSet
from repro.core.unicomp import unicomp_candidate_cells
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, ThreadContext
from repro.gpusim.metrics import KernelMetrics
from repro.gpusim.occupancy import estimate_registers_per_thread


@dataclass
class SimulatedJoinOutput:
    """Result pairs plus device-model metrics from an instrumented run."""

    result: ResultSet
    metrics: KernelMetrics


def _binary_search_loads(ctx: ThreadContext, b_array: np.ndarray, target: int) -> int:
    """Binary search of ``B`` issuing one global load per probe (Algorithm 1, line 11)."""
    lo, hi = 0, b_array.shape[0] - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        ctx.load("B", mid, 8)
        value = int(b_array[mid])
        if value == target:
            return mid
        if value < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return -1


def _scan_cell(ctx: ThreadContext, index: GridIndex, point: np.ndarray, gid: int,
               cell_pos: int, eps2: float, keys: List[int], values: List[int],
               mirror: bool) -> None:
    """Scan one non-empty cell's points against the query point.

    Issues the loads Algorithm 1 performs: the cell's range in ``G``, the
    point ids in ``A``, and the candidate coordinates in ``D``.
    """
    n_dims = index.num_dims
    ctx.load("G", cell_pos, 16)
    start = int(index.cell_starts[cell_pos])
    count = int(index.cell_counts[cell_pos])
    for k in range(start, start + count):
        ctx.load("A", k, 8)
        candidate = int(index.A[k])
        ctx.load("D", candidate * n_dims, 8 * n_dims)
        ctx.work(1)
        dist2 = float(squared_distances(point, index.points[candidate]))
        if dist2 <= eps2:
            ctx.emit(1 if not mirror else 2)
            keys.append(gid)
            values.append(candidate)
            if mirror:
                keys.append(candidate)
                values.append(gid)


def make_global_device_fn(index: GridIndex, eps: float,
                          keys: List[int], values: List[int]):
    """Build the per-thread GLOBAL device function (Algorithm 1)."""
    eps2 = eps * eps
    n_dims = index.num_dims

    def device_fn(ctx: ThreadContext, gid: int) -> None:
        if gid >= index.num_points:
            return
        ctx.load("D", gid * n_dims, 8 * n_dims)
        point = index.points[gid]
        coords = index.point_cell_coords[gid]
        ranges = adjacent_ranges(coords, index.num_cells)
        filtered = mask_filter_ranges(ranges, index.masks)
        for cand in enumerate_candidate_cells(filtered):
            ctx.work(1)
            linear = int(index.coords_to_linear(cand))
            pos = _binary_search_loads(ctx, index.B, linear)
            if pos < 0:
                continue
            _scan_cell(ctx, index, point, gid, pos, eps2, keys, values, mirror=False)

    return device_fn


def make_unicomp_device_fn(index: GridIndex, eps: float,
                           keys: List[int], values: List[int]):
    """Build the per-thread UNICOMP device function (Algorithm 2).

    The home cell is scanned without mirroring (each ordered intra-cell pair
    is produced once across the launch); the UNICOMP-selected neighbor cells
    are scanned with mirroring so both ordered pairs are emitted.
    """
    eps2 = eps * eps
    n_dims = index.num_dims

    def device_fn(ctx: ThreadContext, gid: int) -> None:
        if gid >= index.num_points:
            return
        ctx.load("D", gid * n_dims, 8 * n_dims)
        point = index.points[gid]
        coords = index.point_cell_coords[gid]

        # Home cell scan.
        home_linear = int(index.point_cell_ids[gid])
        home_pos = _binary_search_loads(ctx, index.B, home_linear)
        ctx.work(1)
        _scan_cell(ctx, index, point, gid, home_pos, eps2, keys, values, mirror=False)

        # UNICOMP-selected neighbor cells.
        for cand in unicomp_candidate_cells(coords, index.masks, index.num_cells):
            ctx.work(1)
            linear = int(index.coords_to_linear(cand))
            pos = _binary_search_loads(ctx, index.B, linear)
            if pos < 0:
                continue
            _scan_cell(ctx, index, point, gid, pos, eps2, keys, values, mirror=True)

    return device_fn


def simulated_selfjoin(index: GridIndex, eps: Optional[float] = None,
                       unicomp: bool = False,
                       device: Optional[Device] = None,
                       threads_per_block: int = 256,
                       registers_per_thread: Optional[int] = None,
                       ) -> SimulatedJoinOutput:
    """Run the self-join on the instrumented device model.

    Parameters
    ----------
    index:
        Built grid index.
    eps:
        Search distance; defaults to the index cell length.
    unicomp:
        Select the UNICOMP kernel variant.
    device:
        Device to run on (a fresh TITAN X Pascal model by default).
    threads_per_block:
        Launch configuration (paper: 256).
    registers_per_thread:
        Override of the register-footprint model (defaults to
        :func:`repro.gpusim.occupancy.estimate_registers_per_thread`).

    Returns
    -------
    SimulatedJoinOutput
        The result pairs (identical to the vectorized kernels) and the
        device-model metrics (occupancy, cache, divergence).
    """
    eps = index.eps if eps is None else float(eps)
    device = device or Device()
    if registers_per_thread is None:
        registers_per_thread = estimate_registers_per_thread(index.num_dims, unicomp)

    keys: List[int] = []
    values: List[int] = []
    if unicomp:
        device_fn = make_unicomp_device_fn(index, eps, keys, values)
    else:
        device_fn = make_global_device_fn(index, eps, keys, values)

    launch = KernelLaunch(device, threads_per_block=threads_per_block,
                          registers_per_thread=registers_per_thread)
    metrics = launch.launch(index.num_points, device_fn)

    result = ResultSet(keys=np.asarray(keys, dtype=np.int64),
                       values=np.asarray(values, dtype=np.int64),
                       num_points=index.num_points)
    return SimulatedJoinOutput(result=result, metrics=metrics)
