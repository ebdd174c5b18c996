"""Ablation: kernel implementation strategies and the UNICOMP work reduction.

Compares the three kernel implementations (pointwise reference, per-cell,
vectorized) plus the tiered dispatcher of :mod:`repro.core.nativekernels`
on the same input, and quantifies the UNICOMP reduction of cells searched
and distance calculations (the paper's "factor of ~2").  The report header
records the host CPU count and the numba version (or the fallback reason),
because the tier rows depend on both.
"""

from __future__ import annotations

import os

from repro.core import nativekernels as nk
from repro.core.gridindex import GridIndex
from repro.core.kernels import (
    selfjoin_global_cellwise,
    selfjoin_global_pointwise,
    selfjoin_global_vectorized,
    selfjoin_tiered,
    selfjoin_unicomp_vectorized,
)
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.experiments.report import format_table
from repro.utils.timing import Timer
from benchmarks.conftest import bench_points


def test_bench_kernel_implementations(benchmark, write_report):
    n_points = min(2000, bench_points(2000))
    points = uniform_dataset(n_points, 2, seed=4)
    eps = 0.6 * (2_000_000 / n_points) ** 0.5

    tiers = [t for t, err in nk.kernel_tier_availability().items()
             if err is None]
    if "numba" in tiers:
        nk.warm_jit_cache()

    def run_all():
        # A fresh index per variant: an index keeps the cell pairs of its
        # first self-join, so a shared one would time later variants warm.
        rows = []
        for name, kernel in (("pointwise (Algorithm 1)", selfjoin_global_pointwise),
                             ("cellwise", selfjoin_global_cellwise),
                             ("vectorized (production)", selfjoin_global_vectorized)):
            index = GridIndex.build(points, eps)
            with Timer() as t:
                out = kernel(index)
            rows.append((name, t.elapsed, out.result.num_pairs))
        for tier in tiers:
            index = GridIndex.build(points, eps)
            sink = PairFragments(index.num_points)
            with Timer() as t:
                out = selfjoin_tiered(index, eps, sink=sink, tier=tier)
            rows.append((f"tiered ({tier})", t.elapsed, out.stats.result_pairs))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    availability = nk.kernel_tier_availability()
    numba_line = f"numba: {nk.numba_version()}" if availability["numba"] is None \
        else f"numba: unavailable -- {availability['numba']}"
    write_report("ablation_kernels", "\n".join(
        [f"host cpus: {os.cpu_count()}", numba_line]) + "\n" + format_table(
        ("kernel", "time_s", "pairs"), rows,
        title="Ablation: kernel implementation strategies"))

    # All implementations agree on the result size; the vectorized kernel wins.
    assert len({r[2] for r in rows}) == 1
    assert rows[2][1] < rows[0][1]


def test_bench_unicomp_work_reduction(benchmark, write_report):
    """UNICOMP's reduction factor across dimensionalities."""
    n_points = bench_points(4000)

    def sweep():
        rows = []
        for dims in (2, 3, 4, 5, 6):
            points = uniform_dataset(n_points, dims, seed=5)
            eps = (2.0 if dims <= 3 else 6.0) * (2_000_000 / n_points) ** (1.0 / dims)
            index = GridIndex.build(points, eps)
            full = selfjoin_global_vectorized(index)
            uni = selfjoin_unicomp_vectorized(index)
            rows.append((dims,
                         full.stats.cells_checked, uni.stats.cells_checked,
                         full.stats.distance_calcs, uni.stats.distance_calcs,
                         full.stats.distance_calcs / max(1, uni.stats.distance_calcs)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report("ablation_unicomp", format_table(
        ("dims", "cells_global", "cells_unicomp", "dist_global", "dist_unicomp",
         "dist_reduction"),
        rows, title="Ablation: UNICOMP work reduction vs dimensionality"))

    for dims, cells_full, cells_uni, dist_full, dist_uni, reduction in rows:
        assert cells_uni < cells_full
        assert 1.2 < reduction < 2.5
