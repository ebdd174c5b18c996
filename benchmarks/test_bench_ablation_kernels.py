"""Ablation: kernel implementation strategies and the UNICOMP work reduction.

Compares the per-cell oracle of :mod:`repro.baselines.cellwise` with the
vectorized production kernel and the tiered dispatcher of
:mod:`repro.core.nativekernels` on the same input, and quantifies the
UNICOMP reduction of cells searched and distance calculations (the paper's
"factor of ~2").  The report header records the host CPU count and the
numba version (or the fallback reason), because the tier rows depend on
both, and notes that the per-point Algorithm 1 transcription, timed in
earlier reports, no longer exists.
"""

from __future__ import annotations

import os

from repro.baselines.cellwise import selfjoin_cellwise
from repro.core import nativekernels as nk
from repro.core.gridindex import GridIndex
from repro.core.kernels import (
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
    # One untimed run of each timed function on a small separate index, so
    # every row times warm code and no row pays the process's first call.
    warm = GridIndex.build(points[:200], eps)
    selfjoin_cellwise(warm)
    selfjoin_global_vectorized(warm)
    for tier in tiers:
        selfjoin_tiered(warm, eps, sink=PairFragments(warm.num_points),
                        tier=tier)

    def best_of(run, repeats=3):
        # A fresh index per run: an index keeps the cell pairs of its first
        # self-join, so a shared one would time later runs warm.  The
        # fastest of a few runs damps scheduler noise on a small input.
        timings = []
        for _ in range(repeats):
            index = GridIndex.build(points, eps)
            with Timer() as t:
                out = run(index)
            timings.append(t.elapsed)
        return min(timings), out

    def run_all():
        rows, work = [], []
        for name, kernel in (("cellwise (oracle)", selfjoin_cellwise),
                             ("vectorized (production)", selfjoin_global_vectorized)):
            elapsed, out = best_of(kernel)
            rows.append((name, elapsed, out.result.num_pairs))
            work.append(out.stats)
        for tier in tiers:
            elapsed, out = best_of(lambda index: selfjoin_tiered(
                index, eps, sink=PairFragments(index.num_points), tier=tier))
            rows.append((f"tiered ({tier})", elapsed, out.stats.result_pairs))
        return rows, work

    rows, work = benchmark.pedantic(run_all, rounds=1, iterations=1)
    availability = nk.kernel_tier_availability()
    numba_line = f"numba: {nk.numba_version()}" if availability["numba"] is None \
        else f"numba: unavailable -- {availability['numba']}"
    write_report("ablation_kernels", "\n".join(
        [f"host cpus: {os.cpu_count()}", numba_line,
         "pointwise (Algorithm 1 per point): removed from the package, "
         "no row",
         "time_s: fastest of 3 runs, each on a fresh index, after one "
         "untimed warm-up run of every row",
         "vectorized returns a ResultSet; tiered fills a sink only"]) + "\n" + format_table(
        ("kernel", "time_s", "pairs"), rows,
        title="Ablation: kernel implementation strategies"))

    # All implementations agree on the result size, and the oracle counts
    # the production kernel's work.
    assert len({r[2] for r in rows}) == 1
    oracle, vectorized = work
    assert (oracle.cells_checked, oracle.nonempty_cells_visited,
            oracle.distance_calcs) == (vectorized.cells_checked,
                                       vectorized.nonempty_cells_visited,
                                       vectorized.distance_calcs)


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
