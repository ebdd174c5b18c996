"""Ablation: kernel implementation strategies and the UNICOMP work reduction.

Compares the per-cell oracle of :mod:`repro.baselines.cellwise` with the
production self-join operator (:func:`repro.core.kernels.run_selfjoin`) on
every available kernel tier of :mod:`repro.core.nativekernels`, on the same
input, and quantifies the UNICOMP reduction of cells searched and distance
calculations (the paper's "factor of ~2").  The report header records the
host CPU count and the numba version (or the fallback reason), because the
tier rows depend on both, and notes that the per-point Algorithm 1
transcription and the separate vectorized row, timed in earlier reports,
no longer exist.
"""

from __future__ import annotations

import os

from repro.baselines.cellwise import selfjoin_cellwise
from repro.core import nativekernels as nk
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
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
    selfjoin_cellwise(warm, PairFragments(warm.num_points))
    for tier in tiers:
        run_selfjoin(warm, eps, PairFragments(warm.num_points), tier=tier)

    def best_of(run, repeats=3):
        # A fresh index per run: an index keeps the cell pairs of its first
        # self-join, so a shared one would time later runs warm.  The
        # fastest of a few runs damps scheduler noise on a small input.
        timings = []
        for _ in range(repeats):
            index = GridIndex.build(points, eps)
            sink = PairFragments(index.num_points)
            with Timer() as t:
                stats = run(index, sink)
            timings.append(t.elapsed)
        return min(timings), stats

    def run_all():
        elapsed, oracle = best_of(selfjoin_cellwise)
        rows, work = [("cellwise (oracle)", elapsed, oracle.result_pairs)], [oracle]
        for tier in tiers:
            elapsed, stats = best_of(lambda index, sink: run_selfjoin(
                index, eps, sink, tier=tier))
            rows.append((f"run_selfjoin ({tier})", elapsed, stats.result_pairs))
            work.append(stats)
        return rows, work

    rows, work = benchmark.pedantic(run_all, rounds=1, iterations=1)
    availability = nk.kernel_tier_availability()
    numba_line = f"numba: {nk.numba_version()}" if availability["numba"] is None \
        else f"numba: unavailable -- {availability['numba']}"
    write_report("ablation_kernels", "\n".join(
        [f"host cpus: {os.cpu_count()}", numba_line,
         f"input: {n_points} uniform 2-D points, eps={eps:.4g}",
         "pointwise (Algorithm 1 per point): removed from the package, "
         "no row",
         "time_s: fastest of 3 runs, each on a fresh index, after one "
         "untimed warm-up run of every row; every row fills a sink",
         "run_selfjoin: the production operator, one row per kernel tier "
         "(the 'vectorized (production)' and 'tiered (numpy)' rows of "
         "earlier reports timed this same code)"]) + "\n" + format_table(
        ("kernel", "time_s", "pairs"), rows,
        title="Ablation: kernel implementation strategies"))

    # All implementations agree on the result size, and the oracle counts
    # the production kernel's work.
    assert len({r[2] for r in rows}) == 1
    oracle, vectorized = work[:2]
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
            full = run_selfjoin(index, eps, PairFragments(index.num_points),
                                tier="numpy")
            uni = run_selfjoin(index, eps, PairFragments(index.num_points),
                               unicomp=True, tier="numpy")
            rows.append((dims, full.cells_checked, uni.cells_checked,
                         full.distance_calcs, uni.distance_calcs,
                         full.distance_calcs / max(1, uni.distance_calcs)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report("ablation_unicomp", format_table(
        ("dims", "cells_global", "cells_unicomp", "dist_global", "dist_unicomp",
         "dist_reduction"),
        rows, title="Ablation: UNICOMP work reduction vs dimensionality"))

    for dims, cells_full, cells_uni, dist_full, dist_uni, reduction in rows:
        assert cells_uni < cells_full
        assert 1.2 < reduction < 2.5
