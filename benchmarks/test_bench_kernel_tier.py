"""Kernel-tier benchmark: NumPy tier vs the Numba JIT tier (PR 6).

Measures throughput (points/second) of every *available* kernel tier on a
dense workload (cells far above ``DENSE_POINTS_PER_CELL_THRESHOLD``) and a
sparse workload (about one point per cell).  The ``kernel`` column is the
numba tier's compiled kernel per workload; the NumPy tier has one route
and records none (``-``).  The committed report either
quantifies the numba speedup or — on hosts without numba, like the default
CI jobs — records the fallback reason explicitly, so the file always states
which tier produced the repo's other numbers.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core import nativekernels as nk
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.experiments.report import format_table
from repro.utils.timing import Timer
from benchmarks.conftest import bench_points, bench_trials


def _workloads(n_points: int):
    """(label, points, eps) for the dense and sparse density regimes."""
    rng = np.random.default_rng(12)
    side_dense = (n_points / 400.0) ** 0.5  # ~400 points per eps-cell
    dense = rng.uniform(0.0, side_dense, (n_points, 2))
    sparse = uniform_dataset(n_points, 2, seed=12,
                             low=0.0, high=n_points ** 0.5)
    return (("dense", dense, 1.0), ("sparse", sparse, 1.0))


def _tier_header() -> list[str]:
    availability = nk.kernel_tier_availability()
    lines = [f"host cpus: {os.cpu_count()}"]
    if availability["numba"] is None:
        lines.append(f"numba: {nk.numba_version()}")
    else:
        lines.append(f"numba: unavailable -- {availability['numba']}")
    return lines


def test_bench_kernel_tier_throughput(benchmark, write_report):
    n_points = min(6000, bench_points(6000) or 6000)
    trials = bench_trials()
    tiers = [t for t, err in nk.kernel_tier_availability().items()
             if err is None]
    if "numba" in tiers:
        nk.warm_jit_cache()

    def sweep():
        rows = []
        for label, points, eps in _workloads(n_points):
            index = GridIndex.build(points, eps)
            baseline = {}
            for tier in tiers:
                best = float("inf")
                pairs = 0
                for _ in range(max(1, trials)):
                    sink = PairFragments(index.num_points)
                    with Timer() as t:
                        stats = run_selfjoin(index, eps, sink, unicomp=True,
                                             tier=tier)
                    best = min(best, t.elapsed)
                    pairs = stats.result_pairs
                baseline.setdefault(label, best)
                rows.append((label, tier,
                             "+".join(sorted(stats.kernel_counts)) or "-",
                             best, n_points / best, pairs,
                             baseline[label] / best))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = _tier_header()
    write_report("kernel_tier", "\n".join(header) + "\n" + format_table(
        ("workload", "tier", "kernel", "time_s", "points_per_s", "pairs",
         "speedup_vs_numpy"),
        rows, title="Kernel tiers: NumPy vs Numba JIT throughput"))

    # Tiers agree on the result size per workload.
    for label in ("dense", "sparse"):
        assert len({r[5] for r in rows if r[0] == label}) == 1
    # The NumPy tier has one route and records no kernel regime; on numba
    # the dense workload must route to the dense kernel, sparse to sparse.
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[("dense", "numpy")][2] == "-"
    assert by_key[("sparse", "numpy")][2] == "-"
    if "numba" in tiers:
        assert by_key[("dense", "numba")][2] == "dense"
        assert by_key[("sparse", "numba")][2] == "sparse"
        # Acceptance floor for the compiled tier on the dense workload.
        assert by_key[("dense", "numba")][6] >= 3.0
