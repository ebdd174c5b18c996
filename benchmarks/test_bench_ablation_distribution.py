"""Ablation: data distribution — uniform as the grid index's worst case.

The paper argues (Section VI-C, "Impact of data distribution on performance")
that uniformly distributed data maximizes the number of non-empty cells and
is therefore the worst case for GPU-SJ, while clustered real-world data has
fewer non-empty cells and less search overhead.  This benchmark joins a
uniform, a Gaussian-clustered and a Thomas-process dataset of identical size
and ε and reports the non-empty cell counts, kernel work and response times.
"""

from __future__ import annotations

from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments
from repro.data.synthetic import gaussian_clusters, thomas_process, uniform_dataset
from repro.experiments.report import format_table
from repro.utils.timing import Timer
from benchmarks.conftest import bench_points


def test_bench_distribution_sensitivity(benchmark, write_report):
    n_points = bench_points(8000)
    eps = 2.0
    datasets = {
        "uniform (worst case)": uniform_dataset(n_points, 2, seed=6),
        "gaussian clusters": gaussian_clusters(n_points, 2, n_clusters=12,
                                               cluster_std=2.0, seed=6),
        "thomas process (SDSS-like)": thomas_process(n_points, 2, cluster_std=0.8,
                                                     seed=6),
    }

    def run_all():
        rows = []
        for name, points in datasets.items():
            index = GridIndex.build(points, eps)
            sink = PairFragments(index.num_points)
            with Timer() as t:
                stats = run_selfjoin(index, eps, sink, unicomp=True,
                                     tier="numpy")
            rows.append((name, index.num_nonempty_cells, stats.cells_checked,
                         sink.num_pairs, t.elapsed))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_report("ablation_distribution", format_table(
        ("distribution", "nonempty_cells", "cells_checked", "pairs", "time_s"),
        rows, title="Ablation: data distribution (uniform is the worst case)"))

    by_name = {row[0]: row for row in rows}
    uniform_cells = by_name["uniform (worst case)"][1]
    for name, cells, *_ in rows:
        if name != "uniform (worst case)":
            assert cells < uniform_cells, name
