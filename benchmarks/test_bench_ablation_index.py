"""Ablation: the index design choices the paper motivates (Section IV).

Three ablations over the grid index:

* **non-empty-cell storage** — the paper stores only non-empty cells so the
  index is O(|D|) rather than O(prod |g_j|).  The benchmark reports the ratio
  of non-empty to total cells per dimensionality, demonstrating why the dense
  alternative is intractable beyond ~3-D.
* **mask-array filtering** — the per-dimension masks M_j prune candidate
  cells before the binary search in B.  The benchmark compares the number of
  binary-searched cells with and without the filter (counted by the kernel's
  ``cells_checked`` statistic).
* **reduced dims** — the planner may grid only k < n dims (the JPDC
  follow-up's layout): 3^k cells walked per cell instead of 3^n, at the
  price of more candidates.  The emitter drops a candidate on one
  non-indexed dim alone before the full distance.  Per k the benchmark
  reports the walk's lookups, the candidates, the share that survives that
  pre-filter (recomputed here from the data) and the UNICOMP kernel time.
"""

from __future__ import annotations

import numpy as np

from repro.core.gridindex import GridIndex
from repro.core.kernels import (_expand_cell_pairs, _walk_cell_pairs,
                                run_selfjoin)
from repro.core.neighbors import all_neighbor_offsets
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.engine.planner import QueryPlanner
from repro.experiments.report import format_table
from repro.utils.timing import Timer
from benchmarks.conftest import bench_points, bench_trials
from perfbench.run import host_metadata


def test_bench_index_sparsity_vs_dimension(benchmark, write_report):
    """Non-empty cells vs the full grid across dimensionalities."""
    n_points = bench_points(4000)

    def build_all():
        rows = []
        for dims in (2, 3, 4, 5, 6):
            points = uniform_dataset(n_points, dims, seed=0)
            eps = 2.0 * (2_000_000 / n_points) ** (1.0 / dims)
            index = GridIndex.build(points, eps)
            stats = index.stats()
            rows.append((dims, stats.num_nonempty_cells, stats.total_cells,
                         stats.occupancy_fraction, stats.memory_bytes))
        return rows

    rows = benchmark.pedantic(build_all, rounds=1, iterations=1)
    write_report("ablation_index_sparsity", format_table(
        ("dims", "nonempty_cells", "total_cells", "occupied_fraction", "index_bytes"),
        rows, title="Ablation: non-empty-cell index vs the full grid"))

    # The non-empty count is bounded by |D| in every dimension, while the full
    # grid grows by orders of magnitude — the paper's O(|D|) space argument.
    for dims, nonempty, total, fraction, _bytes in rows:
        assert nonempty <= n_points
    assert rows[-1][2] > rows[0][2] * 100
    assert rows[-1][3] < rows[0][3]


def test_bench_mask_filtering(benchmark, write_report):
    """Candidate cells binary-searched with and without the mask filter."""
    n_points = bench_points(4000)
    points = uniform_dataset(n_points, 4, seed=1)
    eps = 4.0 * (2_000_000 / n_points) ** 0.25
    index = GridIndex.build(points, eps)

    def with_masks():
        return run_selfjoin(index, eps, PairFragments(index.num_points),
                            tier="numpy")

    stats = benchmark.pedantic(with_masks, rounds=1, iterations=1)

    # Without the masks every in-grid adjacent cell would be binary-searched.
    offsets = all_neighbor_offsets(index.num_dims)
    unmasked_checks = 0
    for offset in offsets:
        neighbor = index.cell_coords + offset[None, :]
        inside = np.all((neighbor >= 0) & (neighbor < index.num_cells[None, :]), axis=1)
        unmasked_checks += int(inside.sum())

    write_report("ablation_mask_filtering", format_table(
        ("variant", "cells_binary_searched"),
        [("with masks (paper)", stats.cells_checked),
         ("without masks", unmasked_checks)],
        title="Ablation: mask-array filtering of candidate cells"))
    assert stats.cells_checked <= unmasked_checks
    benchmark.extra_info["masked_checks"] = stats.cells_checked
    benchmark.extra_info["unmasked_checks"] = unmasked_checks


def _prefilter_survivors(index: GridIndex) -> tuple[int, int]:
    """(candidates, pre-filter survivors) of the index's UNICOMP self-join.

    Expands every cell pair the walker resolves, which is what the
    kernel's ``distance_calcs`` counts (the kernel itself expands only the
    pairs the box prune keeps), and applies the emitter's test, ``d * d <=
    eps2`` on every non-indexed dim, to every candidate.
    """
    eps2 = index.eps * index.eps
    columns = [index.points[:, j] for j in index.unindexed_dims]
    counts = [0, 0]
    for src, tgt, _ in _walk_cell_pairs(index, index.cell_coords, True):
        q, c = _expand_cell_pairs(
            index.cell_starts.take(src), index.cell_counts.take(src),
            index.cell_starts.take(tgt), index.cell_counts.take(tgt))
        q_ids, c_ids = index.A.take(q), index.A.take(c)
        near = np.ones(q.shape[0], dtype=bool)
        for column in columns:
            d = column.take(q_ids) - column.take(c_ids)
            near &= d * d <= eps2
        counts[0] += q.shape[0]
        counts[1] += int(near.sum())
    return counts[0], counts[1]


def test_bench_reduced_dims(benchmark, write_report):
    """Per indexed dimensionality k: walk, candidates, pre-filter, time."""
    n_points = bench_points(4000)
    n_dims, eps = 6, 0.25
    points = uniform_dataset(n_points, n_dims, seed=1, low=0.0, high=1.0)
    planned = QueryPlanner().index_dataset(points, eps).num_grid_dims
    trials = max(1, bench_trials())

    def sweep():
        rows = []
        for k in range(1, n_dims + 1):
            # Uniform data: every dim spans the same cells, so the
            # chooser's top k are the first k.
            dims = tuple(range(k))
            best = float("inf")
            for _ in range(trials):
                # A fresh index per trial: the timed call walks its cells.
                index = GridIndex.build(points, eps, dims=dims)
                sink = PairFragments(index.num_points)
                with Timer() as timer:
                    stats = run_selfjoin(index, eps, sink, unicomp=True,
                                         tier="numpy")
                best = min(best, timer.elapsed)
            candidates, survivors = _prefilter_survivors(index)
            assert candidates == stats.distance_calcs
            rows.append((f"{k}{' (planner)' if k == planned else ''}",
                         stats.cells_checked, stats.distance_calcs,
                         survivors / candidates if candidates else 1.0,
                         stats.result_pairs, best))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    host = host_metadata()
    header = "\n".join([
        f"host: {host['cpu_model']}, {host['nproc']} CPUs",
        f"python: {host['python']}, numpy: {host['numpy']}",
        f"input: uniform {n_points} points, {n_dims}-D, eps={eps}, UNICOMP, "
        f"NumPy tier; kernel_s is one self-join on a fresh index, so its "
        f"cold walk is timed; best of {trials}",
        "prefilter_share: candidates left for the full distance after the "
        "non-indexed dims' d*d <= eps2 test (1 when every dim is indexed)",
    ])
    write_report("ablation_reduced_dims", header + "\n" + format_table(
        ("k", "cells_checked", "distance_calcs", "prefilter_share",
         "result_pairs", "kernel_s"),
        rows, title="Ablation: reduced-dims grid with the pre-filter"))

    # More indexed dims never add candidates: adjacency in k + 1 dims
    # implies adjacency in the first k.  Every k finds the same pairs.
    calcs = [row[2] for row in rows]
    assert calcs == sorted(calcs, reverse=True)
    assert len({row[4] for row in rows}) == 1
    assert rows[-1][3] == 1.0
    assert all(row[3] < 1.0 for row in rows[:-1])
    benchmark.extra_info["planner_k"] = planned
