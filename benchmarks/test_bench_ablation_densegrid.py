"""Ablation: non-empty-cell index vs a fully materialized (dense) grid.

The paper contrasts its O(|D|) non-empty-cell index with prior work that
indexed every cell.  This benchmark builds both indexes on the same 2-D and
3-D inputs (where the dense grid is still feasible), checks that they produce
the identical self-join result, and reports the memory and lookup-structure
sizes; on a 5-D input the dense grid exceeds its cell budget and refuses to
build — the intractability the paper's design avoids.
"""

from __future__ import annotations

import pytest

from repro.core.densegrid import DenseGridError, DenseGridIndex
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.experiments.report import format_table
from benchmarks.conftest import bench_points


def test_bench_dense_vs_sparse_index(benchmark, write_report):
    n_points = min(3000, bench_points(3000))

    def build_and_join():
        rows = []
        for dims in (2, 3):
            points = uniform_dataset(n_points, dims, seed=7)
            eps = 2.5 * (2_000_000 / n_points) ** (1.0 / dims)
            sparse = GridIndex.build(points, eps)
            dense = DenseGridIndex.build(points, eps)
            sink = PairFragments(sparse.num_points)
            run_selfjoin(sparse, eps, sink)
            sparse_result = sink.to_result_set()
            dense_result = dense.selfjoin()
            assert sparse_result.same_pairs_as(dense_result)
            rows.append((dims, sparse.num_nonempty_cells, dense.total_cells,
                         sparse.memory_footprint(), dense.memory_footprint()))
        return rows

    rows = benchmark.pedantic(build_and_join, rounds=1, iterations=1)
    write_report("ablation_densegrid", format_table(
        ("dims", "sparse_cells", "dense_cells", "sparse_bytes", "dense_bytes"),
        rows, title="Ablation: non-empty-cell index vs dense grid"))

    # The dense grid must refuse to materialize a high-dimensional grid.
    points_5d = uniform_dataset(n_points, 5, seed=8)
    with pytest.raises(DenseGridError):
        # eps = 1 over a [0, 100]^5 extent needs ~10^10 cells.
        DenseGridIndex.build(points_5d, 1.0, max_cells=2_000_000)
    for dims, sparse_cells, dense_cells, sparse_bytes, dense_bytes in rows:
        assert sparse_cells <= dense_cells
