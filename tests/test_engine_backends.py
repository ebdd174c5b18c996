"""Backend-parity property tests for the unified query engine.

Every registered execution backend — including the index-free brute-force
reference — must produce *identical* CSR neighbor tables (same offsets
array, same neighbor array) for the same query, across dimensionalities
2–6, with and without UNICOMP, and with and without batching.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_join, bruteforce_selfjoin
from repro.core.batching import BatchPlanner
from repro.core.result import NeighborTable
from repro.data.synthetic import uniform_dataset
from repro.engine import (Query, QueryPlanner, available_backends, execute,
                          run_query)

ALL_DIMS = [2, 3, 4, 5, 6]

#: Dataset size per dimensionality (smaller in high dimensions, where the
#: device model's per-thread 3^n candidate-cell walks dominate runtime).
POINTS_BY_DIM = {2: 140, 3: 120, 4: 90, 5: 70, 6: 50}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}


def _selfjoin_table(points, eps, backend, unicomp, batching=False) -> NeighborTable:
    planner = QueryPlanner(backend=backend,
                           batch_planner=BatchPlanner(min_batches=4))
    query = Query.self_join(points, eps, unicomp=unicomp, batching=batching)
    return execute(planner.plan(query)).neighbor_table


def _reference_selfjoin_table(points, eps) -> NeighborTable:
    return bruteforce_selfjoin(points, eps).result.to_neighbor_table()


class TestSelfJoinParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_all_backends_match_bruteforce(self, dims, unicomp):
        points = uniform_dataset(POINTS_BY_DIM[dims], dims, seed=40 + dims,
                                 low=0.0, high=4.0)
        eps = EPS_BY_DIM[dims]
        reference = _reference_selfjoin_table(points, eps)
        assert reference.num_pairs > points.shape[0]  # non-trivial workload
        for backend in available_backends():
            table = _selfjoin_table(points, eps, backend, unicomp)
            assert table.same_contents_as(reference), (backend, dims, unicomp)

    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("backend", ["vectorized"])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_batched_equals_unbatched(self, dims, backend, unicomp):
        points = uniform_dataset(POINTS_BY_DIM[dims], dims, seed=60 + dims,
                                 low=0.0, high=4.0)
        eps = EPS_BY_DIM[dims]
        unbatched = _selfjoin_table(points, eps, backend, unicomp, batching=False)
        batched = _selfjoin_table(points, eps, backend, unicomp, batching=True)
        assert batched.same_contents_as(unbatched), (backend, dims, unicomp)


class TestBipartiteParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    def test_all_backends_match_bruteforce(self, dims):
        left = uniform_dataset(POINTS_BY_DIM[dims] // 2, dims, seed=80 + dims,
                               low=0.0, high=4.0)
        right = uniform_dataset(POINTS_BY_DIM[dims], dims, seed=90 + dims,
                                low=0.0, high=4.0)
        eps = EPS_BY_DIM[dims]
        reference = bruteforce_join(left, right, eps).result.to_neighbor_table()
        assert reference.num_pairs > 0
        for backend in available_backends():
            table = run_query(Query.bipartite_join(left, right, eps),
                              backend=backend).neighbor_table
            assert table.same_contents_as(reference), (backend, dims)

    def test_swapped_index_side_matches(self):
        # Left larger than right: the planner indexes the left side and
        # mirrors the pairs back; the result must be unchanged.
        left = uniform_dataset(220, 2, seed=7, low=0.0, high=5.0)
        right = uniform_dataset(80, 2, seed=8, low=0.0, high=5.0)
        reference = bruteforce_join(left, right, 0.8).result.to_neighbor_table()
        table = run_query(Query.bipartite_join(left, right, 0.8)).neighbor_table
        assert table.same_contents_as(reference)


class TestRangeAndKNNKinds:
    def test_range_query_kind_matches_bipartite(self):
        data = uniform_dataset(160, 2, seed=11, low=0.0, high=6.0)
        queries = uniform_dataset(40, 2, seed=12, low=0.0, high=6.0)
        range_table = run_query(Query.range_query(data, queries, 0.9)).neighbor_table
        join_table = run_query(Query.bipartite_join(queries, data, 0.9)).neighbor_table
        assert range_table.same_contents_as(join_table)

    @pytest.mark.parametrize("backend", ["vectorized", "bruteforce"])
    def test_knn_candidates_contain_true_neighbors(self, backend):
        from scipy.spatial import cKDTree

        points = uniform_dataset(250, 2, seed=13, low=0.0, high=8.0)
        k = 5
        table = run_query(Query.knn_candidates(points, k),
                          backend=backend).neighbor_table
        counts = table.counts()
        assert np.all(counts >= k)
        _, true_nn = cKDTree(points).query(points, k=k + 1)
        for qi in range(points.shape[0]):
            row = set(table.neighbors_of(qi).tolist())
            assert qi not in row  # include_self defaults to False
            assert set(true_nn[qi, 1:].tolist()) <= row
