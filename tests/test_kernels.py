"""Unit tests for the self-join kernels (GLOBAL and UNICOMP, all implementations)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.kdtree_ref import kdtree_selfjoin
from repro.core.gridindex import GridIndex
from repro.core import kernels as K


ALL_KERNELS = [
    ("pointwise-global", K.selfjoin_global_pointwise),
    ("cellwise-global", K.selfjoin_global_cellwise),
    ("cellwise-unicomp", K.selfjoin_unicomp_cellwise),
    ("vectorized-global", K.selfjoin_global_vectorized),
    ("vectorized-unicomp", K.selfjoin_unicomp_vectorized),
]


def greedy_chunk_boundaries(pair_counts, max_candidate_pairs):
    """Reference for ``_chunk_boundaries``: the one-pass greedy split loop."""
    boundaries = []
    lo = 0
    running = 0
    n = int(pair_counts.shape[0])
    for i in range(n):
        count = int(pair_counts[i])
        if running and running + count > max_candidate_pairs:
            boundaries.append((lo, i))
            lo = i
            running = 0
        running += count
    boundaries.append((lo, n))
    return boundaries


class TestKernelCorrectness:
    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_matches_kdtree_2d(self, name, kernel, uniform_2d, eps_2d, reference_pairs_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        out = kernel(index)
        assert np.array_equal(out.result.canonical_pairs(), reference_pairs_2d), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_matches_kdtree_3d(self, name, kernel, uniform_3d, eps_3d, reference_pairs_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        out = kernel(index)
        assert np.array_equal(out.result.canonical_pairs(), reference_pairs_3d), name

    @pytest.mark.parametrize("name,kernel", [k for k in ALL_KERNELS if "pointwise" not in k[0]])
    def test_matches_kdtree_5d(self, name, kernel, uniform_5d):
        eps = 1.2
        index = GridIndex.build(uniform_5d, eps)
        expected = kdtree_selfjoin(uniform_5d, eps).canonical_pairs()
        out = kernel(index)
        assert np.array_equal(out.result.canonical_pairs(), expected), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_clustered_data(self, name, kernel, clustered_2d):
        eps = 1.0
        index = GridIndex.build(clustered_2d, eps)
        expected = kdtree_selfjoin(clustered_2d, eps).canonical_pairs()
        out = kernel(index)
        assert np.array_equal(out.result.canonical_pairs(), expected), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_no_duplicate_emissions(self, name, kernel, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        out = kernel(index)
        # The raw pair list must already be duplicate-free (each ordered pair once).
        assert out.result.num_pairs == out.result.canonical_pairs().shape[0], name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_result_symmetric_and_contains_self(self, name, kernel, uniform_3d, eps_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        out = kernel(index)
        assert out.result.is_symmetric()
        assert out.result.contains_all_self_pairs()

    def test_eps_smaller_than_cell(self, uniform_2d):
        # The search distance may be smaller than the grid cell length.
        index = GridIndex.build(uniform_2d, 1.0)
        eps = 0.4
        expected = kdtree_selfjoin(uniform_2d, eps).canonical_pairs()
        out = K.selfjoin_global_vectorized(index, eps)
        assert np.array_equal(out.result.canonical_pairs(), expected)

    def test_single_point(self):
        index = GridIndex.build(np.array([[1.0, 1.0]]), 0.5)
        out = K.selfjoin_unicomp_vectorized(index)
        assert out.result.keys.tolist() == [0]
        assert out.result.values.tolist() == [0]

    def test_all_points_identical(self):
        pts = np.tile(np.array([[3.0, 3.0, 3.0]]), (20, 1))
        index = GridIndex.build(pts, 1.0)
        out = K.selfjoin_unicomp_vectorized(index)
        assert out.result.num_pairs == 20 * 20

    def test_no_pairs_when_far_apart(self):
        pts = np.array([[0.0, 0.0], [100.0, 100.0], [200.0, 0.0]])
        index = GridIndex.build(pts, 1.0)
        out = K.selfjoin_global_vectorized(index)
        # Only the self-pairs remain.
        assert out.result.num_pairs == 3
        assert out.result.contains_all_self_pairs()


class TestUnicompWorkReduction:
    def test_unicomp_halves_cells_and_distances(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        full = K.selfjoin_global_vectorized(index)
        uni = K.selfjoin_unicomp_vectorized(index)
        assert uni.stats.cells_checked < 0.75 * full.stats.cells_checked
        assert uni.stats.distance_calcs < 0.75 * full.stats.distance_calcs
        # Same results despite the reduced work.
        assert uni.result.same_pairs_as(full.result)

    def test_unicomp_reduction_grows_with_dimension(self, uniform_5d):
        index = GridIndex.build(uniform_5d, 1.2)
        full = K.selfjoin_global_vectorized(index)
        uni = K.selfjoin_unicomp_vectorized(index)
        ratio = uni.stats.distance_calcs / full.stats.distance_calcs
        assert 0.35 < ratio < 0.75

    def test_stats_result_pairs_match(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        out = K.selfjoin_unicomp_vectorized(index)
        assert out.stats.result_pairs == out.result.num_pairs


class TestSourceCellSubsets:
    def test_union_of_cell_batches_equals_full_result(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        full = K.selfjoin_global_vectorized(index)
        n = index.num_nonempty_cells
        thirds = np.array_split(np.arange(n), 3)
        parts = [K.selfjoin_global_vectorized(index, source_cells=part).result
                 for part in thirds]
        from repro.core.result import ResultSet
        merged = ResultSet.merge(parts)
        assert merged.same_pairs_as(full.result)

    def test_unicomp_cell_batches_union(self, uniform_3d, eps_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        full = K.selfjoin_unicomp_vectorized(index)
        n = index.num_nonempty_cells
        parts = [K.selfjoin_unicomp_vectorized(index, source_cells=part).result
                 for part in np.array_split(np.arange(n), 4)]
        from repro.core.result import ResultSet
        merged = ResultSet.merge(parts)
        assert merged.same_pairs_as(full.result)

    def test_empty_cell_subset(self, index_2d):
        out = K.selfjoin_global_vectorized(index_2d,
                                           source_cells=np.empty(0, dtype=np.int64))
        assert out.result.num_pairs == 0


class TestChunking:
    def test_small_chunk_limit_gives_same_result(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        big = K.selfjoin_unicomp_vectorized(index, max_candidate_pairs=10 ** 9)
        small = K.selfjoin_unicomp_vectorized(index, max_candidate_pairs=64)
        assert big.result.same_pairs_as(small.result)
        assert big.stats.distance_calcs == small.stats.distance_calcs

    def test_chunk_boundaries_cover_everything(self):
        counts = np.array([5, 10, 3, 50, 2, 2])
        bounds = K._chunk_boundaries(counts, max_candidate_pairs=12)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == counts.shape[0]
        covered = []
        for lo, hi in bounds:
            covered.extend(range(lo, hi))
        assert covered == list(range(counts.shape[0]))

    def test_chunk_single_giant_pair(self):
        counts = np.array([1000])
        bounds = K._chunk_boundaries(counts, max_candidate_pairs=10)
        assert bounds == [(0, 1)]

    @given(counts=st.lists(st.one_of(st.just(0), st.integers(1, 20),
                                     st.integers(100, 10 ** 6)),
                           max_size=60),
           max_candidate_pairs=st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    @example(counts=[0, 0, 50, 0, 3, 4, 0, 60, 0, 0], max_candidate_pairs=10)
    def test_chunk_boundaries_equal_greedy_loop(self, counts,
                                                max_candidate_pairs):
        counts = np.asarray(counts, dtype=np.int64)
        assert K._chunk_boundaries(counts, max_candidate_pairs) \
            == greedy_chunk_boundaries(counts, max_candidate_pairs)


class TestKernelStats:
    def test_merge_accumulates(self):
        a = K.KernelStats(cells_checked=2, nonempty_cells_visited=1,
                          distance_calcs=10, result_pairs=4)
        b = K.KernelStats(cells_checked=3, nonempty_cells_visited=2,
                          distance_calcs=5, result_pairs=1)
        a.merge(b)
        assert a.cells_checked == 5
        assert a.nonempty_cells_visited == 3
        assert a.distance_calcs == 15
        assert a.result_pairs == 5

    def test_registry_covers_all_kernel_variants(self):
        assert ("vectorized", True) in K.KERNELS
        assert ("vectorized", False) in K.KERNELS
        assert ("cellwise", True) in K.KERNELS
        assert ("cellwise", False) in K.KERNELS
        assert ("pointwise", False) in K.KERNELS
