"""Unit tests for the non-empty-cell grid index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.gridindex import GridIndex, _run_length_encode
from repro.core import linearize as lin


class TestBuild:
    def test_basic_invariants(self, index_2d):
        index_2d.validate()

    def test_A_is_permutation(self, index_2d):
        assert np.array_equal(np.sort(index_2d.A), np.arange(index_2d.num_points))

    def test_B_sorted_unique(self, index_2d):
        assert np.all(np.diff(index_2d.B) > 0)

    def test_counts_sum_to_points(self, index_2d):
        assert int(index_2d.cell_counts.sum()) == index_2d.num_points

    def test_every_stored_cell_nonempty(self, index_2d):
        assert np.all(index_2d.cell_counts >= 1)

    def test_nonempty_at_most_total(self, index_3d):
        assert index_3d.num_nonempty_cells <= index_3d.total_cells

    def test_cell_coords_match_B(self, index_3d):
        linear = lin.linearize(index_3d.cell_coords, index_3d.strides)
        assert np.array_equal(linear, index_3d.B)

    def test_points_grouped_correctly(self, index_2d):
        # Each point listed in a cell must actually have that cell's id.
        for h in range(min(50, index_2d.num_nonempty_cells)):
            ids = index_2d.points_in_cell(h)
            assert np.all(index_2d.point_cell_ids[ids] == index_2d.B[h])

    def test_masks_match_coordinates(self, index_2d):
        for j, mask in enumerate(index_2d.masks):
            assert np.array_equal(mask, np.unique(index_2d.point_cell_coords[:, j]))

    def test_single_point_dataset(self):
        index = GridIndex.build(np.array([[1.0, 2.0, 3.0]]), 0.5)
        assert index.num_points == 1
        assert index.num_nonempty_cells == 1
        index.validate()

    def test_identical_points_share_cell(self):
        pts = np.tile(np.array([[2.0, 2.0]]), (10, 1))
        index = GridIndex.build(pts, 1.0)
        assert index.num_nonempty_cells == 1
        assert index.cell_counts[0] == 10

    def test_1d_points_supported(self):
        pts = np.linspace(0, 10, 50).reshape(-1, 1)
        index = GridIndex.build(pts, 1.0)
        index.validate()
        assert index.num_dims == 1

    def test_high_dim_build(self):
        pts = np.random.default_rng(0).uniform(0, 3, (100, 6))
        index = GridIndex.build(pts, 1.0)
        index.validate()
        assert index.num_dims == 6

    def test_invalid_eps_rejected(self, uniform_2d):
        with pytest.raises(ValueError):
            GridIndex.build(uniform_2d, 0.0)
        with pytest.raises(ValueError):
            GridIndex.build(uniform_2d, -1.0)

    def test_nan_points_rejected(self):
        pts = np.array([[0.0, np.nan]])
        with pytest.raises(ValueError):
            GridIndex.build(pts, 1.0)


def point_sets():
    """(n, dims) point sets, dims 1-6, single points and repeated rows."""
    coordinate = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                           st.floats(0.0, 3.0, allow_nan=False, width=64))
    return st.integers(1, 6).flatmap(lambda dims: st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(dims)),
                   elements=coordinate),
        st.integers(0, 4),
    )).map(lambda sample: np.concatenate(
        [sample[0]] + [sample[0][:1]] * sample[1]))


def assert_sort_and_rle(index):
    """``A``, ``B``, ``G`` and ``M_j`` as a stable argsort plus an RLE give them."""
    order = np.argsort(index.point_cell_ids, kind="stable")
    assert index.A.dtype == np.int64
    assert np.array_equal(index.A, order)
    B, starts, counts = _run_length_encode(index.point_cell_ids[order])
    assert np.array_equal(index.B, B)
    assert np.array_equal(index.cell_starts, starts)
    assert np.array_equal(index.cell_counts, counts)
    for j, mask in enumerate(index.masks):
        assert np.array_equal(mask, np.unique(index.point_cell_coords[:, j]))


class TestBuildEquivalence:
    @given(points=point_sets(), eps=st.sampled_from([0.3, 1.0, 5.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_argsort_and_run_length_encoding(self, points, eps):
        assert_sort_and_rle(GridIndex.build(points, eps))

    def test_fused_key_overflow_falls_back_to_lexsort(self, monkeypatch):
        """With max cell id x n >= 2**63 the fused sort key would overflow."""
        points = np.random.default_rng(5).uniform(0.0, 1.0, (24, 2))
        points[1] = points[0]
        lexsorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: lexsorts.append(1) or lexsort(keys))
        index = GridIndex.build(points, 1e-9)
        assert int(index.point_cell_ids.max()) * points.shape[0] >= 2 ** 63
        assert lexsorts
        assert_sort_and_rle(index)


class TestLookups:
    def test_lookup_existing_cell(self, index_2d):
        for h in (0, index_2d.num_nonempty_cells // 2, index_2d.num_nonempty_cells - 1):
            assert index_2d.lookup_cell(int(index_2d.B[h])) == h

    def test_lookup_missing_cell(self, index_2d):
        missing = int(index_2d.B.max()) + 1
        assert index_2d.lookup_cell(missing) == -1

    def test_lookup_cells_vectorized_matches_scalar(self, index_2d):
        probe = np.concatenate([index_2d.B[:10], index_2d.B[:10] + 10 ** 9])
        vec = index_2d.lookup_cells(probe)
        scal = np.array([index_2d.lookup_cell(int(x)) for x in probe])
        assert np.array_equal(vec, scal)

    def test_lookup_cells_outside_and_between_B_is_minus_one(self, index_2d):
        B = index_2d.B
        gaps = np.setdiff1d(np.arange(B[0], B[-1]), B)[:20]
        assert gaps.size
        probe = np.concatenate([[B[0] - 1, -1, B[-1] + 1, B[-1] + 10 ** 12], gaps])
        assert np.all(index_2d.lookup_cells(probe) == -1)
        assert np.array_equal(index_2d.lookup_cells(B), np.arange(B.shape[0]))

    def test_points_in_cell_out_of_range(self, index_2d):
        with pytest.raises(IndexError):
            index_2d.points_in_cell(index_2d.num_nonempty_cells)

    def test_cell_of_point(self, index_2d):
        coords = index_2d.cell_of_point(0)
        assert coords.shape == (2,)
        linear = int(index_2d.coords_to_linear(coords))
        assert linear == index_2d.point_cell_ids[0]


class TestStatsAndMemory:
    def test_stats_fields(self, index_2d):
        stats = index_2d.stats()
        assert stats.num_points == index_2d.num_points
        assert stats.num_nonempty_cells == index_2d.num_nonempty_cells
        assert stats.min_points_per_cell >= 1
        assert stats.max_points_per_cell >= stats.min_points_per_cell
        assert stats.avg_points_per_cell == pytest.approx(
            index_2d.num_points / index_2d.num_nonempty_cells)

    def test_occupancy_fraction_in_unit_interval(self, index_3d):
        frac = index_3d.stats().occupancy_fraction
        assert 0.0 < frac <= 1.0

    def test_memory_footprint_linear_in_points(self):
        small = GridIndex.build(np.random.default_rng(0).uniform(0, 10, (200, 2)), 1.0)
        large = GridIndex.build(np.random.default_rng(0).uniform(0, 10, (2000, 2)), 1.0)
        # O(|D|) space: 10x the points should cost well under 100x the memory.
        assert large.memory_footprint() < 30 * small.memory_footprint()

    def test_index_smaller_than_full_grid_in_high_dim(self):
        pts = np.random.default_rng(3).uniform(0, 20, (500, 5))
        index = GridIndex.build(pts, 1.0)
        assert index.num_nonempty_cells < index.total_cells
        # The non-empty cell count can never exceed the point count.
        assert index.num_nonempty_cells <= index.num_points


class TestRunLengthEncode:
    def test_basic(self):
        ids = np.array([1, 1, 3, 3, 3, 7])
        unique, starts, counts = _run_length_encode(ids)
        assert unique.tolist() == [1, 3, 7]
        assert starts.tolist() == [0, 2, 5]
        assert counts.tolist() == [2, 3, 1]

    def test_single_run(self):
        unique, starts, counts = _run_length_encode(np.array([5, 5, 5]))
        assert unique.tolist() == [5]
        assert counts.tolist() == [3]

    def test_empty(self):
        unique, starts, counts = _run_length_encode(np.empty(0, dtype=np.int64))
        assert unique.size == starts.size == counts.size == 0

    def test_all_distinct(self):
        ids = np.arange(10)
        unique, starts, counts = _run_length_encode(ids)
        assert np.array_equal(unique, ids)
        assert np.all(counts == 1)
