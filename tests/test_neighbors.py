"""Unit tests for adjacent-cell enumeration and mask filtering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import neighbors as nb
from repro.core.gridindex import GridIndex


class TestAdjacentRanges:
    def test_interior_cell(self):
        ranges = nb.adjacent_ranges(np.array([3, 4]), np.array([10, 10]))
        assert ranges.tolist() == [[2, 4], [3, 5]]

    def test_clipped_at_lower_boundary(self):
        ranges = nb.adjacent_ranges(np.array([0, 0]), np.array([10, 10]))
        assert ranges.tolist() == [[0, 1], [0, 1]]

    def test_clipped_at_upper_boundary(self):
        ranges = nb.adjacent_ranges(np.array([9, 5]), np.array([10, 6]))
        assert ranges.tolist() == [[8, 9], [4, 5]]

    def test_single_cell_dimension(self):
        ranges = nb.adjacent_ranges(np.array([0]), np.array([1]))
        assert ranges.tolist() == [[0, 0]]


class TestMaskFilter:
    def test_filter_removes_empty_columns(self):
        ranges = np.array([[1, 3], [3, 5]])
        masks = [np.array([1, 2, 5]), np.array([3, 4, 5])]
        filtered = nb.mask_filter_ranges(ranges, masks)
        assert filtered[0].tolist() == [1, 2]
        assert filtered[1].tolist() == [3, 4, 5]

    def test_filter_can_be_empty(self):
        ranges = np.array([[4, 6]])
        masks = [np.array([0, 1, 9])]
        filtered = nb.mask_filter_ranges(ranges, masks)
        assert filtered[0].size == 0

    def test_filter_inclusive_bounds(self):
        ranges = np.array([[2, 4]])
        masks = [np.array([2, 4])]
        filtered = nb.mask_filter_ranges(ranges, masks)
        assert filtered[0].tolist() == [2, 4]


class TestEnumerateCandidates:
    def test_cartesian_product(self):
        filtered = [np.array([1, 2]), np.array([5])]
        cells = list(nb.enumerate_candidate_cells(filtered))
        assert [c.tolist() for c in cells] == [[1, 5], [2, 5]]

    def test_empty_dimension_yields_nothing(self):
        filtered = [np.array([1, 2]), np.array([], dtype=np.int64)]
        assert list(nb.enumerate_candidate_cells(filtered)) == []

    def test_three_dimensional_count(self):
        filtered = [np.array([0, 1]), np.array([3, 4, 5]), np.array([7])]
        assert len(list(nb.enumerate_candidate_cells(filtered))) == 6


class TestOffsets:
    @pytest.mark.parametrize("n_dims", [1, 2, 3, 4])
    def test_offset_count(self, n_dims):
        offsets = nb.all_neighbor_offsets(n_dims)
        assert offsets.shape == (3 ** n_dims, n_dims)

    def test_offsets_exclude_home(self):
        offsets = nb.all_neighbor_offsets(3, include_home=False)
        assert offsets.shape[0] == 3 ** 3 - 1
        assert not np.any(np.all(offsets == 0, axis=1))

    def test_offsets_unique(self):
        offsets = nb.all_neighbor_offsets(3)
        assert np.unique(offsets, axis=0).shape[0] == offsets.shape[0]

    def test_offsets_values_in_range(self):
        offsets = nb.all_neighbor_offsets(4)
        assert offsets.min() == -1 and offsets.max() == 1


class TestNeighborCellsForOffset:
    def test_candidate_cells_of_point_contains_home(self, index_2d):
        for pid in (0, 5, 100):
            cells = nb.candidate_cells_of_point(index_2d, pid)
            home = index_2d.lookup_cell(int(index_2d.point_cell_ids[pid]))
            assert home in cells

    def test_candidate_cells_are_nonempty_and_adjacent(self, index_3d):
        pid = 3
        coords = index_3d.cell_of_point(pid)
        for h in nb.candidate_cells_of_point(index_3d, pid):
            diff = np.abs(index_3d.cell_coords[h] - coords)
            assert diff.max() <= 1
            assert index_3d.cell_counts[h] >= 1
