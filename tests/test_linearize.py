"""Unit tests for cell-coordinate computation and linearization."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_join
from repro.core import linearize as lin
from repro.core.gridindex import GridIndex
from repro.core.join import range_query
from repro.engine import Query, run_query


class TestGridBounds:
    def test_bounds_are_padded_by_eps(self):
        points = np.array([[0.0, 2.0], [4.0, 6.0]])
        gmin, gmax = lin.compute_grid_bounds(points, eps=1.0)
        assert np.allclose(gmin, [-1.0, 1.0])
        assert np.allclose(gmax, [5.0, 7.0])

    def test_bounds_single_point(self):
        points = np.array([[3.0, 3.0, 3.0]])
        gmin, gmax = lin.compute_grid_bounds(points, eps=0.5)
        assert np.allclose(gmax - gmin, 1.0)

    def test_num_cells_ceil(self):
        gmin = np.array([0.0])
        gmax = np.array([10.5])
        assert lin.compute_num_cells(gmin, gmax, 1.0)[0] == 11

    def test_num_cells_exact_division(self):
        gmin = np.array([0.0, 0.0])
        gmax = np.array([10.0, 5.0])
        assert lin.compute_num_cells(gmin, gmax, 1.0).tolist() == [10, 5]

    def test_num_cells_degenerate_dimension(self):
        gmin = np.array([0.0, 5.0])
        gmax = np.array([10.0, 5.0])
        num = lin.compute_num_cells(gmin, gmax, 1.0)
        assert num[1] >= 1


class TestStrides:
    def test_row_major_strides(self):
        strides = lin.compute_strides(np.array([4, 5, 6]))
        assert strides.tolist() == [30, 6, 1]

    def test_single_dimension(self):
        assert lin.compute_strides(np.array([7])).tolist() == [1]

    def test_total_cells(self):
        assert lin.total_cells(np.array([4, 5, 6])) == 120

    def test_overflow_raises(self):
        huge = np.array([2 ** 21] * 3)
        # 2^63 cells: must raise rather than silently overflow int64.
        with pytest.raises(lin.GridOverflowError):
            lin.compute_strides(np.concatenate([huge, np.array([2 ** 21])]))

    def test_nonpositive_cells_raises(self):
        with pytest.raises(ValueError):
            lin.compute_strides(np.array([4, 0]))


class TestCellCoords:
    def test_coords_basic(self):
        points = np.array([[0.0, 0.0], [1.5, 2.5]])
        gmin = np.array([0.0, 0.0])
        num_cells = np.array([10, 10])
        coords = lin.compute_cell_coords(points, gmin, 1.0, num_cells)
        assert coords.tolist() == [[0, 0], [1, 2]]

    def test_coords_clipped_to_grid(self):
        points = np.array([[10.0]])
        coords = lin.compute_cell_coords(points, np.array([0.0]), 1.0, np.array([10]))
        assert coords[0, 0] == 9

    def test_coords_negative_origin(self):
        points = np.array([[-0.5], [0.5]])
        coords = lin.compute_cell_coords(points, np.array([-1.0]), 1.0, np.array([3]))
        assert coords[:, 0].tolist() == [0, 1]

    def test_coords_dtype_is_int64(self):
        points = np.random.default_rng(0).uniform(0, 5, (10, 3))
        coords = lin.compute_cell_coords(points, np.zeros(3), 0.5, np.array([10, 10, 10]))
        assert coords.dtype == np.int64


class TestLinearizeRoundTrip:
    def test_linearize_matches_manual(self):
        num_cells = np.array([3, 4])
        strides = lin.compute_strides(num_cells)
        coords = np.array([[2, 3], [0, 0], [1, 2]])
        linear = lin.linearize(coords, strides)
        assert linear.tolist() == [2 * 4 + 3, 0, 1 * 4 + 2]

    def test_delinearize_inverts_linearize(self):
        num_cells = np.array([5, 7, 3])
        strides = lin.compute_strides(num_cells)
        rng = np.random.default_rng(1)
        coords = np.stack([rng.integers(0, c, size=50) for c in num_cells], axis=1)
        linear = lin.linearize(coords, strides)
        back = lin.delinearize(linear, num_cells)
        assert np.array_equal(back, coords)

    def test_linear_ids_unique_per_cell(self):
        num_cells = np.array([4, 4, 4])
        strides = lin.compute_strides(num_cells)
        grids = np.meshgrid(*[np.arange(4)] * 3, indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1)
        linear = lin.linearize(coords, strides)
        assert np.unique(linear).shape[0] == 64

    def test_linearize_scalar_shape(self):
        strides = lin.compute_strides(np.array([10, 10]))
        single = lin.linearize(np.array([3, 4]), strides)
        assert np.isscalar(single) or single.shape == ()


class TestGridLimits:
    def test_a_dimension_past_the_id_space_raises(self):
        """One dimension alone needing more than 2**62 cells raises,
        rather than wrapping in the int64 cast and collapsing to one cell
        (ε=1e-18 already overflows the product of the dimensions)."""
        points = np.random.default_rng(0).uniform(0, 1, (2000, 2))
        for eps in (1e-18, 1e-19):
            with pytest.raises(lin.GridOverflowError):
                GridIndex.build(points, eps)
        with pytest.raises(lin.GridOverflowError):
            run_query(Query.self_join(points, 1e-19))

    def test_queries_beyond_the_grid_bin_on_their_side(self):
        """A query past either end of a dimension, near or far, takes the
        border cell on its side and finds what brute force finds, with
        no cast warning."""
        rng = np.random.default_rng(5)
        data = rng.uniform(0.0, 1.0, (300, 3))
        eps = 0.1
        queries = []
        for j in range(data.shape[1]):
            for sign, row in ((-1, data[:, j].argmin()), (1, data[:, j].argmax())):
                for beyond in (0.05, 0.5, 1e20, 1e150):
                    query = data[row].copy()
                    query[j] += sign * beyond
                    queries.append(query)
        queries = np.array(queries)
        expected = bruteforce_join(queries, data, eps).result.to_neighbor_table()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = range_query(data, queries, eps)
            coords = lin.compute_cell_coords(
                np.array([[-1e300], [1e300]]), np.array([0.0]), 0.1,
                np.array([10]))
        assert [ids.tolist() for ids in got] == [
            expected.neighbors_of(i).tolist() for i in range(len(queries))]
        assert sum(ids.shape[0] > 0 for ids in got) >= 2 * data.shape[1]
        assert coords[:, 0].tolist() == [0, 9]
