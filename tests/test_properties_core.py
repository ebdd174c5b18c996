"""Property-based tests (hypothesis) for the grid index and the kernels.

These are the invariants DESIGN.md commits to: index construction is a
partition of the points, the self-join equals an independently computed
ground truth on arbitrary point sets, UNICOMP never changes the result, and
batching by cells is a partition of the work.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.kdtree_ref import kdtree_selfjoin
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments, ResultSet

#: Bounded, finite coordinates keep the grids small and the tests fast.
coordinate = st.floats(min_value=-50.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False, width=64)


def point_sets(min_points=1, max_points=60, min_dims=1, max_dims=4):
    """Strategy producing (n_points, n_dims) float64 arrays."""
    return st.integers(min_dims, max_dims).flatmap(
        lambda dims: hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(min_points, max_points), st.just(dims)),
            elements=coordinate,
        )
    )


def selfjoin(index, eps=None, **options):
    """The self-join operator into a fresh sink: its result and stats."""
    sink = PairFragments(index.num_points)
    stats = run_selfjoin(index, index.eps if eps is None else eps, sink,
                         **options)
    return sink.to_result_set(), stats


eps_values = st.floats(min_value=0.05, max_value=10.0,
                       allow_nan=False, allow_infinity=False)


class TestGridIndexProperties:
    @given(points=point_sets(), eps=eps_values)
    @settings(max_examples=60, deadline=None)
    def test_index_invariants(self, points, eps):
        index = GridIndex.build(points, eps)
        index.validate()

    @given(points=point_sets(), eps=eps_values)
    @settings(max_examples=60, deadline=None)
    def test_every_point_in_exactly_one_cell(self, points, eps):
        index = GridIndex.build(points, eps)
        seen = np.concatenate([index.points_in_cell(h)
                               for h in range(index.num_nonempty_cells)])
        assert np.array_equal(np.sort(seen), np.arange(index.num_points))

    @given(points=point_sets(), eps=eps_values)
    @settings(max_examples=60, deadline=None)
    def test_points_lie_inside_their_cell(self, points, eps):
        index = GridIndex.build(points, eps)
        coords = index.point_cell_coords
        lower = index.gmin + coords * index.eps
        upper = lower + index.eps
        # Allow tiny floating-point slack at cell boundaries (and the clip at
        # the final cell of each dimension).
        assert np.all(index.points >= lower - 1e-9)
        clipped = coords == (index.num_cells - 1)
        assert np.all((index.points <= upper + 1e-9) | clipped)


class TestSelfJoinProperties:
    @given(points=point_sets(min_points=2, max_points=50), eps=eps_values)
    @settings(max_examples=40, deadline=None)
    def test_matches_kdtree_ground_truth(self, points, eps):
        index = GridIndex.build(points, eps)
        ours, _ = selfjoin(index, unicomp=True)
        expected = kdtree_selfjoin(points, eps)
        assert ours.same_pairs_as(expected)

    @given(points=point_sets(min_points=2, max_points=50), eps=eps_values)
    @settings(max_examples=40, deadline=None)
    def test_unicomp_equals_global(self, points, eps):
        index = GridIndex.build(points, eps)
        uni, uni_stats = selfjoin(index, unicomp=True)
        full, full_stats = selfjoin(index)
        assert uni.same_pairs_as(full)
        assert uni_stats.cells_checked <= full_stats.cells_checked

    @given(points=point_sets(min_points=2, max_points=50), eps=eps_values)
    @settings(max_examples=40, deadline=None)
    def test_result_is_symmetric_reflexive(self, points, eps):
        index = GridIndex.build(points, eps)
        result, _ = selfjoin(index, unicomp=True)
        assert result.is_symmetric()
        assert result.contains_all_self_pairs()

    @given(points=point_sets(min_points=4, max_points=50), eps=eps_values,
           n_batches=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_cell_batches_partition_the_work(self, points, eps, n_batches):
        index = GridIndex.build(points, eps)
        full, _ = selfjoin(index)
        cells = np.arange(index.num_nonempty_cells)
        parts = [selfjoin(index, cells=chunk)[0]
                 for chunk in np.array_split(cells, n_batches)]
        merged = ResultSet.merge([p for p in parts])
        assert merged.same_pairs_as(full)

    @given(points=point_sets(min_points=2, max_points=40),
           eps_small=eps_values, eps_large=eps_values)
    @settings(max_examples=30, deadline=None)
    def test_monotonicity_in_eps(self, points, eps_small, eps_large):
        lo, hi = sorted((eps_small, eps_large))
        index = GridIndex.build(points, hi)
        small, _ = selfjoin(index, eps=lo)
        large, _ = selfjoin(index, eps=hi)
        assert small.num_pairs <= large.num_pairs
