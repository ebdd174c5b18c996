"""Tests for the grid-vs-bruteforce work estimator and adaptive dispatch."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.baselines.kdtree_ref import kdtree_selfjoin
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments
from repro.core.selector import (
    WorkEstimate,
    adaptive_selfjoin,
    estimate_join_work,
    select_algorithm,
)
from repro.data.synthetic import uniform_dataset


class TestWorkEstimate:
    def test_grid_estimate_matches_kernel_counters_global(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        estimate = estimate_join_work(index, unicomp=False)
        stats = run_selfjoin(index, eps_2d, PairFragments(index.num_points))
        assert estimate.grid_candidate_pairs == stats.distance_calcs

    def test_grid_estimate_matches_kernel_counters_unicomp(self, uniform_3d, eps_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        estimate = estimate_join_work(index, unicomp=True)
        stats = run_selfjoin(index, eps_3d, PairFragments(index.num_points),
                             unicomp=True)
        assert estimate.grid_candidate_pairs == stats.distance_calcs

    def test_bruteforce_pairs_is_n_squared(self, uniform_2d, eps_2d):
        estimate = select_algorithm(uniform_2d, eps_2d)
        assert estimate.bruteforce_pairs == uniform_2d.shape[0] ** 2

    def test_sparse_data_prefers_grid(self):
        # Small eps relative to the extent: the grid prunes almost everything.
        points = uniform_dataset(2000, 2, seed=0, low=0.0, high=100.0)
        estimate = select_algorithm(points, 1.0)
        assert estimate.recommended == "grid"
        assert estimate.selectivity < 0.1

    def test_dense_data_prefers_bruteforce(self):
        # eps comparable to the extent: every cell pair is adjacent, so the
        # GLOBAL kernel does all-pairs work plus per-cell overhead and brute
        # force wins.  (With UNICOMP the grid still halves the distance work,
        # so the recommendation flips back to the grid — also checked.)
        points = uniform_dataset(300, 6, seed=1, low=0.0, high=1.0)
        estimate = select_algorithm(points, 0.9, unicomp=False)
        assert estimate.recommended == "bruteforce"
        assert estimate.selectivity > 0.5
        assert select_algorithm(points, 0.9, unicomp=True).recommended == "grid"

    def test_unicomp_halves_estimate(self, uniform_3d, eps_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        full = estimate_join_work(index, unicomp=False)
        uni = estimate_join_work(index, unicomp=True)
        assert uni.grid_candidate_pairs < 0.75 * full.grid_candidate_pairs

    def test_recommended_consistent_with_costs(self):
        estimate = WorkEstimate(grid_candidate_pairs=100, bruteforce_pairs=10_000,
                                num_points=100, num_nonempty_cells=10)
        assert estimate.recommended == "grid"
        flipped = WorkEstimate(grid_candidate_pairs=9_999, bruteforce_pairs=10_000,
                               num_points=100, num_nonempty_cells=1000)
        assert flipped.recommended == "bruteforce"


class TestAdaptiveSelfJoin:
    def test_grid_path_correct(self):
        points = uniform_dataset(600, 2, seed=2, low=0.0, high=30.0)
        eps = 1.0
        result, estimate = adaptive_selfjoin(points, eps)
        assert estimate.recommended == "grid"
        assert result.same_pairs_as(kdtree_selfjoin(points, eps))

    def test_bruteforce_path_correct(self):
        points = uniform_dataset(200, 5, seed=3, low=0.0, high=1.0)
        eps = 0.9
        result, estimate = adaptive_selfjoin(points, eps, unicomp=False)
        assert estimate.recommended == "bruteforce"
        assert result.same_pairs_as(kdtree_selfjoin(points, eps))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            adaptive_selfjoin(np.empty((0, 2)), 1.0)
        with pytest.raises(ValueError):
            adaptive_selfjoin(uniform_dataset(10, 2, seed=0), -1.0)

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_grid_path_walks_the_cell_pairs_once(self, monkeypatch, unicomp):
        # The estimate fills the index's adjacency and the grid join reads
        # it back, so the cell pairs are walked once per call.  Every
        # module's binding of the walker is counted, not only the kernels'.
        import repro.core.kernels as K

        counts = {"adjacency": 0, "walk": 0}

        def counting(name, original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(K, "_walk_adjacency",
                            counting("adjacency", K._walk_adjacency))
        walk = K._walk_cell_pairs
        counted_walk = counting("walk", walk)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") \
                    and getattr(module, "_walk_cell_pairs", None) is walk:
                monkeypatch.setattr(module, "_walk_cell_pairs", counted_walk)
        points = uniform_dataset(600, 2, seed=2, low=0.0, high=30.0)
        result, estimate = adaptive_selfjoin(points, 1.0, unicomp=unicomp)
        assert estimate.recommended == "grid"
        assert result.same_pairs_as(kdtree_selfjoin(points, 1.0))
        assert counts == {"adjacency": 1, "walk": 1}
