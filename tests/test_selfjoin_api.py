"""Tests for the public GPUSelfJoin / selfjoin API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GPUSelfJoin, SelfJoinConfig, selfjoin
from repro.baselines.kdtree_ref import kdtree_selfjoin


class TestConfig:
    def test_defaults(self):
        cfg = SelfJoinConfig()
        assert cfg.unicomp is True
        assert cfg.kernel == "vectorized"
        assert cfg.batching is True
        assert cfg.min_batches == 3

    def test_algorithm_name(self):
        assert SelfJoinConfig(unicomp=True).algorithm_name == "GPU: unicomp"
        assert SelfJoinConfig(unicomp=False).algorithm_name == "GPU"

    def test_invalid_kernel(self):
        # The per-cell and per-point references are not engine backends.
        for kernel in ("magic", "cellwise", "pointwise"):
            with pytest.raises(ValueError):
                SelfJoinConfig(kernel=kernel)

    def test_invalid_min_batches(self):
        with pytest.raises(ValueError):
            SelfJoinConfig(min_batches=0)

    def test_max_dims_guard(self, uniform_2d):
        joiner = GPUSelfJoin(SelfJoinConfig(max_dims=1))
        with pytest.raises(ValueError):
            joiner.join(uniform_2d, 0.5)


class TestJoinCorrectness:
    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("batching", [False, True])
    def test_matches_reference(self, uniform_2d, eps_2d, reference_pairs_2d,
                               unicomp, batching):
        cfg = SelfJoinConfig(unicomp=unicomp, batching=batching)
        result = GPUSelfJoin(cfg).join(uniform_2d, eps_2d)
        assert np.array_equal(result.canonical_pairs(), reference_pairs_2d)

    def test_simulated_kernel_via_api(self):
        pts = np.random.default_rng(5).uniform(0, 5, (120, 2))
        eps = 0.7
        result = selfjoin(pts, eps, kernel="simulated", batching=False)
        expected = kdtree_selfjoin(pts, eps)
        assert result.same_pairs_as(expected)

    def test_exclude_self_pairs(self, uniform_2d, eps_2d):
        with_self = selfjoin(uniform_2d, eps_2d, include_self=True)
        without = selfjoin(uniform_2d, eps_2d, include_self=False)
        assert with_self.num_pairs - without.num_pairs == uniform_2d.shape[0]
        assert not np.any(without.keys == without.values)

    def test_sort_result(self, uniform_2d, eps_2d):
        result = selfjoin(uniform_2d, eps_2d, sort_result=True)
        keys = result.keys
        assert np.all(np.diff(keys) >= 0)

    def test_list_input_accepted(self):
        pts = [[0.0, 0.0], [0.1, 0.1], [5.0, 5.0]]
        result = selfjoin(pts, 0.5)
        assert result.num_pairs == 5  # 3 self-pairs + the close pair both ways

    def test_invalid_eps(self, uniform_2d):
        with pytest.raises(ValueError):
            selfjoin(uniform_2d, 0.0)
        with pytest.raises(ValueError):
            selfjoin(uniform_2d, float("nan"))

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            selfjoin(np.empty((0, 2)), 1.0)


class TestJoinReport:
    def test_report_fields(self, uniform_2d, eps_2d):
        joiner = GPUSelfJoin(SelfJoinConfig(unicomp=True, validate_index=True))
        result, report = joiner.join_with_report(uniform_2d, eps_2d)
        assert report.algorithm == "GPU: unicomp"
        assert report.num_points == uniform_2d.shape[0]
        assert report.num_pairs == result.num_pairs
        assert report.index_build_time >= 0.0
        assert report.kernel_time >= 0.0
        assert report.total_time >= report.kernel_time
        assert report.index_stats.num_nonempty_cells > 0
        assert report.batch_plan is not None
        assert report.batch_plan.n_batches >= 3
        assert report.batch_report is not None
        assert report.avg_neighbors >= 0.0

    def test_report_without_batching(self, uniform_2d, eps_2d):
        joiner = GPUSelfJoin(SelfJoinConfig(batching=False))
        _, report = joiner.join_with_report(uniform_2d, eps_2d)
        assert report.batch_plan is None
        assert report.batch_report is None

    def test_join_index_reuses_prebuilt_index(self, uniform_2d, eps_2d):
        joiner = GPUSelfJoin()
        index = joiner.build_index(uniform_2d, eps_2d)
        result = joiner.join_index(index)
        direct = joiner.join(uniform_2d, eps_2d)
        assert result.same_pairs_as(direct)

    def test_join_index_with_smaller_eps(self, uniform_2d, eps_2d):
        joiner = GPUSelfJoin()
        index = joiner.build_index(uniform_2d, eps_2d)
        result = joiner.join_index(index, eps=eps_2d / 2)
        expected = kdtree_selfjoin(uniform_2d, eps_2d / 2)
        assert result.same_pairs_as(expected)


class TestRealWorldSurrogates:
    def test_sw_dataset_join(self, sw_small):
        eps = 3.0
        result = selfjoin(sw_small, eps)
        expected = kdtree_selfjoin(sw_small, eps)
        assert result.same_pairs_as(expected)

    def test_sdss_dataset_join(self, sdss_small):
        eps = 1.0
        result = selfjoin(sdss_small, eps)
        expected = kdtree_selfjoin(sdss_small, eps)
        assert result.same_pairs_as(expected)
