"""Unit tests for the shard planner and cost estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import (
    candidate_counts_at,
    estimate_cell_costs,
    estimate_probe_row_costs,
    split_by_cost,
    split_cells_balanced,
)
from repro.core.gridindex import GridIndex
from repro.data.synthetic import uniform_dataset
from repro.parallel import ShardPlanner, default_worker_count
from repro.parallel.shards import WORKERS_ENV_VAR


def _index(n=300, dims=2, eps=0.7, seed=3, high=6.0):
    points = uniform_dataset(n, dims, seed=seed, low=0.0, high=high)
    return GridIndex.build(points, eps)


class TestSplitByCost:
    def test_partitions_all_items_contiguously(self):
        costs = np.arange(1, 30, dtype=float)
        parts = split_by_cost(costs, 4)
        assert len(parts) == 4
        joined = np.concatenate(parts)
        assert np.array_equal(joined, np.arange(29))
        for part in parts:
            if part.shape[0]:
                assert np.array_equal(part, np.arange(part[0], part[-1] + 1))

    def test_balances_cumulative_cost(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(0.5, 2.0, size=500)
        parts = split_by_cost(costs, 5)
        totals = [costs[p].sum() for p in parts]
        # Each slice within one max-item of the ideal share.
        ideal = costs.sum() / 5
        assert max(totals) <= ideal + costs.max() + 1e-9

    def test_more_parts_than_items_clamped(self):
        parts = split_by_cost(np.ones(3), 10)
        assert len(parts) == 3
        assert np.array_equal(np.concatenate(parts), np.arange(3))

    def test_zero_costs_fall_back_to_even_split(self):
        parts = split_by_cost(np.zeros(10), 2)
        assert len(parts) == 2
        assert all(p.shape[0] == 5 for p in parts)

    def test_empty_input(self):
        parts = split_by_cost(np.zeros(0), 3)
        assert len(parts) == 1 and parts[0].shape[0] == 0

    def test_invalid_parts_rejected(self):
        with pytest.raises(ValueError):
            split_by_cost(np.ones(5), 0)

    def test_dominant_item_isolated_without_empty_slices(self):
        # A dominant item must not drag everything into one slice: the
        # other items still spread over the remaining slices.
        for costs in ([1.0, 1000.0, 1.0], [1000.0, 1.0, 1.0], [1.0, 1.0, 1000.0]):
            parts = split_by_cost(np.array(costs), 3)
            assert np.array_equal(np.concatenate(parts), np.arange(3))
            assert all(p.shape[0] == 1 for p in parts), costs


class TestCostEstimators:
    def test_candidate_counts_exact_for_isolated_and_clustered(self):
        # Two clusters more than eps apart: candidates never cross clusters.
        a = np.zeros((4, 2))
        b = np.full((3, 2), 10.0)
        index = GridIndex.build(np.vstack([a, b]), 1.0)
        counts = candidate_counts_at(index, index.cell_coords)
        assert np.array_equal(np.sort(counts), np.sort(np.array([4, 3])))

    def test_estimate_cell_costs_full_sample_is_exact_work(self):
        index = _index()
        costs = estimate_cell_costs(index, sample_fraction=1.0,
                                    max_sample_cells=10 ** 6)
        exact = index.cell_counts * candidate_counts_at(index, index.cell_coords)
        assert np.allclose(costs, exact)
        # The full-sample estimate equals the GLOBAL kernel's distance count.
        from repro.core.kernels import selfjoin_global_vectorized
        out = selfjoin_global_vectorized(index, index.eps)
        assert int(costs.sum()) == out.stats.distance_calcs

    def test_estimate_cell_costs_sampled_is_positive_and_sized(self):
        index = _index(n=800)
        costs = estimate_cell_costs(index, sample_fraction=0.1,
                                    max_sample_cells=32)
        assert costs.shape[0] == index.num_nonempty_cells
        assert np.all(costs >= 0) and np.all(np.isfinite(costs))
        assert costs.sum() > 0

    def test_probe_row_costs_reflect_density(self):
        # Index has a dense blob near the origin and nothing elsewhere; a
        # query in the blob must cost more than a query in empty space.
        data = uniform_dataset(300, 2, seed=1, low=0.0, high=1.0)
        index = GridIndex.build(data, 0.5)
        queries = np.array([[0.5, 0.5], [50.0, 50.0]])
        costs = estimate_probe_row_costs(queries, index)
        assert costs.shape == (2,)
        assert costs[0] > costs[1] > 0

    def test_split_cells_balanced_unchanged_semantics(self):
        index = _index()
        batches = split_cells_balanced(index, 4)
        assert np.array_equal(np.concatenate(batches),
                              np.arange(index.num_nonempty_cells))


class TestShardPlanner:
    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_partitions_all_cells_in_b_order(self, n_shards):
        index = _index()
        plan = ShardPlanner(n_shards=n_shards).plan(index)
        assert plan.n_shards == min(n_shards, index.num_nonempty_cells)
        assert np.array_equal(plan.cells(),
                              np.arange(index.num_nonempty_cells))
        assert plan.total_cells() == index.num_nonempty_cells
        assert plan.estimated_costs.shape[0] == plan.n_shards

    def test_partitions_a_subset(self):
        index = _index()
        subset = np.arange(5, 25, dtype=np.int64)
        plan = ShardPlanner(n_shards=3).plan(index, cells=subset)
        assert np.array_equal(plan.cells(), subset)

    def test_empty_subset(self):
        index = _index()
        plan = ShardPlanner(n_shards=4).plan(
            index, cells=np.empty(0, dtype=np.int64))
        assert plan.total_cells() == 0
        assert plan.n_shards == 1

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardPlanner(n_shards=0)

    def test_default_worker_count_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert default_worker_count() == 5
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert default_worker_count() >= 1
