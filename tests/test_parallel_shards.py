"""Unit tests for the shard planner and the exact per-item costs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import split_by_cost, split_cells_balanced
from repro.core.gridindex import GridIndex
from repro.core.kernels import probe_row_costs, selfjoin_cell_costs
from repro.core.result import PairFragments
from repro.engine.backends import VectorizedBackend
from repro.data.synthetic import uniform_dataset
from repro.parallel import ShardPlanner, default_worker_count
from repro.parallel.shards import WORKERS_ENV_VAR


def _index(n=300, dims=2, eps=0.7, seed=3, high=6.0):
    points = uniform_dataset(n, dims, seed=seed, low=0.0, high=high)
    return GridIndex.build(points, eps)


def candidate_counts(index):
    """Each non-empty cell's candidate points: the probe cost of one of its
    points, less the base cost of one."""
    return probe_row_costs(index.points[index.A[index.cell_starts]], index) - 1


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
        counts = candidate_counts(index)
        assert np.array_equal(np.sort(counts), np.sort(np.array([4, 3])))

    @pytest.mark.parametrize("unicomp", [False, True],
                             ids=["global", "unicomp"])
    @pytest.mark.parametrize("dims", [2, 3, 6])
    def test_cell_costs_are_the_kernel_distance_calcs(self, dims, unicomp):
        index = _index(n=400, dims=dims, eps={2: 0.7, 3: 1.2, 6: 2.5}[dims])
        costs = selfjoin_cell_costs(index, unicomp)
        assert costs.dtype == np.int64
        assert costs.shape == (index.num_nonempty_cells,)
        if not unicomp:
            assert np.array_equal(
                costs,
                index.cell_counts * candidate_counts(index))
        # Any cell subset's cost is the distance work of joining it.
        for cells in (None, np.arange(3, index.num_nonempty_cells, 4)):
            stats = VectorizedBackend("numpy").run_selfjoin(
                index, index.eps, cells, PairFragments(index.num_points),
                unicomp=unicomp)
            want = costs.sum() if cells is None else costs[cells].sum()
            assert int(want) == stats.distance_calcs

    def test_cell_costs_past_the_adjacency_bound(self, monkeypatch):
        # No adjacency is kept, so the costs come from a plain walk.
        import repro.core.kernels as K

        monkeypatch.setattr(K, "_ADJACENCY_BYTES_PER_POINT_BYTE", 0)
        index = _index(n=400, dims=3, eps=1.2)
        costs = selfjoin_cell_costs(index, True)
        assert index.cached(("cell_pairs", True), lambda: "unused") is None
        stats = VectorizedBackend("numpy").run_selfjoin(
            index, index.eps, None, PairFragments(index.num_points),
            unicomp=True)
        assert int(costs.sum()) == stats.distance_calcs

    def test_cell_costs_are_kept_on_the_index(self):
        index = _index()
        costs = selfjoin_cell_costs(index, True)
        assert selfjoin_cell_costs(index, True) is costs
        assert not costs.flags.writeable
        assert index.cached_nbytes() >= costs.nbytes

    def test_probe_row_costs_are_the_probe_distance_calcs(self):
        # Some queries lie outside the data box: they clip into the edge
        # cells and probe the same candidates the kernel evaluates.
        index = _index(n=500, dims=3, eps=0.8)
        queries = np.random.default_rng(7).uniform(-2.0, 8.0, (300, 3))
        assert (queries < 0).any() and (queries > 6).any()
        costs = probe_row_costs(queries, index)
        assert costs.dtype == np.int64 and costs.shape == (300,)
        stats = VectorizedBackend("numpy").run_probe(
            queries, index, index.eps, PairFragments(queries.shape[0]))
        assert int((costs - 1).sum()) == stats.distance_calcs

    def test_probe_row_costs_reflect_density(self):
        # Index has a dense blob near the origin and nothing elsewhere; a
        # query in the blob must cost more than a query in empty space.
        data = uniform_dataset(300, 2, seed=1, low=0.0, high=1.0)
        index = GridIndex.build(data, 0.5)
        queries = np.array([[0.5, 0.5], [50.0, 50.0]])
        costs = probe_row_costs(queries, index)
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
