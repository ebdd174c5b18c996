"""Who walks the grid for a self-join's costs, how often, and what it keeps.

A backend whose shards run in other processes (``multiprocess``,
``distributed``) only plans on the caller's index: that index walks for
its per-cell costs alone and keeps the cost vector and nothing else
(:func:`repro.core.kernels.selfjoin_plan_costs`).  An index that emits in
this process (``vectorized``, inline ``sharded``, a worker's) fills its
cell-pair adjacency on the first cost query and reads it back, so a cold
self-join walks each source cell once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels as K
from repro.core.batching import PAIR_BYTES, BatchPlanner, data_bytes
from repro.core.gridindex import GridIndex
from repro.data.synthetic import exponential_dataset, uniform_dataset
from repro.distributed import WorkerThread
from repro.engine import Query, QueryPlanner, execute, run_query
from repro.parallel.compute import ShardDataset, run_shard

EPS = 0.12


def _points():
    return uniform_dataset(600, 3, seed=3, low=0.0, high=1.0)


@pytest.fixture(scope="module")
def workers():
    threads = [WorkerThread().start() for _ in range(2)]
    yield [thread.address for thread in threads]
    for thread in threads:
        thread.stop()


def _assert_keeps_costs_only(index, unicomp):
    """``index`` keeps its ``unicomp`` cost vector and nothing else: no
    adjacency and no cell-ordered copy of the points."""
    assert set(index._derived) == {("cell_costs", unicomp)}
    assert index.cached_nbytes() \
        <= index._derived[("cell_costs", unicomp)].nbytes


class TestDriverKeepsCostsOnly:
    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("backend", ["multiprocess", "distributed"])
    def test_after_a_remote_selfjoin(self, workers, backend, unicomp):
        points = _points()
        spec = "multiprocess(2, kernel=numpy)" if backend == "multiprocess" \
            else "distributed(" + ", ".join(
                f"{host}:{port}" for host, port in workers) + ")"
        query = Query.self_join(points, EPS, unicomp=unicomp)
        index = GridIndex.build(points, EPS)
        result = run_query(query, index=index, backend=spec)
        _assert_keeps_costs_only(index, unicomp)
        reference = run_query(query, backend="vectorized")
        assert result.neighbor_table.same_contents_as(reference.neighbor_table)
        assert result.stats.distance_calcs == reference.stats.distance_calcs
        assert result.stats.schedule_counts["predicted_cost"] \
            == result.stats.distance_calcs


class TestPlanCostsEqualTheAdjacencyCosts:
    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("case", ["all-dims", "k<n", "sparse"])
    def test_same_vector(self, unicomp, case):
        if case == "sparse":
            # A grid with far more cells than the walk's rows: the cell
            # lookups binary-search B.
            points, eps, dims = exponential_dataset(
                3000, 3, scale=10.0, seed=2), 0.4, None
        else:
            points = uniform_dataset(800, 4, seed=4, low=0.0, high=1.0)
            eps, dims = 0.15, (None if case == "all-dims" else (0, 2))
        walked = GridIndex.build(points, eps, dims=dims)
        planned = GridIndex.build(points, eps, dims=dims)
        adjacency = K._adjacency(walked, unicomp)
        assert adjacency is not None
        costs = K.selfjoin_plan_costs(planned, unicomp)
        assert costs.dtype == np.int64 and not costs.flags.writeable
        assert np.array_equal(costs, adjacency.costs)
        assert K.selfjoin_plan_costs(planned, unicomp) is costs
        _assert_keeps_costs_only(planned, unicomp)

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_past_the_byte_bound(self, monkeypatch, unicomp):
        points = uniform_dataset(800, 4, seed=4, low=0.0, high=1.0)
        expected = K._adjacency(GridIndex.build(points, 0.15), unicomp).costs
        monkeypatch.setattr(K, "_ADJACENCY_BYTES_PER_POINT_BYTE", 0)
        index = GridIndex.build(points, 0.15)
        costs = K.selfjoin_cell_costs(index, unicomp)
        assert K._adjacency(index, unicomp) is None
        assert np.array_equal(costs, expected)
        assert index._derived[("cell_costs", unicomp)] is costs


class TestAdmitRows:
    @pytest.mark.parametrize("size", [1, 40])
    def test_table_and_search_admit_alike(self, size):
        rng = np.random.default_rng(size)
        extent = 30
        mask = np.unique(rng.integers(0, extent, 12))
        # Coordinates in and around the grid: the table is taken for 40
        # of them (120 moved coordinates against 32 entries), not for one.
        coords = rng.integers(-3, extent + 3, size)
        moved = coords + np.arange(-1, 2)[:, None]
        expected = np.isin(moved, mask)
        assert np.array_equal(K._admit_rows(mask, extent, coords), expected)


@pytest.fixture
def walked_rows(monkeypatch):
    """The source cells passed to the walker, summed over its calls."""
    rows = []
    walk = K._walk_cell_pairs

    def counting(index, coords, unicomp=False):
        rows.append(coords.shape[0])
        return walk(index, coords, unicomp)

    monkeypatch.setattr(K, "_walk_cell_pairs", counting)
    return rows


class TestColdSelfJoinWalksOnce:
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_vectorized_reads_back_its_cost_walk(self, walked_rows, unicomp):
        points = _points()
        index = GridIndex.build(points, EPS)
        n = index.num_points
        # n² pairs do not fit, so planning reads the exact bound (the
        # index's costs), which fits: one batch, no sample.
        planner = BatchPlanner(
            memory_bytes=data_bytes(index) + 2 * PAIR_BYTES * (n * n - 1),
            min_batches=1)
        assert planner.buffer_capacity_pairs(index) == n * n - 1
        plan = QueryPlanner(batch_planner=planner).plan(
            Query.self_join(points, EPS, unicomp=unicomp), index=index)
        assert plan.batch_plan is None
        assert isinstance(index._derived[("cell_pairs", unicomp)],
                          K.CellAdjacency)
        execute(plan).neighbor_table
        assert sum(walked_rows) == index.num_nonempty_cells

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_inline_sharded(self, walked_rows, unicomp):
        points = _points()
        index = GridIndex.build(points, EPS)
        run_query(Query.self_join(points, EPS, unicomp=unicomp), index=index,
                  backend="sharded(3, kernel=numpy)").neighbor_table
        assert sum(walked_rows) == index.num_nonempty_cells

    def test_a_workers_shards(self, walked_rows):
        points = _points()
        dataset = ShardDataset(points=points, kernel="numpy")
        n_cells = dataset.index_for(EPS).num_nonempty_cells
        params = {"index_eps": EPS, "eps": EPS, "unicomp": True}
        for cells in np.array_split(np.arange(n_cells), 3):
            run_shard(dataset, "selfjoin", params, cells)
        assert sum(walked_rows) == n_cells
