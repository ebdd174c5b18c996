"""Parity and registry tests for the parallel execution subsystem.

The ``sharded`` and ``multiprocess`` backends must be pair-identical to the
``vectorized`` backend and to brute force on every query kind, across
dimensionalities, with and without UNICOMP, and for shard counts that
exercise the degenerate (1), even (2) and uneven (7) decompositions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_selfjoin
from repro.core.batching import BatchPlanner
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.engine import (
    BackendUnavailableError,
    EngineSession,
    Query,
    QueryPlanner,
    available_backends,
    backend_availability,
    execute,
    get_backend,
    list_backends,
    register_lazy_backend,
    run_query,
)
from repro.engine.backends import BACKENDS, _INSTANCES
from repro.parallel import MultiprocessBackend, ShardedBackend

ALL_DIMS = [2, 3, 4, 5, 6]
POINTS_BY_DIM = {2: 120, 3: 100, 4: 80, 5: 60, 6: 40}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}


def _dataset(dims, seed_base=40):
    return uniform_dataset(POINTS_BY_DIM[dims], dims, seed=seed_base + dims,
                           low=0.0, high=4.0)


def _table(points, eps, backend, unicomp):
    planner = QueryPlanner(backend=backend)
    query = Query.self_join(points, eps, unicomp=unicomp)
    return execute(planner.plan(query)).neighbor_table


class TestShardedParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_selfjoin_matches_vectorized_and_bruteforce(self, dims, unicomp,
                                                        n_shards):
        points = _dataset(dims)
        eps = EPS_BY_DIM[dims]
        reference = _table(points, eps, "vectorized", unicomp)
        brute = bruteforce_selfjoin(points, eps).result.to_neighbor_table()
        assert reference.same_contents_as(brute)
        table = _table(points, eps, f"sharded({n_shards})", unicomp)
        assert table.same_contents_as(reference), (dims, unicomp, n_shards)

    def test_bipartite_and_range_parity(self):
        left = uniform_dataset(90, 3, seed=81, low=0.0, high=4.0)
        right = uniform_dataset(130, 3, seed=91, low=0.0, high=4.0)
        ref = run_query(Query.bipartite_join(left, right, 1.0)).neighbor_table
        assert run_query(Query.bipartite_join(left, right, 1.0),
                         backend="sharded(7)").neighbor_table \
            .same_contents_as(ref)
        ref_range = run_query(Query.range_query(right, left, 1.0)).neighbor_table
        assert run_query(Query.range_query(right, left, 1.0),
                         backend="sharded(2)").neighbor_table \
            .same_contents_as(ref_range)


class TestMultiprocessParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_selfjoin_matches_vectorized_and_bruteforce(self, dims, unicomp):
        points = _dataset(dims, seed_base=50)
        eps = EPS_BY_DIM[dims]
        reference = _table(points, eps, "vectorized", unicomp)
        brute = bruteforce_selfjoin(points, eps).result.to_neighbor_table()
        assert reference.same_contents_as(brute)
        table = _table(points, eps, "multiprocess(2)", unicomp)
        assert table.same_contents_as(reference), (dims, unicomp)

    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_shard_counts(self, n_shards):
        points = _dataset(2)
        eps = EPS_BY_DIM[2]
        reference = _table(points, eps, "vectorized", True)
        backend = MultiprocessBackend(n_workers=2, n_shards=n_shards)
        sink = PairFragments(points.shape[0])
        from repro.core.gridindex import GridIndex
        index = GridIndex.build(points, eps)
        backend.run_selfjoin(index, eps, None, sink, unicomp=True)
        assert sink.to_neighbor_table().same_contents_as(reference)

    def test_bipartite_range_and_knn_parity(self):
        left = uniform_dataset(80, 3, seed=18, low=0.0, high=4.0)
        right = uniform_dataset(120, 3, seed=19, low=0.0, high=4.0)
        ref = run_query(Query.bipartite_join(left, right, 1.0)).neighbor_table
        assert run_query(Query.bipartite_join(left, right, 1.0),
                         backend="multiprocess(2)").neighbor_table \
            .same_contents_as(ref)
        ref_range = run_query(Query.range_query(right, left, 1.0)).neighbor_table
        assert run_query(Query.range_query(right, left, 1.0),
                         backend="multiprocess(2)").neighbor_table \
            .same_contents_as(ref_range)
        ref_knn = run_query(Query.knn_candidates(right, 4),
                            backend="vectorized")
        mp_knn = run_query(Query.knn_candidates(right, 4),
                           backend="multiprocess(2)")
        assert np.all(mp_knn.neighbor_table.counts() >= 4)
        assert np.all(ref_knn.neighbor_table.counts() >= 4)

    def test_stats_survive_the_pool(self):
        points = _dataset(2)
        result = run_query(Query.self_join(points, EPS_BY_DIM[2]),
                           backend="multiprocess(2)")
        serial = run_query(Query.self_join(points, EPS_BY_DIM[2]),
                           backend="vectorized")
        assert result.stats.result_pairs == serial.stats.result_pairs
        assert result.stats.distance_calcs == serial.stats.distance_calcs

    def test_engine_runner_label(self):
        from repro.experiments.runner import run_algorithm

        points = _dataset(2)
        mean, _std, pairs = run_algorithm("Engine[multiprocess(2)]", points,
                                          EPS_BY_DIM[2])
        _mean, _std, ref_pairs = run_algorithm("Engine[vectorized]", points,
                                               EPS_BY_DIM[2])
        assert pairs == ref_pairs
        assert mean > 0


class TestRegistry:
    def test_parameterized_lookup(self):
        backend = get_backend("multiprocess(3)")
        assert isinstance(backend, MultiprocessBackend)
        assert backend.n_workers == 3
        assert get_backend("multiprocess(3)") is backend  # cached
        sharded = get_backend("sharded(4, kernel=numpy)")
        assert isinstance(sharded, ShardedBackend)
        assert sharded.n_shards == 4 and sharded.tier == "numpy"
        # No inner backend: a second positional argument is the tier.
        with pytest.raises(ValueError, match="unknown kernel spec"):
            get_backend("sharded(4, cellwise)")

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(KeyError, match="vectorized"):
            get_backend("quantum")

    def test_malformed_name_rejected(self):
        with pytest.raises(KeyError):
            get_backend("multi process")

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            get_backend("vectorized(3, 4, 5)")

    def test_lazy_backends_listed_and_available(self):
        names = list_backends()
        assert {"sharded", "multiprocess"} <= set(names)
        assert {"sharded", "multiprocess"} <= set(available_backends())
        status = backend_availability()
        assert status["sharded"] is None
        assert status["multiprocess"] is None

    def test_missing_module_backend_listed_but_unavailable(self):
        # A lazily registered backend whose module cannot be imported stays
        # *listed*, and the availability report and the lookup error both
        # name the failed import instead of an unknown-backend KeyError.
        saved = dict(BACKENDS)
        register_lazy_backend("needsdep", "repro_no_such_module_xyz")
        try:
            assert "needsdep" in list_backends()
            assert "needsdep" not in available_backends()
            reason = backend_availability()["needsdep"]
            assert reason is not None and "repro_no_such_module_xyz" in reason
            with pytest.raises(BackendUnavailableError,
                               match="repro_no_such_module_xyz"):
                get_backend("needsdep")
            # Still a KeyError for callers using the old contract.
            with pytest.raises(KeyError):
                QueryPlanner(backend="needsdep")
        finally:
            BACKENDS.clear()
            BACKENDS.update(saved)
            _INSTANCES.pop("needsdep", None)

    def test_planner_skips_device_batching_for_owning_backends(self):
        points = uniform_dataset(300, 2, seed=3, low=0.0, high=10.0)
        plan = QueryPlanner(backend="sharded").plan(Query.self_join(points, 0.8))
        assert plan.batch_plan is None
        plan = QueryPlanner(backend="vectorized",
                            batch_planner=BatchPlanner(min_batches=3)).plan(
            Query.self_join(points, 0.8))
        assert plan.batch_plan is not None


class TestExactShardCosts:
    """A self-join's shard plan costs exactly the work its shards report.

    Each cell's cost is its distance calculations
    (:func:`repro.core.kernels.selfjoin_cell_costs`), so the plan's total
    is the join's ``distance_calcs`` and the schedule report's predicted
    and achieved costs are equal, under UNICOMP and GLOBAL, on an index
    over every dim and on one over ``k < n`` dims.
    """

    @pytest.mark.parametrize("unicomp", [False, True],
                             ids=["global", "unicomp"])
    @pytest.mark.parametrize("dims,index_dims", [
        (2, None), (3, None), (4, None), (5, None), (6, None),
        (6, (0, 1, 2, 3))])
    def test_predicted_cost_is_achieved_cost(self, dims, index_dims, unicomp):
        from repro.core.gridindex import GridIndex
        from repro.parallel.shards import ShardPlanner

        eps = EPS_BY_DIM[dims]
        index = GridIndex.build(_dataset(dims), eps, dims=index_dims)
        backend = ShardedBackend(3, kernel="numpy")
        backend.scheduling = "static"
        reports = []
        backend._record_schedule = reports.append
        stats = backend.run_selfjoin(index, eps, None,
                                     PairFragments(index.num_points),
                                     unicomp=unicomp)
        plan = ShardPlanner(n_shards=3).plan(index, unicomp=unicomp)
        assert plan.n_shards == 3
        assert int(plan.estimated_costs.sum()) == stats.distance_calcs
        (report,) = reports
        assert report.predicted_cost == report.achieved_cost \
            == stats.distance_calcs
        assert stats.schedule_counts["cost_ratio_pct"] == 100

    def test_streamed_plan_reports_no_cost_ratio(self, tmp_path):
        # A streamed join costs its shards in stored points, which no
        # counter measures: comparing them with distance_calcs read 2418%
        # on this join, so the report carries no prediction and no ratio.
        from repro.data.store import SpatialStore

        points = uniform_dataset(3000, 2, seed=23, low=0.0, high=1.0)
        store = SpatialStore.write(points, tmp_path / "store")
        backend = ShardedBackend(4, kernel="numpy")
        reports = []
        backend._record_schedule = reports.append
        sink = PairFragments(store.n_points)
        stats = backend.run_selfjoin_streamed(store, 0.3, sink)
        (report,) = reports
        assert report.shards == 4
        assert report.predicted_cost == report.achieved_cost == 0.0
        assert report.cost_ratio == 0.0
        assert "cost_ratio_pct" not in stats.schedule_counts
        assert stats.distance_calcs > 0
        reference = run_query(Query.self_join(points, 0.3)).neighbor_table
        assert sink.to_neighbor_table().same_contents_as(reference)

    def test_merged_cost_ratio_is_total_achieved_over_total_predicted(self):
        # kNN candidates double the radius round by round, one probe per
        # round; the call's ratio must come from the summed costs (the
        # per-round percentages once added up to 469 here).
        points = np.random.default_rng(0).uniform(0, 1, (3000, 2))
        backend = ShardedBackend(4)
        reports = []
        backend._record_schedule = reports.append
        with EngineSession(points, backend=backend) as session:
            result = session.knn_candidates(8, points[:300], cell_width=0.002)
        assert len(reports) > 1
        achieved = sum(report.achieved_cost for report in reports)
        predicted = sum(report.predicted_cost for report in reports)
        counts = result.stats.schedule_counts
        assert counts["cost_ratio_pct"] == round(100 * achieved / predicted)
        assert counts["shards"] == sum(report.shards for report in reports)


def _distributed_backend():
    from repro.distributed import DistributedBackend

    return DistributedBackend(2)


class TestShardStats:
    """Every shard backend counts its datasets and schedules the same way,
    in the shared lifecycle and dispatch loop."""

    @pytest.mark.parametrize("make_backend", [
        lambda: ShardedBackend(4), lambda: MultiprocessBackend(2),
        _distributed_backend], ids=["sharded", "multiprocess", "distributed"])
    def test_totals_are_the_sum_of_the_joins(self, make_backend):
        points = uniform_dataset(400, 2, seed=31, low=0.0, high=4.0)
        queries = uniform_dataset(60, 2, seed=32, low=0.0, high=4.0)
        backend = make_backend()
        try:
            with EngineSession(points, backend=backend) as session:
                joins = [session.self_join(0.4),
                         session.range_query(queries, 0.4)]
            stats = backend.stats
            calls = [join.stats.schedule_counts for join in joins]
            assert all(calls)
            assert set(stats.schedule) == set(calls[0]) | set(calls[1])
            for counter, total in stats.schedule.items():
                if counter != "cost_ratio_pct":
                    assert total == sum(c.get(counter, 0) for c in calls)
            assert stats.schedule["cost_ratio_pct"] == round(
                100 * stats.schedule["achieved_cost"]
                / stats.schedule["predicted_cost"])
            assert stats.schedule["dispatches"] >= stats.schedule["shards"] > 0
            assert stats.last_schedule.shards == calls[1]["shards"]
            assert stats.datasets_opened == stats.datasets_closed == 1
            json.dumps(stats.snapshot())
        finally:
            backend.shutdown()
