"""Tests for the engine API surface and the legacy-wrapper regressions.

Covers the Query/QueryPlanner surface, the CSR-native pipeline's
bit-identity with the legacy pair-list path, the ``JoinReport.avg_neighbors``
fix, and the ``join_index`` / ``join`` parity regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GPUSelfJoin, Query, QueryPlanner, SelfJoinConfig, run_query
from repro.core.batching import PAIR_BYTES, BatchPlanner, data_bytes
from repro.core.gridindex import GridIndex
from repro.core.kernels import selfjoin_cell_costs
from repro.data.realworld import sw_dataset
from repro.data.synthetic import uniform_dataset
from repro.engine import execute, get_backend, list_backends
from repro.engine.query import KNN_CANDIDATES, QUERY_KINDS


class TestQueryDescriptions:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Query(kind="teleport", points=np.zeros((3, 2)))

    def test_kinds_enumerated(self):
        assert "self_join" in QUERY_KINDS and KNN_CANDIDATES in QUERY_KINDS

    def test_dimension_mismatch_rejected(self):
        a = uniform_dataset(10, 2, seed=0)
        b = uniform_dataset(10, 3, seed=0)
        with pytest.raises(ValueError):
            Query.bipartite_join(a, b, 1.0)
        with pytest.raises(ValueError):
            Query.range_query(a, b, 1.0)
        with pytest.raises(ValueError):
            Query.knn_candidates(a, 2, queries=b)

    def test_invalid_eps_and_k(self):
        pts = uniform_dataset(10, 2, seed=0)
        with pytest.raises(ValueError):
            Query.self_join(pts, 0.0)
        with pytest.raises(ValueError):
            Query.knn_candidates(pts, 0)

    def test_num_rows_tracks_query_side(self):
        data = uniform_dataset(30, 2, seed=1)
        queries = uniform_dataset(7, 2, seed=2)
        assert Query.self_join(data, 1.0).num_rows == 30
        assert Query.range_query(data, queries, 1.0).num_rows == 7


class TestPlannerAndRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            QueryPlanner(backend="quantum")
        with pytest.raises(KeyError):
            get_backend("quantum")

    def test_registry_contents(self):
        assert {"vectorized", "simulated", "bruteforce"} <= set(list_backends())
        assert not {"cellwise", "pointwise"} & set(list_backends())
        for name in ("cellwise", "pointwise"):
            with pytest.raises(KeyError):
                get_backend(name)

    def test_self_join_batch_plan_created(self):
        pts = uniform_dataset(300, 2, seed=3, low=0.0, high=10.0)
        plan = QueryPlanner(batch_planner=BatchPlanner(min_batches=3)).plan(
            Query.self_join(pts, 0.8))
        assert plan.batch_plan is not None
        assert plan.batch_plan.n_batches >= 3
        assert plan.unicomp is True

    def test_unicomp_disabled_for_unsupported_backend(self):
        pts = uniform_dataset(50, 2, seed=4)
        plan = QueryPlanner(backend="bruteforce").plan(
            Query.self_join(pts, 0.5, unicomp=True))
        assert plan.unicomp is False

    def test_prebuilt_index_mismatch_rejected(self):
        from repro.core.gridindex import GridIndex

        left = uniform_dataset(40, 2, seed=5)
        right = uniform_dataset(50, 2, seed=6)
        wrong = GridIndex.build(uniform_dataset(60, 2, seed=7), 1.0)
        with pytest.raises(ValueError):
            QueryPlanner().plan(Query.bipartite_join(left, right, 1.0), index=wrong)

    def test_run_query_rejects_planner_plus_kwargs(self):
        pts = uniform_dataset(20, 2, seed=8)
        with pytest.raises(ValueError):
            run_query(Query.self_join(pts, 0.5), planner=QueryPlanner(),
                      backend="bruteforce")


class TestCSRNativeBitIdentity:
    """Acceptance: CSR-native tables are bit-identical to the seed path."""

    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("batching", [False, True])
    def test_uniform_workload(self, unicomp, batching):
        # Fig-4-style workload: uniform surrogate at a scaled-down size.
        points = sw_dataset(1200, n_dims=2, seed=20)
        eps = 2.0
        result = run_query(Query.self_join(points, eps, unicomp=unicomp,
                                           batching=batching))
        native = result.neighbor_table
        legacy = result.result_set.to_neighbor_table()  # seed pair-list path
        assert native.num_pairs > 0
        assert native.same_contents_as(legacy)
        native.validate()

    def test_pair_view_roundtrip(self):
        points = uniform_dataset(300, 3, seed=21, low=0.0, high=6.0)
        result = run_query(Query.self_join(points, 0.8))
        table = result.neighbor_table
        view = table.to_result_set()
        assert view.same_pairs_as(result.result_set)
        # The view shares the CSR neighbor array (thin view, no copy).
        assert view.values is table.neighbors
        # The sink's own CSR finalization agrees with the engine's.
        assert result.fragments.to_neighbor_table().same_contents_as(table)


class TestJoinReportAvgNeighbors:
    def test_include_self_subtracts_self_pair(self):
        points = uniform_dataset(400, 2, seed=22, low=0.0, high=10.0)
        _, report = GPUSelfJoin(SelfJoinConfig(include_self=True)) \
            .join_with_report(points, 0.9)
        assert report.includes_self_pairs
        expected = report.num_pairs / report.num_points - 1.0
        assert report.avg_neighbors == pytest.approx(expected)

    def test_exclude_self_does_not_subtract(self):
        points = uniform_dataset(400, 2, seed=22, low=0.0, high=10.0)
        with_self, rep_with = GPUSelfJoin(SelfJoinConfig(include_self=True)) \
            .join_with_report(points, 0.9)
        without, rep_without = GPUSelfJoin(SelfJoinConfig(include_self=False)) \
            .join_with_report(points, 0.9)
        assert rep_without.num_pairs == rep_with.num_pairs - points.shape[0]
        # Same physical quantity either way: neighbors excluding oneself.
        assert rep_without.avg_neighbors == pytest.approx(rep_with.avg_neighbors)
        assert rep_without.avg_neighbors == pytest.approx(
            without.num_pairs / points.shape[0])


class TestJoinIndexParity:
    """Regression: ``join_index`` honors the config exactly like ``join``."""

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("sort_result", [True, False])
    def test_same_output_as_join(self, include_self, sort_result):
        points = uniform_dataset(350, 2, seed=23, low=0.0, high=8.0)
        eps = 0.8
        joiner = GPUSelfJoin(SelfJoinConfig(include_self=include_self,
                                            sort_result=sort_result))
        via_join = joiner.join(points, eps)
        via_index = joiner.join_index(joiner.build_index(points, eps))
        assert via_index.num_pairs == via_join.num_pairs
        assert np.array_equal(via_index.keys, via_join.keys)
        assert np.array_equal(via_index.values, via_join.values)
        if not include_self:
            assert not np.any(via_index.keys == via_index.values)
        if sort_result:
            assert np.all(np.diff(via_index.keys) >= 0)


class TestEngineTimingAndStats:
    def test_kernel_time_and_stats_populated(self):
        points = uniform_dataset(300, 2, seed=24, low=0.0, high=8.0)
        result = run_query(Query.self_join(points, 0.8),
                           batch_planner=BatchPlanner(min_batches=3))
        assert result.kernel_time >= 0.0
        assert result.stats.result_pairs == result.fragments.num_pairs
        assert result.stats.distance_calcs >= result.num_pairs
        assert result.batch_report is not None
        assert result.batch_report.total_pairs == result.fragments.num_pairs


def _planner_holding(index, pairs):
    """A default-config batch planner whose buffer holds exactly ``pairs``."""
    return BatchPlanner(memory_bytes=data_bytes(index) + 2 * PAIR_BYTES * pairs,
                        min_batches=1)


class TestBatchOnlyWhenNeeded:
    """The default planner batches a self-join only when it may not fit."""

    @pytest.fixture
    def estimates(self, monkeypatch):
        calls = []
        original = BatchPlanner.estimate_result_pairs

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BatchPlanner, "estimate_result_pairs", counting)
        return calls

    @pytest.fixture
    def workload(self):
        points = uniform_dataset(300, 2, seed=25, low=0.0, high=8.0)
        return points, GridIndex.build(points, 0.8)

    def test_no_estimate_when_every_pair_fits(self, estimates, workload):
        points, index = workload
        plan = QueryPlanner().plan(Query.self_join(points, 0.8), index=index)
        assert plan.batch_plan is None
        assert estimates == []
        assert execute(plan).batch_report is None

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        backend = type(get_backend("vectorized"))
        original = backend.run_selfjoin

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(backend, "run_selfjoin", counting)
        return calls

    @staticmethod
    def result_bound(index, unicomp=True):
        """The exact result bound: distance calcs, twice under UNICOMP.
        Reading it fills the index's adjacency, as planning does."""
        return int(selfjoin_cell_costs(index, unicomp).sum()) \
            * (2 if unicomp else 1)

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_no_kernel_when_the_exact_bound_fits(self, estimates, kernel_calls,
                                                 workload, unicomp):
        points, index = workload
        bound = self.result_bound(index, unicomp)
        assert bound < points.shape[0] ** 2
        batch_planner = _planner_holding(index, bound)
        assert batch_planner.buffer_capacity_pairs(index) == bound
        plan = QueryPlanner(batch_planner=batch_planner).plan(
            Query.self_join(points, 0.8, unicomp=unicomp), index=index)
        assert plan.batch_plan is None
        assert estimates == [] and kernel_calls == []
        result = execute(plan)
        assert result.batch_report is None
        assert result.stats.result_pairs <= bound

    def test_one_batch_estimate_runs_unbatched(self, estimates, kernel_calls,
                                               workload):
        # Neither n² nor the exact bound fits, so the planner samples; the
        # padded estimate of a GLOBAL join, about half its bound here,
        # fits one buffer.
        points, index = workload
        bound = self.result_bound(index, unicomp=False)
        batch_planner = _planner_holding(index, bound - 1)
        assert batch_planner.buffer_capacity_pairs(index) == bound - 1
        plan = QueryPlanner(batch_planner=batch_planner).plan(
            Query.self_join(points, 0.8, unicomp=False), index=index)
        assert len(estimates) == 1 and len(kernel_calls) == 1
        assert plan.batch_plan is None

    def test_min_batches_still_samples(self, estimates, workload):
        points, index = workload
        plan = QueryPlanner(batch_planner=BatchPlanner(min_batches=3)).plan(
            Query.self_join(points, 0.8), index=index)
        assert len(estimates) == 1
        assert plan.batch_plan is not None and plan.batch_plan.n_batches >= 3

    def test_result_over_buffer_is_batched_with_same_counters(self, workload):
        points, index = workload
        query = Query.self_join(points, 0.8)
        unbatched = run_query(query, index=index)
        true_pairs = unbatched.stats.result_pairs
        batched = run_query(
            query, index=index,
            batch_planner=_planner_holding(index, true_pairs // 3))
        assert batched.plan.batch_plan is not None
        assert batched.plan.batch_plan.n_batches > 1
        assert batched.neighbor_table.same_contents_as(unbatched.neighbor_table)
        for counter in ("cells_checked", "nonempty_cells_visited",
                        "distance_calcs", "result_pairs"):
            assert getattr(batched.stats, counter) \
                == getattr(unbatched.stats, counter), counter

    def test_paper_config_keeps_three_batches(self, estimates, workload):
        points, _ = workload
        result, report = GPUSelfJoin(SelfJoinConfig()).join_with_report(points,
                                                                        0.8)
        assert len(estimates) == 1
        assert report.batch_plan is not None
        assert report.batch_plan.n_batches >= 3
        assert report.batch_report is not None
        assert report.batch_report.total_pairs == result.num_pairs
