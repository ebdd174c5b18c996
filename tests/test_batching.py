"""Unit tests for the result-set batching scheme (Section V-A)."""

from __future__ import annotations

import os
import resource
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.core.batching import (
    PAIR_BYTES,
    BatchPlanner,
    data_bytes,
    execute_batched,
    host_memory_bytes,
    split_cells_balanced,
)
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments


def selfjoin(index, eps, unicomp=False):
    """The unbatched self-join: its result and stats."""
    sink = PairFragments(index.num_points)
    stats = run_selfjoin(index, eps, sink, unicomp=unicomp)
    return sink.to_result_set(), stats


class TestSplitCells:
    def test_covers_all_cells_exactly_once(self, index_2d):
        batches = split_cells_balanced(index_2d, 5)
        combined = np.concatenate(batches)
        assert np.array_equal(np.sort(combined),
                              np.arange(index_2d.num_nonempty_cells))

    def test_batches_are_contiguous(self, index_2d):
        batches = split_cells_balanced(index_2d, 4)
        for batch in batches:
            if batch.size:
                assert np.array_equal(batch, np.arange(batch[0], batch[-1] + 1))

    def test_balanced_by_points(self, index_2d):
        batches = split_cells_balanced(index_2d, 3)
        per_batch_points = [int(index_2d.cell_counts[b].sum()) for b in batches]
        total = sum(per_batch_points)
        for points in per_batch_points:
            assert points < 0.6 * total  # no batch dominates

    def test_more_batches_than_cells(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        index = GridIndex.build(pts, 1.0)
        batches = split_cells_balanced(index, 10)
        assert len(batches) <= index.num_nonempty_cells
        assert sum(b.size for b in batches) == index.num_nonempty_cells

    def test_invalid_batch_count(self, index_2d):
        with pytest.raises(ValueError):
            split_cells_balanced(index_2d, 0)


class TestPlanner:
    def test_minimum_three_batches(self, index_2d, eps_2d):
        planner = BatchPlanner(min_batches=3)
        plan = planner.plan(index_2d, partial(run_selfjoin, index_2d, eps_2d))
        assert plan.n_batches >= 3

    def test_estimate_within_factor_of_truth(self, index_2d, eps_2d):
        planner = BatchPlanner(sample_fraction=0.25, seed=3)
        estimate = planner.estimate_result_pairs(
            index_2d, partial(run_selfjoin, index_2d, eps_2d))
        truth = selfjoin(index_2d, eps_2d)[0].num_pairs
        assert 0.3 * truth <= estimate <= 3.0 * truth

    def test_estimate_full_sample_is_exact(self, index_2d, eps_2d):
        planner = BatchPlanner(sample_fraction=1.0, max_sample_cells=10 ** 9)
        estimate = planner.estimate_result_pairs(
            index_2d, partial(run_selfjoin, index_2d, eps_2d))
        truth = selfjoin(index_2d, eps_2d)[0].num_pairs
        assert estimate == truth

    def test_small_memory_forces_more_batches(self, index_2d, eps_2d):
        truth = selfjoin(index_2d, eps_2d)[0].num_pairs
        tiny_bytes = data_bytes(index_2d) + truth * PAIR_BYTES // 4
        planner = BatchPlanner(memory_bytes=int(tiny_bytes), min_batches=3,
                               result_buffer_fraction=1.0, sample_fraction=1.0,
                               max_sample_cells=10 ** 9)
        plan = planner.plan(index_2d, partial(run_selfjoin, index_2d, eps_2d))
        assert plan.n_batches > 3

    def test_plan_requires_kernel_or_estimate(self, index_2d):
        planner = BatchPlanner()
        with pytest.raises(ValueError):
            planner.plan(index_2d)
        plan = planner.plan(index_2d, estimated_pairs=1000)
        assert plan.estimated_total_pairs == 1000

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BatchPlanner(memory_bytes=0)
        with pytest.raises(ValueError):
            BatchPlanner(min_batches=0)
        with pytest.raises(ValueError):
            BatchPlanner(sample_fraction=0.0)
        with pytest.raises(ValueError):
            BatchPlanner(result_buffer_fraction=1.5)

    def test_default_memory_is_host_memory(self):
        assert BatchPlanner().memory_bytes == host_memory_bytes()

    def test_host_memory_honours_finite_address_space_limit(self, monkeypatch):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        cap = 64 * 1024 * 1024
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (cap, resource.RLIM_INFINITY))
        assert host_memory_bytes() == min(physical, cap)
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (resource.RLIM_INFINITY,
                                           resource.RLIM_INFINITY))
        assert host_memory_bytes() == physical

    def test_plan_covers_all_cells(self, index_3d, eps_3d):
        plan = BatchPlanner().plan(index_3d,
                                   partial(run_selfjoin, index_3d, eps_3d))
        assert plan.total_cells() == index_3d.num_nonempty_cells


class TestExecuteBatched:
    def test_batched_equals_unbatched_global(self, index_2d, eps_2d):
        plan = BatchPlanner(min_batches=4).plan(
            index_2d, partial(run_selfjoin, index_2d, eps_2d))
        result, stats, report = execute_batched(index_2d, eps_2d, plan)
        full, _ = selfjoin(index_2d, eps_2d)
        assert result.same_pairs_as(full)
        assert report.total_pairs == result.num_pairs

    def test_batched_equals_unbatched_unicomp(self, index_3d, eps_3d):
        plan = BatchPlanner(min_batches=3).plan(
            index_3d, partial(run_selfjoin, index_3d, eps_3d, unicomp=True))
        result, stats, report = execute_batched(index_3d, eps_3d, plan,
                                                unicomp=True)
        full, _ = selfjoin(index_3d, eps_3d, unicomp=True)
        assert result.same_pairs_as(full)

    def test_adaptive_split_on_overflow(self, index_2d, eps_2d):
        # Deliberately under-size the buffer so batches must split.
        plan = BatchPlanner(min_batches=3).plan(
            index_2d, partial(run_selfjoin, index_2d, eps_2d))
        full, _ = selfjoin(index_2d, eps_2d)
        truth = full.num_pairs
        small_plan = replace(plan, buffer_capacity_pairs=max(1, truth // 10))
        result, _, report = execute_batched(index_2d, eps_2d, small_plan)
        assert report.splits_performed > 0
        assert result.same_pairs_as(full)

    def test_pipeline_report_present(self, index_2d, eps_2d):
        plan = BatchPlanner().plan(index_2d,
                                   partial(run_selfjoin, index_2d, eps_2d))
        _, _, report = execute_batched(index_2d, eps_2d, plan, n_streams=3)
        assert report.pipeline is not None
        assert report.pipeline.n_batches == len(report.batch_pairs)
        assert report.pipeline.overlapped_time <= report.pipeline.serial_time + 1e-12

    def test_stats_accumulated_across_batches(self, index_2d, eps_2d):
        plan = BatchPlanner(min_batches=4).plan(
            index_2d, partial(run_selfjoin, index_2d, eps_2d))
        _, stats, _ = execute_batched(index_2d, eps_2d, plan)
        _, unbatched = selfjoin(index_2d, eps_2d)
        assert stats.distance_calcs == unbatched.distance_calcs
        assert stats.result_pairs == unbatched.result_pairs

    @pytest.mark.parametrize("spare", [0, -1], ids=["fits", "overflows"])
    def test_overflow_check_counts_expanded_unicomp_pairs(self, index_3d,
                                                          eps_3d, spare):
        # A UNICOMP sink stores each mirrored match once, but its result
        # buffer holds both ordered pairs: a buffer one pair short of the
        # expanded count must overflow and split, whatever the compact
        # count.
        from repro.core.batching import BatchPlan
        from repro.engine import Query, QueryPlanner, execute

        query = Query.self_join(index_3d.points, eps_3d)
        # The NumPy tier keeps mirrored matches compact (numba expands).
        plan = QueryPlanner("vectorized(kernel=numpy)").plan(query,
                                                             index=index_3d)
        serial = execute(plan)
        expanded = serial.fragments.num_pairs
        compact = sum(keys.shape[0] for keys in serial.fragments.columns()[0])
        assert compact < expanded + spare
        cells = np.arange(index_3d.num_nonempty_cells, dtype=np.int64)
        batched = execute(replace(plan, batch_plan=BatchPlan(
            cell_batches=[cells], estimated_total_pairs=expanded,
            buffer_capacity_pairs=expanded + spare)))
        assert (batched.batch_report.splits_performed > 0) == (spare < 0)
        assert sum(batched.batch_report.batch_pairs) == expanded \
            == batched.stats.result_pairs
        assert batched.neighbor_table.same_contents_as(serial.neighbor_table)
