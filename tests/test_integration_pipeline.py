"""End-to-end integration tests: dataset → join → application / experiment."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import GPUSelfJoin, SelfJoinConfig
from repro.apps.dbscan import dbscan
from repro.core.batching import BatchPlanner, execute_batched
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments
from repro.data.datasets import load_dataset
from repro.data.synthetic import gaussian_clusters
from repro.experiments.runner import run_response_time_experiment


class TestDatasetToJoinPipeline:
    @pytest.mark.parametrize("dataset", ["Syn3D2M", "SW2DA", "SDSS2DA"])
    def test_registry_dataset_join(self, dataset):
        points = load_dataset(dataset, n_points=500, seed=0)
        joiner = GPUSelfJoin(SelfJoinConfig(validate_index=True))
        from repro.data.datasets import DATASETS
        eps = DATASETS[dataset].scaled_eps(500)[0]
        result, report = joiner.join_with_report(points, eps)
        assert result.num_pairs >= points.shape[0]  # at least the self-pairs
        assert report.batch_plan is not None and report.batch_plan.n_batches >= 3
        assert result.is_symmetric()

    def test_memory_constrained_join_forces_batches(self):
        points = load_dataset("Syn2D2M", n_points=2000, seed=1)
        eps = 4.0
        index = GridIndex.build(points, eps)

        planner = BatchPlanner(memory_bytes=256 * 1024, min_batches=3)
        plan = planner.plan(index, partial(run_selfjoin, index, eps,
                                           unicomp=True))
        assert plan.n_batches > 3
        result, _, report = execute_batched(index, eps, plan, unicomp=True)
        unbatched = PairFragments(index.num_points)
        run_selfjoin(index, eps, unbatched, unicomp=True)
        assert result.same_pairs_as(unbatched.to_result_set())
        assert report.pipeline is not None


class TestJoinToApplicationPipeline:
    def test_dbscan_on_registry_dataset(self):
        points = gaussian_clusters(1200, 2, n_clusters=3, cluster_std=1.0, seed=7)
        result = dbscan(points, eps=1.0, min_pts=6)
        assert result.n_clusters >= 3
        # Most points should be clustered, not noise.
        assert result.noise_mask.mean() < 0.2

    def test_dbscan_respects_selfjoin_config(self):
        points = gaussian_clusters(600, 2, n_clusters=2, cluster_std=0.8, seed=8)
        fast = dbscan(points, eps=1.0, min_pts=5,
                      config=SelfJoinConfig(unicomp=True, min_batches=4))
        assert fast.n_clusters >= 2


class TestExperimentPipeline:
    def test_full_small_experiment_produces_consistent_counts(self):
        result = run_response_time_experiment(
            ["Syn2D2M"], algorithms=("R-Tree", "SuperEGO", "GPU", "GPU: unicomp"),
            n_points=350, eps_values={"Syn2D2M": [3.0]})
        counts = {rec.algorithm: rec.num_pairs for rec in result.records}
        assert len(set(counts.values())) == 1
        times = {rec.algorithm: rec.time_s for rec in result.records}
        # The paper's headline ordering at this scale: GPU-SJ beats the
        # sequential Python R-tree baseline by a wide margin.
        assert times["GPU: unicomp"] < times["R-Tree"]
        assert times["GPU"] < times["R-Tree"]
