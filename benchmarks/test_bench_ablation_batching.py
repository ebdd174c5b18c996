"""Ablation: the batching scheme (Section V-A).

Sweeps the number of batches and reports (i) the measured kernel time, (ii)
the modelled serial and overlapped makespans of the compute/transfer
pipeline, demonstrating why the paper always uses at least three batches:
overlap hides the device-to-host result transfers at negligible cost.
"""

from __future__ import annotations

from functools import partial

from repro.core.batching import BatchPlan, BatchPlanner, execute_batched, split_cells_balanced
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.experiments.report import format_table
from repro.gpusim import Device
from benchmarks.conftest import bench_points


def test_bench_batch_count_sweep(benchmark, write_report):
    n_points = bench_points(8000)
    points = uniform_dataset(n_points, 2, seed=2)
    eps = 0.5 * (10_000_000 / n_points) ** 0.5
    device = Device()

    def sweep():
        # A fresh index per batch count: an index keeps the cell pairs of
        # its first self-join, so a shared one would time later counts warm.
        rows = []
        for n_batches in (1, 3, 6, 12):
            index = GridIndex.build(points, eps)
            plan = BatchPlan(cell_batches=split_cells_balanced(index, n_batches),
                             estimated_total_pairs=0, buffer_capacity_pairs=2 ** 62)
            result, _, report = execute_batched(index, eps, plan, unicomp=True,
                                                tier="numpy", device=device)
            pipeline = report.pipeline
            rows.append((n_batches, result.num_pairs, report.total_kernel_time,
                         pipeline.serial_time, pipeline.overlapped_time,
                         pipeline.overlap_speedup))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report("ablation_batching", format_table(
        ("batches", "pairs", "kernel_time_s", "serial_model_s", "overlap_model_s",
         "overlap_speedup"),
        rows, title="Ablation: batch count and compute/transfer overlap"))

    # Every batch count yields the identical result size.
    assert len({row[1] for row in rows}) == 1
    # Overlap never hurts in the pipeline model.
    assert all(row[4] <= row[3] + 1e-12 for row in rows)


def test_bench_planner_estimate_quality(benchmark, write_report):
    """The sampled result-size estimate that drives the batch count."""
    n_points = bench_points(8000)
    points = uniform_dataset(n_points, 3, seed=3)
    eps = 1.0 * (2_000_000 / n_points) ** (1 / 3)
    index = GridIndex.build(points, eps)

    def estimate():
        planner = BatchPlanner(sample_fraction=0.05, seed=1)
        return planner.estimate_result_pairs(index, partial(
            run_selfjoin, index, eps, unicomp=True, tier="numpy"))

    estimate_pairs = benchmark.pedantic(estimate, rounds=1, iterations=1)
    truth = run_selfjoin(index, eps, PairFragments(index.num_points),
                         unicomp=True, tier="numpy").result_pairs
    error = abs(estimate_pairs - truth) / truth
    write_report("ablation_batch_estimate", format_table(
        ("estimated_pairs", "true_pairs", "relative_error"),
        [(estimate_pairs, truth, error)],
        title="Ablation: sampled result-size estimate"))
    assert error < 1.0  # within 2x of the truth
    benchmark.extra_info["relative_error"] = error
