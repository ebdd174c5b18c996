#!/usr/bin/env python3
"""Batching a large-result self-join on the SW- ionosphere surrogate.

Low-dimensional, dense data produces result sets that can exceed GPU global
memory — the reason for the paper's batching scheme (Section V-A).  This
example runs the 3-D space-weather surrogate against a memory budget shrunk
so the batching scheme actually has to split the work, and prints the batch
plan and the compute/transfer overlap report of the GPU device model.

Run with:  python examples/ionosphere_batching.py
"""

from __future__ import annotations

from functools import partial

from repro.core.batching import BatchPlanner, execute_batched
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.data import sw_dataset


def main() -> None:
    points = sw_dataset(n_points=40_000, n_dims=3, seed=5)
    eps = 2.5
    index = GridIndex.build(points, eps)
    stats = index.stats()
    print(f"dataset: {points.shape[0]} points (lon, lat, TEC), eps={eps}")
    print(f"grid index: {stats.num_nonempty_cells} non-empty cells of "
          f"{stats.total_cells} total ({stats.occupancy_fraction:.3%} occupied), "
          f"{stats.memory_bytes / 1e6:.2f} MB")

    # Shrink the memory budget so the planner is forced to batch; the
    # sample estimate runs the UNICOMP self-join bound to this index.
    planner = BatchPlanner(memory_bytes=8 * 1024 * 1024, min_batches=3)
    plan = planner.plan(index, partial(run_selfjoin, index, eps, unicomp=True))
    print(f"\nbatch plan: {plan.n_batches} batches "
          f"(estimated {plan.estimated_total_pairs} pairs, "
          f"buffer capacity {plan.buffer_capacity_pairs} pairs/batch)")

    result, kstats, report = execute_batched(index, eps, plan, unicomp=True)
    print(f"total result pairs : {result.num_pairs}")
    print(f"kernel time (all batches): {report.total_kernel_time * 1e3:.1f} ms")
    print(f"adaptive splits    : {report.splits_performed}")
    pipeline = report.pipeline
    assert pipeline is not None
    print(f"\npipeline model ({pipeline.n_batches} batches, 3 streams):")
    print(f"  serial schedule     : {pipeline.serial_time * 1e3:.2f} ms")
    print(f"  overlapped schedule : {pipeline.overlapped_time * 1e3:.2f} ms")
    print(f"  overlap speedup     : {pipeline.overlap_speedup:.2f}x")


if __name__ == "__main__":
    main()
