"""Ablation: the self-join adjacency's box prune.

While an index's cell pairs are walked, a pair whose cells' point boxes lie
more than ε apart (beyond a rounding margin) is dropped before it is kept
(:func:`repro.core.kernels._near_pairs`); the emitter then expands only the
kept pairs.  There is no switch: the benchmark compares the plain walker's
pairs (:func:`repro.core.kernels._walk_cell_pairs`) with the index's kept
adjacency on the same planned index, UNICOMP, NumPy tier.  Per input it
reports walked vs kept cell pairs and candidates, the ``_emit_pairs`` time
over each pair list (both must emit the same stream), and the time of the
plain walk vs the walk that prunes and keeps the adjacency.

Inputs are the layer benchmark's self-joins (``perfbench``): ``lowdim``
(3-D uniform, 100k, ε=0.025), the distributed input (3-D exponential,
100k, ε=0.5), ``highdim`` (6-D uniform, 2k, ε=0.25; the planner grids 5
dims) and a 6-D uniform 20k input at ε=0.1.  ``REPRO_BENCH_POINTS`` caps
their sizes for a quick run.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.core import kernels as K
from repro.core.gridindex import GridIndex
from repro.core.result import PairFragments
from repro.data.synthetic import exponential_dataset, uniform_dataset
from repro.engine.planner import QueryPlanner
from repro.experiments.report import format_table
from repro.utils.timing import Timer
from benchmarks.conftest import bench_trials
from perfbench.run import host_metadata

INPUTS = (
    ("lowdim", lambda n: uniform_dataset(n, 3, seed=1, low=0.0, high=1.0),
     100_000, 0.025),
    ("distributed", lambda n: exponential_dataset(n, 3, scale=10, seed=1),
     100_000, 0.5),
    ("highdim", lambda n: uniform_dataset(n, 6, seed=1, low=0.0, high=1.0),
     2_000, 0.25),
    ("6d-20k", lambda n: uniform_dataset(n, 6, seed=1, low=0.0, high=1.0),
     20_000, 0.1),
)


def _size(default: int) -> int:
    cap = os.environ.get("REPRO_BENCH_POINTS")
    return default if not cap else min(default, int(cap))


def _walked(index: GridIndex):
    """Every walked UNICOMP cell pair: sources, targets, mirror flags."""
    groups = list(K._walk_cell_pairs(index, index.cell_coords, True))
    src, tgt = (np.concatenate([g[i] for g in groups]) for i in (0, 1))
    return src, tgt, tgt != src


def _kept(index: GridIndex):
    """The index's kept UNICOMP cell pairs (its adjacency)."""
    adjacency = K._adjacency(index, True)
    src = np.arange(index.num_nonempty_cells).repeat(np.diff(adjacency.starts))
    return src, adjacency.targets, adjacency.targets != src


def _emit(index: GridIndex, pairs, trials: int):
    """Best ``_emit_pairs`` time over ``pairs``, and the stream's digest."""
    src, tgt, mirror = pairs
    side = K._index_side(index, None)
    best, sink = float("inf"), None
    for _ in range(trials):
        sink = PairFragments(index.num_points)
        with Timer() as timer:
            K._emit_pairs(sink, side, src, side, tgt, index.eps * index.eps,
                          K.DEFAULT_MAX_CANDIDATE_PAIRS, mirror=mirror)
        best = min(best, timer.elapsed)
    keys, values = sink.concatenated()
    return best, hashlib.sha256(keys.tobytes() + values.tobytes()).hexdigest()


def _best(run, trials: int) -> float:
    best = float("inf")
    for _ in range(trials):
        with Timer() as timer:
            run()
        best = min(best, timer.elapsed)
    return best


def test_bench_cell_prune(benchmark, write_report):
    trials = max(3, bench_trials())

    def sweep():
        rows = []
        for name, make, default, eps in INPUTS:
            points = make(_size(default))
            index = QueryPlanner().index_dataset(points, eps)
            index.cell_ordered_columns()
            walked, kept = _walked(index), _kept(index)
            counts = index.cell_counts
            candidates = [int((counts.take(p[0]) * counts.take(p[1])).sum())
                          for p in (walked, kept)]
            emit_walked, stream_walked = _emit(index, walked, trials)
            emit_kept, stream_kept = _emit(index, kept, trials)
            assert stream_kept == stream_walked, name
            walk_s = _best(lambda: _walked(index), trials)
            # Called directly, the walk that fills the adjacency runs anew
            # each time; the index's cell-ordered columns are already built.
            prune_s = _best(lambda: K._walk_adjacency(index, True), trials)
            rows.append((name, points.shape[0], points.shape[1],
                         index.num_grid_dims, eps, walked[0].shape[0],
                         kept[0].shape[0], candidates[0], candidates[1],
                         emit_walked, emit_kept, walk_s, prune_s))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    host = host_metadata()
    header = "\n".join([
        f"host: {host['cpu_model']}, {host['nproc']} CPUs",
        f"python: {host['python']}, numpy: {host['numpy']}",
        "UNICOMP, NumPy tier, the planner's index; times are the best of "
        f"{trials}",
        "walked: every cell pair the walker resolves (what cells_visited "
        "and distance_calcs count); kept: the index's adjacency after the "
        "box prune",
        "emit_*_s: _emit_pairs over each pair list (same stream); walk_s: "
        "the plain walk; walk_prune_s: the walk that prunes and keeps the "
        "adjacency (boxes included)",
        "both walks read M_j through dense per-dimension admit rows and sum "
        "per-cell costs with an integer add.reduceat (reports before this "
        "one timed a searchsorted per dimension and a float bincount)",
    ])
    table = format_table(
        ("input", "points", "n", "k", "eps", "walked_pairs", "kept_pairs",
         "walked_cands", "kept_cands", "emit_walked_s", "emit_kept_s",
         "walk_s", "walk_prune_s"),
        rows, title="Ablation: cell pairs kept after the box prune")
    write_report("ablation_cell_prune", header + "\n" + table)

    for row in rows:
        assert row[6] <= row[5] and row[8] <= row[7], row[0]
    benchmark.extra_info["kept_pair_share"] = {
        row[0]: row[6] / row[5] for row in rows if row[5]}
