"""Benchmark: static vs work-stealing scheduling under a straggler.

The workload is built to defeat a purely static plan: a *skewed*
(exponential-density) dataset, so per-shard costs span orders of magnitude,
plus one worker slowed with the ``REPRO_WORKER_DEBUG_SLEEP_MS`` hook — the
runtime skew no cost model can predict.  Each worker count (1/2/4) runs the
same session self-join twice, with ``scheduling="static"`` (cost-balanced
assignment, hedging only — the PR 8 dispatcher) and ``scheduling="adaptive"``
(pull + steal + resplit + rebalance), and the report records wall-clock,
steal/resplit/hedge counters and pair counts.

What the numbers must show (asserted, not just reported):

* at 4 workers adaptive beats static wall-clock — idle peers steal the
  slow worker's queue instead of waiting behind it;
* adaptive dispatches **no more hedges** than static — the waterfall makes
  full-shard duplication the last resort;
* every configuration returns the identical pair count;
* every run's achieved cost equals its planned cost (``cost_ratio`` 1.0):
  each cell's cost is its exact distance calculations, so a plan and the
  ``distance_calcs`` its accepted shards report cannot drift apart, with or
  without resplits and hedges.

Writes ``benchmarks/reports/schedule.txt`` (rendered table) and
``benchmarks/reports/BENCH_schedule.json`` (machine-readable rows).
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from repro.data.synthetic import exponential_dataset
from repro.distributed import DistributedBackend, WorkerThread
from repro.engine import EngineSession
from benchmarks.conftest import bench_points, bench_trials

WORKER_COUNTS = (1, 2, 4)
MODES = ("static", "adaptive")
EPS = 2.0
DIMS = 2
SLEEP_MS = 120.0
HEDGE_AFTER = 0.08


def _timed_session_selfjoin(points, backend, trials):
    """(warm_time_s, pairs) of a session self-join on ``backend``."""
    with EngineSession(points, backend=backend) as session:
        result = session.self_join(EPS)   # cold: attach + remote index build
        pairs = result.num_pairs
        warm = []
        for _ in range(max(1, trials)):
            t0 = time.perf_counter()
            session.self_join(EPS)
            warm.append(time.perf_counter() - t0)
    return min(warm), pairs


def test_bench_schedule(benchmark, report_dir, write_report):
    n_points = bench_points(4000)
    trials = bench_trials()
    points = exponential_dataset(n_points, DIMS, scale=10.0, seed=21)

    def run():
        rows = []
        for n_workers in WORKER_COUNTS:
            # The first worker is the injected straggler: it sleeps
            # SLEEP_MS before every shard op, like a loaded/slow node.
            threads = [WorkerThread(debug_shard_sleep_ms=SLEEP_MS).start()]
            threads += [WorkerThread().start() for _ in range(n_workers - 1)]
            try:
                addresses = [f"{h}:{p}" for h, p in
                             (t.address for t in threads)]
                for mode in MODES:
                    backend = DistributedBackend(
                        *addresses, scheduling=mode, hedge_after=HEDGE_AFTER)
                    warm, pairs = _timed_session_selfjoin(points, backend,
                                                          trials)
                    last = backend.stats.last_schedule
                    totals = backend.stats.schedule
                    rows.append({
                        "workers": n_workers, "mode": mode, "wall_s": warm,
                        "pairs": pairs, "shards": last.shards,
                        "steals": totals["steals"],
                        "resplits": totals["resplits"],
                        "rebalances": totals["rebalances"],
                        "hedges": totals["hedges"],
                        "cost_ratio": last.cost_ratio,
                    })
            finally:
                for thread in threads:
                    thread.stop()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    by_key = {(r["workers"], r["mode"]): r for r in rows}
    cores = os.cpu_count() or 1
    host = (f"host: {cores} cpus, {platform.machine()}, Python "
            f"{platform.python_version()}, NumPy {np.__version__}")
    lines = [
        "Static vs work-stealing scheduling under one injected straggler "
        f"({host}; n={n_points} exponential-density points, "
        f"{DIMS}-D, eps={EPS}; worker 0 sleeps {SLEEP_MS:.0f} ms per shard; "
        "speedup = static wall / adaptive wall at the same worker count)",
        f"{'workers':<8} {'mode':<9} {'wall_s':<8} {'shards':<7} "
        f"{'steals':<7} {'resplits':<9} {'hedges':<7} {'speedup':<8} "
        f"{'pairs':<8} {'cost_ratio':<10}",
        "-" * 89,
    ]
    for n_workers in WORKER_COUNTS:
        static_wall = by_key[(n_workers, "static")]["wall_s"]
        for mode in MODES:
            r = by_key[(n_workers, mode)]
            speedup = static_wall / r["wall_s"]
            lines.append(
                f"{r['workers']:<8} {r['mode']:<9} {r['wall_s']:<8.4f} "
                f"{r['shards']:<7} {r['steals']:<7} {r['resplits']:<9} "
                f"{r['hedges']:<7} {speedup:<8.4f} {r['pairs']:<8} "
                f"{r['cost_ratio']:<10.4f}")
    write_report("schedule", "\n".join(lines))
    payload = {
        "n_points": n_points, "dims": DIMS, "eps": EPS,
        "sleep_ms": SLEEP_MS, "hedge_after": HEDGE_AFTER,
        "host_cpus": cores, "host": host, "rows": rows,
        "speedup_at_4": by_key[(4, "static")]["wall_s"]
        / by_key[(4, "adaptive")]["wall_s"],
    }
    (report_dir / "BENCH_schedule.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    # Bit-identical pair counts across every mode and worker count.
    assert len({r["pairs"] for r in rows}) == 1 and rows[0]["pairs"] > 0
    # The plan's cost is the accepted shards' distance calculations.
    for r in rows:
        assert r["cost_ratio"] == 1.0, r
    # Work stealing must beat the static plan where there is capacity to
    # steal into: 4 workers, one of them slow.
    assert by_key[(4, "adaptive")]["wall_s"] \
        < by_key[(4, "static")]["wall_s"]
    assert by_key[(4, "adaptive")]["steals"] >= 1
    # Hedging is the last resort now: never more duplicates than the
    # static baseline dispatches.
    for n_workers in WORKER_COUNTS:
        assert by_key[(n_workers, "adaptive")]["hedges"] \
            <= by_key[(n_workers, "static")]["hedges"]
    benchmark.extra_info["speedup_at_4"] = payload["speedup_at_4"]
