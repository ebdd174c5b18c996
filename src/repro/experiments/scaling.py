"""Scaling experiment: multiprocess self-join speedup vs worker count.

Not a figure of the paper — this experiment exists for the parallel
execution subsystem (:mod:`repro.parallel`): it times the engine self-join
on the default synthetic dataset once on the serial ``vectorized`` backend
and once per requested worker count on ``multiprocess(w)``, and reports the
speedup relative to the serial run.  On a multi-core host the speedup
should approach the worker count until memory bandwidth saturates; the
rendered table records the host's CPU count so single-core CI numbers are
interpretable (a pool cannot beat serial on one core — the overhead column
is the interesting number there).

Every configuration runs inside one :class:`~repro.engine.session.
EngineSession` per backend, mirroring how a long-lived service would hold
the dataset: the **cold** column is the session's first query (pool
creation + shared-memory attach + index build + join), the **warm** column
the mean of the following trials (index cached, pool persistent, dataset
never re-shipped).  The cold−warm gap is exactly the per-query start-up
cost the session lifecycle amortizes away.  The grid spans all dimensions
on every backend, so the rows differ only in how the join is executed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.stats import mean_and_std
from repro.core.gridindex import GridIndex
from repro.data.datasets import DATASETS
from repro.engine import EngineSession, Query
from repro.experiments.report import format_table
from repro.utils.timing import Timer

#: Worker counts swept by default (the acceptance point is 4 workers).
DEFAULT_WORKER_COUNTS = (1, 2, 4)

#: Default synthetic dataset (2-D uniform at the 2M-scale registry entry).
DEFAULT_DATASET = "Syn2D2M"


@dataclass
class ScalingRow:
    """One timed configuration of the scaling sweep."""

    label: str
    workers: int          # 0 for the serial baseline
    time_s: float         # warm mean (session already attached, index cached)
    time_std: float
    cold_time_s: float    # first session query: attach + index build + join
    speedup: float        # serial warm time_s / warm time_s
    num_pairs: int


def _time_backend(backend: str, points, eps: float,
                  trials: int) -> Tuple[float, float, float, int]:
    """Time one backend inside a session: ``(warm_mean, warm_std, cold, pairs)``."""
    num_pairs = 0
    times: List[float] = []
    session = EngineSession(points, backend=backend)
    try:
        # Cold must cover the whole first-query cost the session amortizes,
        # so the open() — backend attach: pool fork + shared-memory dataset
        # copy — is timed together with the first query.
        with Timer() as cold_timer:
            session.open()
            index = GridIndex.build(session.points, eps)
            query = Query.self_join(session.points, eps)
            num_pairs = session.run(query, index=index).num_pairs
        for _ in range(max(1, trials)):
            with Timer() as timer:
                num_pairs = session.run(query, index=index).num_pairs
            times.append(timer.elapsed)
    finally:
        session.close()
    mean, std = mean_and_std(times)
    return mean, std, cold_timer.elapsed, num_pairs


def run_scaling(n_points: Optional[int] = None, trials: int = 1, seed: int = 0,
                eps: Optional[float] = None,
                workers: Sequence[int] = DEFAULT_WORKER_COUNTS,
                dataset: str = DEFAULT_DATASET) -> List[ScalingRow]:
    """Time the self-join serially and at each worker count.

    ``eps`` defaults to the midpoint of the dataset's density-rescaled ε
    sweep, giving a result set representative of the paper's figures.
    """
    spec = DATASETS[dataset]
    points = spec.generate(n_points=n_points, seed=seed)
    if eps is None:
        sweep = spec.scaled_eps(n_points)
        eps = float(sweep[len(sweep) // 2])

    rows: List[ScalingRow] = []
    serial_time, serial_std, serial_cold, serial_pairs = _time_backend(
        "vectorized", points, eps, trials)
    rows.append(ScalingRow(label="vectorized (serial)", workers=0,
                           time_s=serial_time, time_std=serial_std,
                           cold_time_s=serial_cold,
                           speedup=1.0, num_pairs=serial_pairs))
    for w in workers:
        mean, std, cold, pairs = _time_backend(f"multiprocess({int(w)})",
                                               points, eps, trials)
        rows.append(ScalingRow(
            label=f"multiprocess({int(w)})", workers=int(w), time_s=mean,
            time_std=std, cold_time_s=cold,
            speedup=serial_time / mean if mean > 0 else 0.0,
            num_pairs=pairs))
    return rows


def format_scaling(rows: List[ScalingRow]) -> str:
    """Render the sweep as an aligned table (host core count in the title)."""
    return format_table(
        ("backend", "workers", "warm_s", "warm_std", "cold_s", "speedup",
         "pairs"),
        [(r.label, r.workers, r.time_s, r.time_std, r.cold_time_s, r.speedup,
          r.num_pairs)
         for r in rows],
        title=f"Self-join scaling vs worker count "
              f"(host cpus: {os.cpu_count()}; warm = session query on the "
              f"persistent pool, cold = first query incl. pool+index start-up; "
              f"speedup vs serial warm)")
