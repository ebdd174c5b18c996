"""Engine backend comparison: one workload, every registered backend.

Not a figure of the paper — this experiment exists for the unified query
engine: it runs the same self-join *and* bipartite-join workload through
every registered execution backend (``repro.engine.backends``) and reports
response time, pair counts and the kernels' work counters side by side.
Besides being a quick performance overview, it doubles as an end-to-end
consistency check: every backend must report the same pair count.  Each
trial builds the same all-dimension grid, so the backends' work counters
compare like for like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.stats import mean_and_std
from repro.core.gridindex import GridIndex
from repro.data.synthetic import uniform_dataset
from repro.engine import Query, QueryPlanner, execute
from repro.experiments.report import format_table
from repro.utils.timing import Timer

#: Backends compared by default; the reference backends are orders of
#: magnitude slower, so they only run at small scales (see ``run``).
DEFAULT_BACKENDS = ("vectorized", "sharded", "multiprocess", "bruteforce")

#: Reference backends excluded above this dataset size.
SLOW_BACKEND_LIMIT = 1500
SLOW_BACKENDS = ("simulated",)


@dataclass
class EngineCompareRow:
    """One (query kind, backend) measurement."""

    kind: str
    backend: str
    time_s: float
    num_pairs: int
    distance_calcs: int
    cells_checked: int


def run_engine_compare(n_points: Optional[int] = None, trials: int = 1,
                       seed: int = 0, eps: float = 1.0,
                       backends: Optional[Sequence[str]] = None,
                       ) -> List[EngineCompareRow]:
    """Time every backend on a uniform self-join and bipartite join."""
    n = 2000 if n_points is None else int(n_points)
    points = uniform_dataset(n, 2, seed=seed, low=0.0, high=20.0)
    probe = uniform_dataset(max(1, n // 4), 2, seed=seed + 1, low=0.0, high=20.0)
    names = list(backends) if backends is not None else list(DEFAULT_BACKENDS)
    if backends is None and n <= SLOW_BACKEND_LIMIT:
        names.extend(SLOW_BACKENDS)

    rows: List[EngineCompareRow] = []
    for name in names:
        # The planner drops UNICOMP for a backend without it.
        queries = {
            "self-join": Query.self_join(points, eps),
            "bipartite": Query.bipartite_join(probe, points, eps),
        }
        for kind, query in queries.items():
            planner = QueryPlanner(backend=name)
            times = []
            result = None
            for _ in range(max(1, trials)):
                with Timer() as timer:
                    index = GridIndex.build(points, eps)
                    result = execute(planner.plan(query, index=index))
                    pairs = result.num_pairs
                times.append(timer.elapsed)
            mean, _ = mean_and_std(times)
            rows.append(EngineCompareRow(
                kind=kind, backend=name, time_s=mean, num_pairs=pairs,
                distance_calcs=result.stats.distance_calcs,
                cells_checked=result.stats.cells_checked))
    return rows


def format_engine_compare(rows: List[EngineCompareRow]) -> str:
    """Render the comparison as an aligned table."""
    return format_table(
        ("kind", "backend", "time_s", "pairs", "distance_calcs", "cells_checked"),
        [(r.kind, r.backend, r.time_s, r.num_pairs, r.distance_calcs,
          r.cells_checked) for r in rows],
        title="Engine backend comparison (uniform 2-D workload)")
