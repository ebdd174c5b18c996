"""Table II: kernel metrics of GPU-SJ with and without UNICOMP.

The paper profiles four configurations (SW2DA and SDSS2DA at ε = 0.3,
Syn5D2M and Syn6D2M at ε = 8) and reports, for the kernel with and without
UNICOMP: the theoretical occupancy, the unified-cache bandwidth utilization,
and the ratios of response time, occupancy and cache utilization.  The
paper's reading: UNICOMP always lowers occupancy (more registers), but on the
5–6-D datasets it *increases* cache utilization, which is why the response
time improves by more than the 2× work reduction.

The reproduction gathers the same quantities from the instrumented device
model (:mod:`repro.core.simkernels`): theoretical occupancy comes from the
occupancy calculator with the fitted register model, cache utilization from
the set-associative unified-cache model, and the response-time ratio from the
measured wall-clock times of the production (vectorized) kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin
from repro.core.result import PairFragments
from repro.core.simkernels import simulated_selfjoin
from repro.data.datasets import DATASETS
from repro.experiments.report import format_table
from repro.utils.timing import Timer

#: The four rows of Table II: dataset name and the paper's ε for that row.
TABLE2_CONFIGS: Tuple[Tuple[str, float], ...] = (
    ("SW2DA", 0.3),
    ("SDSS2DA", 0.3),
    ("Syn5D2M", 8.0),
    ("Syn6D2M", 8.0),
)

#: Paper values for the occupancy columns (used in EXPERIMENTS.md comparisons).
PAPER_OCCUPANCY: Dict[str, Tuple[float, float]] = {
    "SW2DA": (1.00, 0.75),
    "SDSS2DA": (1.00, 0.75),
    "Syn5D2M": (0.625, 0.50),
    "Syn6D2M": (0.625, 0.50),
}


@dataclass
class Table2Row:
    """One row of the reproduced Table II."""

    dataset: str
    eps: float
    response_time_ratio: float
    occupancy_global: float
    cache_util_global: float
    occupancy_unicomp: float
    cache_util_unicomp: float

    @property
    def occupancy_ratio(self) -> float:
        """Occupancy with UNICOMP divided by occupancy without."""
        if self.occupancy_global == 0:
            return 0.0
        return self.occupancy_unicomp / self.occupancy_global

    @property
    def cache_ratio(self) -> float:
        """Cache utilization with UNICOMP divided by without."""
        if self.cache_util_global == 0:
            return 0.0
        return self.cache_util_unicomp / self.cache_util_global


def run_table2(n_points: int = 1500,
               configs: Sequence[Tuple[str, float]] = TABLE2_CONFIGS,
               timing_repeats: int = 3, seed: int = 0) -> List[Table2Row]:
    """Reproduce Table II on scaled-down datasets.

    Parameters
    ----------
    n_points:
        Scaled dataset size for the instrumented runs (the per-thread device
        model is interpreted Python, so this stays small).
    configs:
        (dataset, paper ε) rows to evaluate.
    timing_repeats:
        Wall-clock repetitions of the vectorized kernels for the response-time
        ratio column (paper: 3 trials).
    """
    rows: List[Table2Row] = []
    for dataset, paper_eps in configs:
        spec = DATASETS[dataset]
        points = spec.generate(n_points=n_points, seed=seed)
        eps = float(paper_eps * spec.eps_scale_factor(n_points))
        index = GridIndex.build(points, eps)

        # Response-time ratio from the production kernels (mean of repeats).
        t_global = _time_kernel(index, eps, unicomp=False, repeats=timing_repeats)
        t_unicomp = _time_kernel(index, eps, unicomp=True, repeats=timing_repeats)
        ratio = t_global / t_unicomp if t_unicomp > 0 else 0.0

        # Occupancy and cache utilization from the instrumented device model.
        sim_global = simulated_selfjoin(index, eps, unicomp=False)
        sim_unicomp = simulated_selfjoin(index, eps, unicomp=True)

        rows.append(Table2Row(
            dataset=dataset,
            eps=eps,
            response_time_ratio=ratio,
            occupancy_global=sim_global.metrics.theoretical_occupancy,
            cache_util_global=sim_global.metrics.unified_cache_utilization_gbps(),
            occupancy_unicomp=sim_unicomp.metrics.theoretical_occupancy,
            cache_util_unicomp=sim_unicomp.metrics.unified_cache_utilization_gbps(),
        ))
    return rows


def _time_kernel(index: GridIndex, eps: float, unicomp: bool, repeats: int) -> float:
    """Mean wall-clock time of the NumPy-tier kernel over ``repeats`` runs."""
    times: List[float] = []
    for _ in range(max(1, repeats)):
        with Timer() as t:
            run_selfjoin(index, eps, PairFragments(index.num_points),
                         unicomp=unicomp, tier="numpy")
        times.append(t.elapsed)
    return sum(times) / len(times)


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render the reproduced Table II."""
    table_rows = [(r.dataset, r.eps, r.response_time_ratio,
                   r.occupancy_global, r.cache_util_global,
                   r.occupancy_unicomp, r.cache_util_unicomp,
                   r.occupancy_ratio, r.cache_ratio) for r in rows]
    return format_table(
        ("dataset", "eps", "ratio_resp_time", "occupancy", "cache_GBps",
         "occupancy_unicomp", "cache_GBps_unicomp", "ratio_occupancy", "ratio_cache"),
        table_rows,
        title="Table II: kernel metrics with and without UNICOMP (device model)")
