"""Algorithm selection: grid-indexed self-join vs brute force.

The paper's evaluation includes a GPU brute-force join because "at some
dimension, a brute force nested loop join ... is expected to be more
efficient than using an index" (Section VI-B).  This module provides the
decision procedure a library user needs: estimate the work of both
strategies from the built index (no timing runs required) and pick the
cheaper one.

The grid-join work estimate is the number of candidate point pairs the
kernel will evaluate — the sum over adjacent non-empty cell pairs of the
product of their populations — read exactly from the index's kept cell
pairs (:func:`repro.core.kernels.selfjoin_cell_costs`) without expanding
any pairs; a grid join that follows reads the same cell pairs back instead
of walking again.  Brute force always evaluates ``|D|^2`` pairs but touches
no index structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.gridindex import GridIndex
from repro.core.kernels import run_selfjoin, selfjoin_cell_costs
from repro.core.result import PairFragments, ResultSet
from repro.utils.validation import check_eps, check_points


@dataclass
class WorkEstimate:
    """Predicted work of the two join strategies on one input."""

    grid_candidate_pairs: int
    bruteforce_pairs: int
    num_points: int
    num_nonempty_cells: int
    #: Fixed per-candidate-cell overhead (binary search etc.) expressed in
    #: distance-calculation equivalents; used to avoid recommending the grid
    #: when almost every cell pair must be visited anyway.
    cell_overhead_equivalent: int = 8

    @property
    def grid_cost(self) -> float:
        """Grid-join cost in distance-calculation equivalents."""
        return self.grid_candidate_pairs + self.cell_overhead_equivalent * \
            self.num_nonempty_cells * 1.0

    @property
    def bruteforce_cost(self) -> float:
        """Brute-force cost in distance-calculation equivalents."""
        return float(self.bruteforce_pairs)

    @property
    def recommended(self) -> str:
        """Either ``"grid"`` or ``"bruteforce"``."""
        return "grid" if self.grid_cost <= self.bruteforce_cost else "bruteforce"

    @property
    def selectivity(self) -> float:
        """Fraction of the all-pairs work the grid join has to do."""
        if self.bruteforce_pairs == 0:
            return 1.0
        return self.grid_candidate_pairs / self.bruteforce_pairs


def estimate_join_work(index: GridIndex, unicomp: bool = True) -> WorkEstimate:
    """Predict the candidate-pair count of the grid self-join from the index.

    Parameters
    ----------
    index:
        Built grid index.
    unicomp:
        Account for the UNICOMP work-avoidance rule (the default
        configuration of GPU-SJ).
    """
    return WorkEstimate(
        grid_candidate_pairs=int(selfjoin_cell_costs(index, unicomp).sum()),
        bruteforce_pairs=index.num_points ** 2,
        num_points=index.num_points,
        num_nonempty_cells=index.num_nonempty_cells,
    )


def select_algorithm(points: np.ndarray, eps: float,
                     index: Optional[GridIndex] = None,
                     unicomp: bool = True) -> WorkEstimate:
    """Build (or reuse) the index and return the work estimate / recommendation."""
    pts = check_points(points)
    eps = check_eps(eps)
    if index is None:
        index = GridIndex.build(pts, eps)
    return estimate_join_work(index, unicomp=unicomp)


def adaptive_selfjoin(points: np.ndarray, eps: float,
                      unicomp: bool = True) -> tuple[ResultSet, WorkEstimate]:
    """Self-join that dispatches to the cheaper strategy.

    Returns the result together with the :class:`WorkEstimate` that made the
    decision, so callers can log why a strategy was chosen.
    """
    pts = check_points(points)
    eps = check_eps(eps)
    index = GridIndex.build(pts, eps)
    estimate = estimate_join_work(index, unicomp=unicomp)
    if estimate.recommended == "bruteforce":
        from repro.baselines.bruteforce import bruteforce_selfjoin

        result = bruteforce_selfjoin(pts, eps).result
        assert result is not None
        return result, estimate
    sink = PairFragments(index.num_points)
    run_selfjoin(index, index.eps, sink, unicomp=unicomp)
    return sink.to_result_set(), estimate
