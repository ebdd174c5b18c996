"""Public self-join API (GPU-SJ) — a thin wrapper over :mod:`repro.engine`.

:class:`GPUSelfJoin` preserves the original API of the paper reproduction:

1. build the non-empty-cell grid index with cell side length ε
   (:mod:`repro.core.gridindex`),
2. plan the batch decomposition (:mod:`repro.core.batching`, minimum 3
   batches, more when the result may not fit host memory),
3. run the GLOBAL or UNICOMP kernel over each batch
   (:mod:`repro.core.kernels`), and
4. merge the result fragments (:mod:`repro.core.result`).

Since the unified-query-engine refactor all of this executes through
:mod:`repro.engine`: the configuration is translated into a
:class:`repro.engine.query.Query` plus a
:class:`repro.engine.planner.QueryPlanner`, the configured ``kernel``
selects a registered execution backend, and results flow through the
CSR-native fragment pipeline.  The module-level :func:`selfjoin` function is
the one-call convenience entry point used throughout the examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.batching import BatchExecutionReport, BatchPlan, BatchPlanner
from repro.core.gridindex import GridIndex, GridIndexStats
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats
from repro.core.result import NeighborTable, ResultSet
from repro.engine.executor import EngineResult, execute
from repro.engine.planner import QueryPlanner
from repro.engine.query import Query
from repro.utils.timing import Timer
from repro.utils.validation import check_eps, check_points

#: Kernel implementations accepted by :class:`SelfJoinConfig.kernel`; these
#: are names of registered engine backends (see ``repro.engine.backends``).
VALID_KERNELS = ("vectorized", "simulated")


@dataclass
class SelfJoinConfig:
    """Configuration of a GPU-SJ run.

    Attributes
    ----------
    unicomp:
        Enable the UNICOMP work-avoidance optimization (Section V-B).  The
        paper's headline configuration ("GPU: unicomp") enables it.
    kernel:
        Execution backend: ``"vectorized"`` (production) or
        ``"simulated"`` (instrumented device-model path used for Table II).
    batching:
        Enable the result-set batching scheme (Section V-A).
    min_batches:
        Minimum number of batches when batching is enabled (paper: 3, so
        result transfers can overlap with compute).  More batches are
        planned when the result may not fit host memory.
    include_self:
        Whether the trivial (p, p) pairs (distance 0 ≤ ε) are kept.  The
        CUDA kernel naturally produces them; set ``False`` to drop them.
    sort_result:
        Sort the key/value pairs after the join (the paper sorts before the
        host transfer).
    max_candidate_pairs:
        Memory bound of the vectorized kernel's pair expansion.
    validate_index:
        Run the index invariants check after construction (slow; for tests).
    max_dims:
        Guard on dimensionality (the paper targets 2–6; ``None`` disables).
    """

    unicomp: bool = True
    kernel: str = "vectorized"
    batching: bool = True
    min_batches: int = 3
    include_self: bool = True
    sort_result: bool = False
    max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS
    validate_index: bool = False
    max_dims: Optional[int] = None

    def __post_init__(self) -> None:
        # Parameterized backend specs ("vectorized(kernel=numba)") are
        # validated by base name so the kernel-tier knob passes through.
        base = self.kernel.split("(", 1)[0]
        if base not in VALID_KERNELS:
            raise ValueError(f"kernel must be one of {VALID_KERNELS}, got {self.kernel!r}")
        if self.min_batches < 1:
            raise ValueError("min_batches must be >= 1")

    @property
    def algorithm_name(self) -> str:
        """Human-readable algorithm label matching the paper's figures."""
        return "GPU: unicomp" if self.unicomp else "GPU"


@dataclass
class JoinReport:
    """Timing/work breakdown of a self-join run."""

    algorithm: str
    eps: float
    num_points: int
    num_pairs: int
    index_build_time: float
    kernel_time: float
    total_time: float
    kernel_stats: KernelStats
    index_stats: GridIndexStats
    batch_plan: Optional[BatchPlan] = None
    batch_report: Optional[BatchExecutionReport] = None
    #: Whether ``num_pairs`` still counts the trivial (p, p) self-pairs
    #: (i.e. the join ran with ``include_self=True``).
    includes_self_pairs: bool = True

    @property
    def avg_neighbors(self) -> float:
        """Average (ordered) result pairs per point, excluding the self-pair.

        When the join already dropped the self-pairs (``include_self=False``)
        ``num_pairs`` does not count them, so nothing is subtracted.
        """
        if self.num_points == 0:
            return 0.0
        avg = self.num_pairs / self.num_points
        if self.includes_self_pairs:
            return max(0.0, avg - 1.0)
        return avg


class GPUSelfJoin:
    """The GPU-SJ algorithm of the paper, configured once and reusable.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.selfjoin import GPUSelfJoin, SelfJoinConfig
    >>> points = np.random.default_rng(1).uniform(0, 10, (500, 3))
    >>> joiner = GPUSelfJoin(SelfJoinConfig(unicomp=True))
    >>> result = joiner.join(points, eps=1.0)
    >>> result.is_symmetric()
    True
    """

    def __init__(self, config: Optional[SelfJoinConfig] = None) -> None:
        self.config = config or SelfJoinConfig()

    # -------------------------------------------------------------- indexing
    def build_index(self, points: np.ndarray, eps: float) -> GridIndex:
        """Build the ε-grid index for ``points`` (validates inputs)."""
        pts = check_points(points, max_dims=self.config.max_dims)
        eps = check_eps(eps)
        index = GridIndex.build(pts, eps)
        if self.config.validate_index:
            index.validate()
        return index

    # ----------------------------------------------------------------- joins
    def join(self, points: np.ndarray, eps: float) -> ResultSet:
        """Compute the self-join and return the result pairs."""
        result, _ = self.join_with_report(points, eps)
        return result

    def join_with_report(self, points: np.ndarray, eps: float
                         ) -> Tuple[ResultSet, JoinReport]:
        """Compute the self-join and return ``(result, report)``."""
        total_timer = Timer()
        total_timer.start()

        with Timer() as build_timer:
            index = self.build_index(points, eps)

        with Timer() as kernel_timer:
            engine_result = self._run_engine(index, check_eps(eps))
        result = engine_result.result_set

        total_time = total_timer.stop()
        report = JoinReport(
            algorithm=self.config.algorithm_name,
            eps=float(eps),
            num_points=index.num_points,
            num_pairs=result.num_pairs,
            index_build_time=build_timer.elapsed,
            kernel_time=kernel_timer.elapsed,
            total_time=total_time,
            kernel_stats=engine_result.stats,
            index_stats=index.stats(),
            batch_plan=engine_result.plan.batch_plan,
            batch_report=engine_result.batch_report,
            includes_self_pairs=self.config.include_self,
        )
        return result, report

    def join_index(self, index: GridIndex, eps: Optional[float] = None) -> ResultSet:
        """Join a pre-built index (eps defaults to the index's cell length).

        Runs the exact same engine path as :meth:`join`, so ``include_self``
        and ``sort_result`` are honored identically.
        """
        eps = index.eps if eps is None else check_eps(eps)
        return self._run_engine(index, eps).result_set

    def join_table(self, points: np.ndarray, eps: float) -> NeighborTable:
        """Compute the self-join as a CSR :class:`NeighborTable` directly.

        This is the CSR-native hot path used by the applications (DBSCAN,
        kNN): the kernels' pair fragments are finalized straight into
        per-point counts + prefix-sum offsets without materializing (or
        re-sorting) the flat pair list.
        """
        index = self.build_index(points, eps)
        return self._run_engine(index, check_eps(eps)).neighbor_table

    # -------------------------------------------------------------- internals
    def _planner(self) -> QueryPlanner:
        cfg = self.config
        return QueryPlanner(
            backend=cfg.kernel,
            max_candidate_pairs=cfg.max_candidate_pairs,
            max_dims=cfg.max_dims,
            batch_planner=BatchPlanner(min_batches=cfg.min_batches),
        )

    def _run_engine(self, index: GridIndex, eps: float) -> EngineResult:
        cfg = self.config
        query = Query.self_join(index.points, eps, unicomp=cfg.unicomp,
                                include_self=cfg.include_self,
                                sort_result=cfg.sort_result,
                                batching=cfg.batching)
        plan = self._planner().plan(query, index=index)
        return execute(plan)


def selfjoin(points: np.ndarray, eps: float, *, unicomp: bool = True,
             kernel: str = "vectorized", batching: bool = True,
             include_self: bool = True, sort_result: bool = False,
             **config_kwargs) -> ResultSet:
    """One-call self-join: find all point pairs within Euclidean distance ε.

    Parameters
    ----------
    points:
        ``(n_points, n_dims)`` array of coordinates.
    eps:
        Search distance.
    unicomp, kernel, batching, include_self, sort_result, **config_kwargs:
        Forwarded to :class:`SelfJoinConfig`.

    Returns
    -------
    ResultSet
        All ordered pairs ``(p, q)`` with ``dist(p, q) <= eps``.
    """
    config = SelfJoinConfig(unicomp=unicomp, kernel=kernel, batching=batching,
                            include_self=include_self, sort_result=sort_result,
                            **config_kwargs)
    return GPUSelfJoin(config).join(points, eps)
