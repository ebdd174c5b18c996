"""Algorithm dispatch and timed trials for the evaluation experiments.

The five algorithm labels match the legends of Figures 4–6:

* ``"R-Tree"`` — the sequential CPU search-and-refine baseline (index
  construction excluded from the timing, as in the paper),
* ``"SuperEGO"`` — the multi-threaded Super-EGO join (ego-sort + join timed),
* ``"GPU"`` — GPU-SJ without UNICOMP,
* ``"GPU: unicomp"`` — GPU-SJ with UNICOMP (the paper's headline
  configuration),
* ``"GPU: Brute Force"`` — the ε-independent all-pairs reference
  (result set not materialized, mirroring the single-kernel methodology).

Each measurement is repeated ``trials`` times (the paper uses 3) and the
mean response time is reported.  Every grid these experiments build spans
all dimensions, as the paper's does: ``GPUSelfJoin`` builds its own index,
and the ``Engine[...]`` sweeps hand the session a full-dimension index
rather than letting the planner choose fewer indexed dimensions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import mean_and_std
from repro.baselines.bruteforce import bruteforce_count
from repro.baselines.rtree_selfjoin import build_rtree, rtree_selfjoin
from repro.baselines.superego import SuperEGO
from repro.core.gridindex import GridIndex
from repro.core.selfjoin import GPUSelfJoin, SelfJoinConfig
from repro.data.datasets import DATASETS, DatasetSpec
from repro.utils.timing import Timer

#: Algorithm labels in the order the figures list them.
ALGORITHMS = ("GPU: Brute Force", "R-Tree", "SuperEGO", "GPU", "GPU: unicomp")

#: Algorithms whose response time does not depend on ε (run once per dataset).
EPS_INDEPENDENT = ("GPU: Brute Force",)

#: Engine-backed variants: ``Engine[<backend>]`` runs the self-join through
#: :mod:`repro.engine` on the named execution backend — parameterized names
#: work too (``Engine[multiprocess(4)]``) — so every registered backend can
#: be measured with the same harness as the paper's algorithms.  A
#: ``/<kernel-spec>`` suffix pins the kernel tier for the measurement:
#: ``Engine[sharded/numba]`` is the sharded backend on the numba tier
#: (shorthand for ``Engine[sharded(kernel=numba)]``).
ENGINE_ALGORITHM_PREFIX = "Engine["
ENGINE_ALGORITHMS = ("Engine[vectorized]", "Engine[bruteforce]",
                     "Engine[sharded]", "Engine[multiprocess]")

#: Parallel engine variants appended to the fig4–fig6 default algorithm sets
#: on a multi-core reference machine.  On fewer cores the pool/shard overhead
#: dominates and the curves say nothing about the paper's scaling story, so
#: the figures gate them on the host CPU count and record the decision in
#: the report header (see :func:`figure_machine_note`).
FIGURE_PARALLEL_ALGORITHMS = ("Engine[sharded]", "Engine[multiprocess]")

#: Minimum host CPUs for the parallel variants to enter the default set.
FIGURE_PARALLEL_MIN_CPUS = 4


def default_figure_algorithms() -> Tuple[str, ...]:
    """The fig4–fig6 default algorithm set on this machine.

    The five paper algorithms always; plus
    :data:`FIGURE_PARALLEL_ALGORITHMS` when the host has at least
    :data:`FIGURE_PARALLEL_MIN_CPUS` cores.
    """
    if (os.cpu_count() or 1) >= FIGURE_PARALLEL_MIN_CPUS:
        return tuple(ALGORITHMS) + FIGURE_PARALLEL_ALGORITHMS
    return tuple(ALGORITHMS)


def figure_machine_note() -> str:
    """One report-header line recording the gate decision and the CPU count."""
    cpus = os.cpu_count() or 1
    labels = ", ".join(FIGURE_PARALLEL_ALGORITHMS)
    if cpus >= FIGURE_PARALLEL_MIN_CPUS:
        verdict = f"included ({labels})"
    else:
        verdict = (f"excluded ({labels}; needs >= "
                   f"{FIGURE_PARALLEL_MIN_CPUS} cores)")
    return f"host CPUs: {cpus}; parallel engine algorithms {verdict}"


def engine_backend_of(algorithm: str) -> Optional[str]:
    """Backend spec of an ``Engine[<backend>]`` label (``None`` otherwise).

    A ``/<kernel-spec>`` suffix on the backend name is translated into the
    registry's ``kernel=`` keyword: ``Engine[sharded/numba]`` resolves to
    ``"sharded(kernel=numba)"`` and ``Engine[sharded(4)/numba]`` to
    ``"sharded(4, kernel=numba)"``.
    """
    if not (algorithm.startswith(ENGINE_ALGORITHM_PREFIX)
            and algorithm.endswith("]")):
        return None
    spec = algorithm[len(ENGINE_ALGORITHM_PREFIX):-1]
    if "/" not in spec:
        return spec
    backend, kernel = spec.split("/", 1)
    if backend.endswith(")"):
        return f"{backend[:-1]}, kernel={kernel})"
    return f"{backend}(kernel={kernel})"


class Measurement(tuple):
    """``(mean_time_s, std_time_s, num_pairs)`` plus schedule counters.

    A plain 3-tuple to every existing caller (unpacking and indexing keep
    working), with the executed backend's
    :attr:`~repro.core.kernels.KernelStats.schedule_counts` riding along so
    ``Engine[...]`` measurements can surface steal/resplit/hedge counts and
    the achieved-vs-predicted cost ratio in figure reports.
    """

    schedule: Dict[str, int]

    def __new__(cls, mean: float, std: float, pairs: int,
                schedule: Optional[Dict[str, int]] = None) -> "Measurement":
        self = super().__new__(cls, (float(mean), float(std), int(pairs)))
        self.schedule = dict(schedule or {})
        return self


@dataclass
class TimingRecord:
    """One measured point of a response-time figure.

    ``extra`` carries per-measurement scheduling observability for
    ``Engine[...]`` algorithms (steals, resplits, hedges, cost_ratio_pct —
    see :class:`repro.parallel.scheduler.ScheduleReport`); empty for the
    paper-baseline algorithms, which have no scheduler.
    """

    dataset: str
    eps: float
    algorithm: str
    time_s: float
    time_std: float = 0.0
    num_pairs: int = 0
    n_points: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def key(self) -> Tuple[str, float]:
        """(dataset, eps) key used to align series across algorithms."""
        return (self.dataset, self.eps)


@dataclass
class ExperimentResult:
    """A bag of timing records with alignment helpers."""

    records: List[TimingRecord] = field(default_factory=list)

    def add(self, record: TimingRecord) -> None:
        """Append a record."""
        self.records.append(record)

    def extend(self, records: Iterable[TimingRecord]) -> None:
        """Append many records."""
        self.records.extend(records)

    def algorithms(self) -> List[str]:
        """Distinct algorithm labels present, in first-seen order."""
        seen: List[str] = []
        for rec in self.records:
            if rec.algorithm not in seen:
                seen.append(rec.algorithm)
        return seen

    def datasets(self) -> List[str]:
        """Distinct dataset names present, in first-seen order."""
        seen: List[str] = []
        for rec in self.records:
            if rec.dataset not in seen:
                seen.append(rec.dataset)
        return seen

    def time_map(self, algorithm: str) -> Dict[Tuple[str, float], float]:
        """Map (dataset, eps) -> time for one algorithm."""
        return {rec.key(): rec.time_s for rec in self.records
                if rec.algorithm == algorithm}

    def series(self, dataset: str, algorithm: str) -> Tuple[List[float], List[float]]:
        """(eps values, times) series of one dataset/algorithm combination."""
        recs = [rec for rec in self.records
                if rec.dataset == dataset and rec.algorithm == algorithm]
        recs.sort(key=lambda r: r.eps)
        return [r.eps for r in recs], [r.time_s for r in recs]

    def to_rows(self) -> List[Tuple[str, float, str, float, int]]:
        """Rows for :func:`repro.experiments.report.format_table`."""
        return [(r.dataset, r.eps, r.algorithm, r.time_s, r.num_pairs)
                for r in self.records]


# --------------------------------------------------------------------------
# single-algorithm timing
# --------------------------------------------------------------------------
def run_algorithm(algorithm: str, points: np.ndarray, eps: float,
                  trials: int = 1, n_threads: Optional[int] = None,
                  rtree_max_entries: int = 16) -> Tuple[float, float, int]:
    """Time one algorithm on one (dataset, ε) configuration.

    Returns ``(mean_time_s, std_time_s, num_pairs)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    times: List[float] = []
    num_pairs = 0

    if algorithm == "R-Tree":
        tree = build_rtree(points, max_entries=rtree_max_entries)
        for _ in range(trials):
            with Timer() as t:
                out = rtree_selfjoin(points, eps, tree=tree)
            times.append(t.elapsed)
            num_pairs = out.result.num_pairs
    elif algorithm == "SuperEGO":
        joiner = SuperEGO(n_threads=n_threads)
        for _ in range(trials):
            with Timer() as t:
                out = joiner.join(points, eps)
            times.append(t.elapsed)
            num_pairs = out.result.num_pairs
    elif algorithm in ("GPU", "GPU: unicomp"):
        config = SelfJoinConfig(unicomp=(algorithm == "GPU: unicomp"))
        joiner = GPUSelfJoin(config)
        for _ in range(trials):
            with Timer() as t:
                result = joiner.join(points, eps)
            times.append(t.elapsed)
            num_pairs = result.num_pairs
    elif algorithm == "GPU: Brute Force":
        for _ in range(trials):
            with Timer() as t:
                out = bruteforce_count(points, eps)
            times.append(t.elapsed)
            num_pairs = out.num_pairs
    elif engine_backend_of(algorithm) is not None:
        # Single-ε case of the session-held sweep below: one session per
        # (dataset, backend), repeated trials amortizing the one-time costs
        # exactly like the paper's repeated kernel launches.
        return run_algorithm_sweep(algorithm, points, [eps], trials=trials,
                                   n_threads=n_threads,
                                   rtree_max_entries=rtree_max_entries)[0]
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: "
                         f"{ALGORITHMS + ENGINE_ALGORITHMS}")

    mean, std = mean_and_std(times)
    return mean, std, num_pairs


def run_algorithm_sweep(algorithm: str, points: np.ndarray,
                        eps_values: Sequence[float], trials: int = 1,
                        n_threads: Optional[int] = None,
                        rtree_max_entries: int = 16,
                        ) -> List[Tuple[float, float, int]]:
    """Time one algorithm across a whole ε sweep on one dataset.

    For ``Engine[<backend>]`` labels the entire sweep runs inside **one**
    :class:`~repro.engine.session.EngineSession` per (dataset, backend), so
    the one-time costs the session amortizes — pool creation, shared-memory
    or store attachment, per-ε index construction across repeated trials —
    are paid once per sweep instead of once per (ε, trial) measurement,
    mirroring how the paper's repeated kernel launches share one resident
    dataset.  Other algorithms delegate to :func:`run_algorithm` per ε.

    Returns one ``(mean_time_s, std_time_s, num_pairs)`` triple per ε.
    """
    backend = engine_backend_of(algorithm)
    if backend is None:
        return [run_algorithm(algorithm, points, float(eps), trials=trials,
                              n_threads=n_threads,
                              rtree_max_entries=rtree_max_entries)
                for eps in eps_values]
    from repro.engine import EngineSession, Query

    measurements: List[Tuple[float, float, int]] = []
    with EngineSession(points, backend=backend) as session:
        unicomp = session.backend.supports_unicomp
        for eps in eps_values:
            times: List[float] = []
            num_pairs = 0
            schedule: Dict[str, int] = {}
            query = Query.self_join(session.points, float(eps), unicomp=unicomp)
            index: Optional[GridIndex] = None
            for _ in range(max(1, trials)):
                with Timer() as t:
                    # Built by the first trial and reused, as the session
                    # cache would; over all dimensions, as in the paper.
                    if index is None:
                        index = GridIndex.build(session.points, float(eps))
                    result = session.run(query, index=index)
                    num_pairs = result.num_pairs
                times.append(t.elapsed)
                schedule = dict(result.stats.schedule_counts)
            mean, std = mean_and_std(times)
            measurements.append(Measurement(mean, std, num_pairs,
                                            schedule=schedule))
    return measurements


# --------------------------------------------------------------------------
# response-time experiments (Figures 4, 5, 6)
# --------------------------------------------------------------------------
def run_response_time_experiment(dataset_names: Sequence[str],
                                 algorithms: Sequence[str] = ALGORITHMS,
                                 n_points: Optional[int] = None,
                                 eps_values: Optional[Dict[str, Sequence[float]]] = None,
                                 trials: int = 1, seed: int = 0,
                                 n_threads: Optional[int] = None,
                                 ) -> ExperimentResult:
    """Measure response time vs ε for several datasets and algorithms.

    Parameters
    ----------
    dataset_names:
        Names from :data:`repro.data.datasets.DATASETS`.
    algorithms:
        Algorithm labels (subset of :data:`ALGORITHMS`).
    n_points:
        Scaled dataset size; each dataset's registry default when omitted.
    eps_values:
        Optional per-dataset ε overrides; the registry's density-rescaled ε
        sweep when omitted.
    trials:
        Timed repetitions per measurement (paper: 3).
    seed:
        Dataset generation seed.
    n_threads:
        Thread count for SUPEREGO.

    Returns
    -------
    ExperimentResult
    """
    result = ExperimentResult()
    for name in dataset_names:
        spec: DatasetSpec = DATASETS[name]
        points = spec.generate(n_points=n_points, seed=seed)
        eps_list = list(eps_values[name]) if eps_values and name in eps_values \
            else spec.scaled_eps(n_points)
        for algorithm in algorithms:
            sweep = eps_list[:1] if algorithm in EPS_INDEPENDENT else eps_list
            # One session per (dataset, algorithm) across the whole sweep:
            # Engine[...] labels amortize pool/index start-up over every
            # (ε, trial) point instead of paying it per measurement.
            measurements = run_algorithm_sweep(
                algorithm, points, [float(e) for e in sweep], trials=trials,
                n_threads=n_threads)
            for eps, measured in zip(sweep, measurements):
                mean, std, pairs = measured
                extra = {k: float(v) for k, v in
                         getattr(measured, "schedule", {}).items()}
                result.add(TimingRecord(dataset=name, eps=float(eps),
                                        algorithm=algorithm, time_s=mean,
                                        time_std=std, num_pairs=pairs,
                                        n_points=points.shape[0],
                                        extra=extra))
    return result
