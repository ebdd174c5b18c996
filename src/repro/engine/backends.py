"""Pluggable execution backends for the unified query engine.

An :class:`ExecutionBackend` knows how to run the two physical operators
every query kind reduces to:

``run_selfjoin``
    The grid self-join over an optional subset of source cells (so the
    batching scheme of Section V-A applies uniformly).
``run_probe``
    The bipartite probe: an external query set is searched against the grid
    index with the same bounded 3^n adjacent-cell walk, over an optional
    subset of query rows.

Both operators emit pair fragments into a
:class:`~repro.core.result.PairFragments` sink — the CSR-native result
pipeline — and return the paper's :class:`~repro.core.kernels.KernelStats`
work counters.  Backends register themselves in :data:`BACKENDS` via
:func:`register_backend`.

Available backends:

* ``vectorized`` — the production path: one call into each operator of
  :mod:`repro.core.kernels` (:func:`~repro.core.kernels.run_selfjoin`,
  :func:`~repro.core.kernels.run_probe`), which every shard of the
  parallel backends runs too.
* ``simulated`` — instrumented device-model path (Table II); probes run
  the production probe on the NumPy tier, since the paper's device model
  only covers the self-join kernels.
* ``bruteforce`` — index-free chunked all-pairs reference.
* ``sharded`` / ``multiprocess`` / ``distributed`` — the parallel and
  distributed execution subsystems (:mod:`repro.parallel`,
  :mod:`repro.distributed`), registered lazily so importing the engine
  never pays for (or fails on) their dependencies.

Backend lookup accepts parameterized names — ``"multiprocess(4)"`` builds
the multiprocess backend with four workers, ``"sharded(7)"`` a seven-shard
decomposition, and keyword arguments are accepted too:
``"sharded(4, kernel=numba)"`` forces the numba kernel tier (see
:mod:`repro.core.nativekernels`) under a four-shard decomposition;
``kernel=`` takes a tier only (``auto``, ``numpy`` or ``numba``).  Lookup
is *lazy*: a backend whose optional dependency is missing stays listed in
:func:`list_backends` but raises a clear :class:`BackendUnavailableError`
from :func:`get_backend`; :func:`backend_availability` reports every
backend's status.
"""

from __future__ import annotations

import abc
import importlib
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.core import kernels, nativekernels
from repro.core.gridindex import GridIndex
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats
from repro.core.result import PairFragments


class ExecutionBackend(abc.ABC):
    """One way of physically executing grid joins and probes.

    Class attributes advertise planner-relevant capabilities:

    ``supports_cell_subset``
        The self-join operator accepts a source-cell subset, so the batching
        scheme can split its work.
    ``supports_unicomp``
        The self-join operator has a UNICOMP variant.
    """

    name: str = "abstract"
    supports_cell_subset: bool = False
    supports_unicomp: bool = False
    #: The backend performs its own work decomposition (shards, worker
    #: pools); the planner then skips the result batch split, which
    #: would otherwise multiply the decomposition overhead per batch.
    owns_decomposition: bool = False
    #: The backend implements :meth:`run_selfjoin_streamed` — it can join a
    #: streamable :class:`~repro.data.store.DatasetSource` (an on-disk
    #: :class:`~repro.data.store.SpatialStore`) slice-at-a-time without the
    #: planner ever materializing the dataset or a global grid index.
    supports_streaming: bool = False
    #: The backend models the paper's GPU, whose grid indexes every
    #: dimension: the planner then never reduces the indexed dims.
    models_device: bool = False

    # ------------------------------------------------------ session lifecycle
    def attach(self, session) -> None:
        """Prepare persistent per-dataset state for an opening session.

        Called once when an :class:`~repro.engine.session.EngineSession`
        opens.  Stateful backends override this to build resources that
        outlive a single operator call — the shard backends share one
        implementation in
        :class:`~repro.parallel.executor.ShardExecutionBackend`, where
        ``multiprocess`` creates its persistent worker pool and the
        shared-memory view of ``session.points``.  The default is a no-op,
        so stateless backends need not care about sessions at all.
        """

    def detach(self, session) -> None:
        """Release the per-dataset state of a closing session.

        Paired with :meth:`attach`; called from ``EngineSession.close()``.
        The default is a no-op.
        """

    def kernel_tier(self) -> str:
        """Resolved kernel tier this backend's distance loops run on.

        ``"numpy"`` unless the backend routes through the tiered kernel
        dispatch of :mod:`repro.core.nativekernels` (the ``vectorized``
        backend and everything that composes it).  Sessions use this to
        warm the JIT cache at attach time; may raise
        :class:`~repro.core.nativekernels.KernelTierUnavailableError` when
        an explicitly requested tier cannot run here.
        """
        return "numpy"

    @abc.abstractmethod
    def run_selfjoin(self, index: GridIndex, eps: float,
                     cells: Optional[np.ndarray], sink: PairFragments, *,
                     unicomp: bool = False,
                     max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
                     ) -> KernelStats:
        """Self-join ``index`` over ``cells`` (all when ``None``), emit into ``sink``."""

    @abc.abstractmethod
    def run_probe(self, queries: np.ndarray, index: GridIndex, eps: float,
                  sink: PairFragments, *, rows: Optional[np.ndarray] = None,
                  max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
                  ) -> KernelStats:
        """Probe ``queries[rows]`` against ``index``; emit (row, data id) pairs.

        Keys emitted into ``sink`` are *global* row indices into ``queries``.
        Correct only for ``eps <= index.eps`` (the adjacent-cell walk is
        bounded to one cell layer, as everywhere in the paper).
        """

    def run_selfjoin_streamed(self, source, eps: float, sink: PairFragments, *,
                              unicomp: bool = False,
                              max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS,
                              ) -> KernelStats:
        """Self-join a streamable on-disk source shard-at-a-time.

        Only backends with ``supports_streaming = True`` implement this
        (the planner never routes a streamed plan elsewhere); the default
        fails fast so a direct caller gets a clear error instead of a
        silently materialized dataset.  Emitted pair ids are the source's
        *original* row ids, so streamed results are interchangeable with
        in-memory ones.
        """
        raise NotImplementedError(
            f"the {self.name!r} backend cannot stream an on-disk dataset "
            "(supports_streaming=False); materialize it with "
            "source.as_array() or use the 'sharded' backend")


class BackendUnavailableError(KeyError):
    """A registered backend cannot be constructed (missing optional dependency).

    Subclasses :class:`KeyError` so callers guarding lookups with
    ``except KeyError`` keep working.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass
class BackendProvider:
    """Registry entry: how to construct a backend by name.

    Either ``factory`` is set (an eagerly registered backend class), or
    ``module`` names a module whose import registers the factory under the
    same name (lazy registration — the import only happens on first lookup,
    so a backend with an unavailable optional dependency never breaks
    ``import repro.engine``).
    """

    name: str
    factory: Optional[Callable[..., ExecutionBackend]] = None
    module: Optional[str] = None


#: Registry of backend providers by base name (see :class:`BackendProvider`).
BACKENDS: Dict[str, BackendProvider] = {}

#: Constructed backend instances, cached by their full (parameterized) name.
_INSTANCES: Dict[str, ExecutionBackend] = {}

_NAME_RE = re.compile(r"^(?P<base>[A-Za-z_]\w*)(?:\((?P<args>[^()]*)\))?$")


def _evict_instances(base: str) -> None:
    """Drop cached instances of ``base``, including parameterized ones.

    Re-registering a backend must not leave ``get_backend("name(4)")``
    returning an instance of the replaced class.
    """
    for key in [k for k in _INSTANCES
                if _parse_backend_name(k)[0] == base]:
        del _INSTANCES[key]


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Class decorator: register a backend class under ``cls.name``.

    Instances are constructed lazily by :func:`get_backend`; classes whose
    ``__init__`` takes parameters are reachable through parameterized names
    such as ``"multiprocess(4)"``.
    """
    BACKENDS[cls.name] = BackendProvider(name=cls.name, factory=cls)
    _evict_instances(cls.name)
    return cls


def register_lazy_backend(name: str, module: str) -> None:
    """Register a backend resolved by importing ``module`` on first lookup.

    ``module`` must register a backend named ``name`` (via
    :func:`register_backend`) as an import side effect; when the import
    fails, lookups raise :class:`BackendUnavailableError` naming the cause.
    """
    BACKENDS[name] = BackendProvider(name=name, module=module)
    _evict_instances(name)


def _coerce_token(token: str) -> Union[int, float, str]:
    """Coerce a spec token to int, then float, falling back to the string."""
    try:
        return int(token)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            return token


def _parse_backend_name(name: str) -> Tuple[str, Tuple[Union[int, float, str], ...],
                                            Dict[str, Union[int, float, str]]]:
    """Split a backend spec into ``(base, args, kwargs)``.

    ``"multiprocess(4)"`` parses to ``("multiprocess", (4,), {})`` and
    ``"sharded(4, kernel=numba)"`` to ``("sharded", (4,),
    {"kernel": "numba"})``.  Positional tokens may not follow keyword ones.
    """
    match = _NAME_RE.match(name.strip())
    if match is None:
        raise KeyError(f"malformed backend name {name!r}; expected "
                       "'<name>' or '<name>(<arg>, ..., <key>=<value>, ...)'")
    base = match.group("base")
    raw = match.group("args")
    if raw is None or not raw.strip():
        return base, (), {}
    args: List[Union[int, float, str]] = []
    kwargs: Dict[str, Union[int, float, str]] = {}
    for token in raw.split(","):
        token = token.strip()
        if "=" in token:
            key, _, value = token.partition("=")
            key = key.strip()
            if not key.isidentifier():
                raise KeyError(f"malformed keyword {token!r} in backend "
                               f"name {name!r}")
            kwargs[key] = _coerce_token(value.strip())
        else:
            if kwargs:
                raise KeyError(f"positional argument {token!r} follows a "
                               f"keyword argument in backend name {name!r}")
            args.append(_coerce_token(token))
    return base, tuple(args), kwargs


def _resolve_provider(base: str) -> BackendProvider:
    """Return a provider with a usable factory, importing lazily if needed."""
    try:
        provider = BACKENDS[base]
    except KeyError as exc:
        raise KeyError(f"unknown backend {base!r}; known: {sorted(BACKENDS)}") from exc
    if provider.factory is not None:
        return provider
    try:
        importlib.import_module(provider.module)
    except ImportError as exc:
        raise BackendUnavailableError(
            f"backend {base!r} is unavailable: {exc}") from exc
    provider = BACKENDS[base]
    if provider.factory is None:
        raise BackendUnavailableError(
            f"importing {BACKENDS[base].module!r} did not register "
            f"backend {base!r}")
    return provider


def get_backend(name: str) -> ExecutionBackend:
    """Look up (and lazily construct) a backend by name.

    Raises :class:`KeyError` for unknown names (listing the known ones),
    :class:`BackendUnavailableError` when the backend is registered but its
    optional dependency is missing, and :class:`ValueError` for malformed
    constructor arguments in a parameterized name.
    """
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    base, args, kwargs = _parse_backend_name(name)
    provider = _resolve_provider(base)
    try:
        instance = provider.factory(*args, **kwargs)
    except TypeError as exc:
        raise ValueError(f"bad arguments for backend {base!r}: {exc}") from exc
    _INSTANCES[name] = instance
    return instance


def list_backends() -> List[str]:
    """Names of all registered backends (available or not)."""
    return sorted(BACKENDS)


def backend_availability() -> Dict[str, Optional[str]]:
    """Availability of every registered backend.

    Maps each name to ``None`` when the backend can be constructed, or to a
    human-readable reason (e.g. the missing optional dependency) when not.
    """
    status: Dict[str, Optional[str]] = {}
    for name in list_backends():
        try:
            _resolve_provider(name)
        except BackendUnavailableError as exc:
            status[name] = str(exc)
        else:
            status[name] = None
    return status


def available_backends() -> List[str]:
    """Names of the backends that can actually be constructed right now."""
    return [name for name, reason in backend_availability().items()
            if reason is None]


# --------------------------------------------------------------------------
# backends
# --------------------------------------------------------------------------
def _probe_rows(queries: np.ndarray, rows: Optional[np.ndarray]) -> np.ndarray:
    """Resolve the probed row subset (all rows when ``None``)."""
    if rows is None:
        return np.arange(queries.shape[0], dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def _reject_cell_subset(backend: ExecutionBackend, cells) -> None:
    """Fail fast when a cell batch reaches a backend that cannot honor it.

    Silently ignoring the subset would emit the *full* self-join once per
    batch, duplicating every result pair.
    """
    if cells is not None:
        raise ValueError(f"the {backend.name!r} backend does not support "
                         "source-cell subsets (supports_cell_subset=False)")


@register_backend
class VectorizedBackend(ExecutionBackend):
    """Production path: the two operators of :mod:`repro.core.kernels`.

    Both run the shared walker and emitter, with the numba tier's compiled
    pair kernels when available and the NumPy expand/filter step
    otherwise.  ``kernel`` pins the tier — ``"vectorized(kernel=numba)"``,
    ``"vectorized(kernel=numpy)"``.
    """

    name = "vectorized"
    supports_cell_subset = True
    supports_unicomp = True

    def __init__(self, kernel: str = "auto") -> None:
        self.tier = nativekernels.parse_kernel_spec(kernel)

    def kernel_tier(self) -> str:
        return nativekernels.resolve_kernel_tier(self.tier)

    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        return kernels.run_selfjoin(index, eps, sink, cells=cells,
                                    unicomp=unicomp, tier=self.tier,
                                    max_candidate_pairs=max_candidate_pairs)

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        return kernels.run_probe(queries, index, eps, sink, rows=rows,
                                 tier=self.tier,
                                 max_candidate_pairs=max_candidate_pairs)


@register_backend
class SimulatedBackend(ExecutionBackend):
    """Instrumented device-model path (per-thread simulation, Table II)."""

    name = "simulated"
    supports_unicomp = True
    models_device = True

    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        from repro.core.simkernels import simulated_selfjoin

        _reject_cell_subset(self, cells)
        out = simulated_selfjoin(index, eps, unicomp=unicomp)
        sink.emit(out.result.keys, out.result.values)
        return KernelStats(result_pairs=out.result.num_pairs)

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        # The device model only covers the self-join kernels; probes run
        # the uninstrumented production probe.
        return kernels.run_probe(queries, index, eps, sink, rows=rows,
                                 tier="numpy",
                                 max_candidate_pairs=max_candidate_pairs)


@register_backend
class BruteForceBackend(ExecutionBackend):
    """Index-free chunked all-pairs reference (ε-independent work).

    Both operators delegate to the one shared chunked scan in
    :func:`repro.baselines.bruteforce.allpairs_emit`, which keeps the
    ε-boundary decision bit-identical to the grid kernels'.
    """

    name = "bruteforce"

    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        _reject_cell_subset(self, cells)
        return self._all_pairs(index.points, index.points, eps, sink, None)

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        return self._all_pairs(queries, index.points, eps, sink, rows)

    @staticmethod
    def _all_pairs(queries: np.ndarray, data: np.ndarray, eps: float,
                   sink: PairFragments, rows: Optional[np.ndarray]) -> KernelStats:
        from repro.baselines.bruteforce import allpairs_emit

        stats = KernelStats()
        before = sink.num_pairs
        stats.distance_calcs = allpairs_emit(queries, data, eps, sink,
                                             rows=_probe_rows(queries, rows))
        stats.result_pairs = sink.num_pairs - before
        return stats


# --------------------------------------------------------------------------
# lazily registered backends (the parallel execution subsystem)
# --------------------------------------------------------------------------
register_lazy_backend("sharded", "repro.parallel.sharded")
register_lazy_backend("multiprocess", "repro.parallel.mp")
register_lazy_backend("distributed", "repro.distributed.backend")
