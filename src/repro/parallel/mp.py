"""Multiprocess execution: the shard decomposition on a process pool.

:class:`MultiprocessBackend` executes the same cost-balanced shard
decomposition as :class:`repro.parallel.sharded.ShardedBackend`, but runs
the shards on a ``multiprocessing`` pool.  Workers rebuild the
:class:`~repro.core.gridindex.GridIndex` locally — index construction is a
sort plus a run-length encoding, orders of magnitude cheaper than the join
— which guarantees bit-identical ``B`` ordering without pickling the index
arrays.  Workers return their shard's pair fragments as two plain int64
arrays (cheap to pickle); the parent emits them into the caller's sink, so
the merge path is identical to the serial sharded backend's.

Scheduling is **pull-based** (see :mod:`repro.parallel.scheduler`): the
planner oversplits into ``OVERSPLIT_FACTOR`` (~4×) shards per worker,
dispatch goes largest-cost-first through ``imap_unordered(chunksize=1)``,
and each pool worker fetches its next shard the moment it finishes one — a
slow worker simply pulls fewer shards while fast peers absorb its share.
Completions arrive in any order; the parent buffers them and emits strictly
in shard-id (B) order, so results stay bit-identical to the serial sharded
run regardless of which worker ran what.  The observed schedule (per-worker
throughput, steals beyond fair share, achieved-vs-predicted cost ratio) is
reported in ``KernelStats.schedule_counts`` and ``backend.last_schedule``.

Two execution modes share those worker kernels:

**One-shot** (no session): a fresh pool per operator call, the dataset
shipped to each worker once through the pool *initializer*.  This is the
original PR-2 path, kept as the fallback and for callers outside a session.

**Session-attached** (the engine lifecycle of
:class:`repro.engine.session.EngineSession`): :meth:`attach` creates a
*persistent pool keyed by dataset identity* plus a
``multiprocessing.shared_memory`` segment holding the points array; every
worker maps the segment read-only (O(1) worker memory in dataset size,
``track=False`` on Python ≥ 3.13, a resource-tracker unregister workaround
below that, and a guarded fallback to the initializer-pickle path where
shared memory is unusable).  Subsequent queries of the session — including
kNN radius-doubling rounds at new ε, which workers index-cache locally —
dispatch onto the warm pool with **no pool creation and no dataset
re-shipping**.  :meth:`detach` parks the pool on an LRU idle list
(``max_idle`` deep) so a follow-up session over the same dataset revives
it; evicted or shut-down pools release their shared memory, and an
``atexit`` hook tears down whatever is still alive at interpreter exit.

When the session's dataset is an **on-disk source** (a
:class:`~repro.data.store.SpatialStore`), no shared-memory copy is created
at all: each worker memory-maps the store's B-ordered ``points.npy``
directly (page cache shared between workers for free) and indexes the
stored row order, translating emitted ids back to original dataset ids
through the store's ``ids`` directory — so results are identical to the
in-memory path while the only per-worker dataset cost is the O(n) index
arrays, never a second copy of the points.

Registered as ``multiprocess``; parameterized lookups configure it:
``multiprocess(4)`` uses four workers, ``multiprocess(2, cellwise)`` runs
the cellwise reference kernels in two workers.

NumPy-heavy shards release the GIL anyway, but process isolation also
side-steps the allocator contention a thread pool would hit, and matches
the paper's framing of fully independent batches.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.batching import estimate_probe_row_costs, split_by_cost
from repro.core.gridindex import GridIndex
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats
from repro.core.result import PairFragments
from repro.core.nativekernels import parse_kernel_spec
from repro.engine.backends import (
    ExecutionBackend,
    compose_kernel_spec,
    get_backend,
    register_backend,
    _probe_rows,
)
from repro.parallel.scheduler import (
    OVERSPLIT_FACTOR,
    ShardTask,
    pool_schedule_report,
)
from repro.parallel.shards import ShardPlanner, default_worker_count

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without shm support
    _shm = None

#: Environment override for the pool start method (``fork`` / ``spawn`` /
#: ``forkserver``); the platform default when unset.
START_METHOD_ENV_VAR = "REPRO_MP_START_METHOD"

#: ``SharedMemory`` grew ``track=`` in Python 3.13; below that, attaching a
#: segment registers it with the resource tracker, which would warn at exit
#: and unlink a segment the parent still owns (see :func:`_attach_shared_view`).
_SHM_HAS_TRACK = sys.version_info >= (3, 13)

#: LRU bound on the per-worker index cache of a persistent pool (the kNN
#: radius-doubling loop asks for one index per doubled ε).
WORKER_INDEX_CACHE_SIZE = 8

# Per-worker state installed by the one-shot pool initializer: the rebuilt
# grid index, the probe-side query points, the inner backend and the kernel
# chunk bound.  Plain module globals — each worker process has its own copy.
_WORKER: dict = {}

# Per-worker state of a *persistent* (session) pool: the dataset (a
# shared-memory view or the pickled fallback), an ε-keyed local index cache
# and the inner backend name.
_SESSION_WORKER: dict = {}


# --------------------------------------------------------------------------
# one-shot worker kernels (fresh pool per operator call)
# --------------------------------------------------------------------------
def _init_worker(points: np.ndarray, queries: Optional[np.ndarray],
                 index_eps: float, inner: str, max_candidate_pairs: int) -> None:
    """Pool initializer: receive the dataset once, rebuild the index locally."""
    _WORKER["index"] = GridIndex.build(points, index_eps)
    _WORKER["queries"] = queries
    _WORKER["backend"] = get_backend(inner)
    _WORKER["max_candidate_pairs"] = int(max_candidate_pairs)


def _run_selfjoin_shard(task):
    """Worker task: self-join one cell shard, return its flat pair arrays.

    Every worker kernel returns ``(shard_id, keys, values, stats, pid,
    duration)``: the shard id keys the parent's deterministic B-order merge
    (tasks complete in *pull* order, not plan order), and the pid/duration
    pair feeds :func:`repro.parallel.scheduler.pool_schedule_report`.
    """
    shard_id, cells, eps, unicomp = task
    started = time.perf_counter()
    index = _WORKER["index"]
    sink = PairFragments(index.num_points)
    stats = _WORKER["backend"].run_selfjoin(
        index, eps, cells, sink, unicomp=unicomp,
        max_candidate_pairs=_WORKER["max_candidate_pairs"])
    keys, values = sink.concatenated()
    return shard_id, keys, values, stats, os.getpid(), \
        time.perf_counter() - started


def _run_probe_shard(task):
    """Worker task: probe one row group, return its flat pair arrays."""
    shard_id, rows, eps, num_rows = task
    started = time.perf_counter()
    index = _WORKER["index"]
    sink = PairFragments(num_rows)
    stats = _WORKER["backend"].run_probe(
        _WORKER["queries"], index, eps, sink, rows=rows,
        max_candidate_pairs=_WORKER["max_candidate_pairs"])
    keys, values = sink.concatenated()
    return shard_id, keys, values, stats, os.getpid(), \
        time.perf_counter() - started


# --------------------------------------------------------------------------
# persistent-pool worker kernels (session lifecycle)
# --------------------------------------------------------------------------
def _attach_shared_view(name: str, shape: Tuple[int, ...],
                        dtype: str) -> Tuple[object, np.ndarray]:
    """Map the dataset segment into this worker without tracker noise.

    Returns ``(shm, view)``; the caller must keep ``shm`` referenced for as
    long as the view is used.
    """
    if _SHM_HAS_TRACK:
        shm = _shm.SharedMemory(name=name, track=False)
    else:
        # Pre-3.13 the attach path registers the segment with the (shared)
        # resource tracker too; an unregister-after-attach would race with
        # the parent's create-side registration (one tracker cache entry per
        # name), so suppress the child-side registration instead — the
        # parent's registration remains the single cleanup net.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _no_shm_register(name_, rtype):  # pragma: no cover - 3.13+ skips
            if rtype != "shared_memory":
                original_register(name_, rtype)

        resource_tracker.register = _no_shm_register
        try:
            shm = _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    # Every worker maps the same segment: a stray in-place write anywhere
    # would silently corrupt the dataset under all of them (and under the
    # park-time content digest).  Make that an immediate ValueError instead.
    view.flags.writeable = False
    return shm, view


def _init_session_worker(shm_name: Optional[str], shape, dtype,
                         pickled_points: Optional[np.ndarray],
                         inner: str, store_path: Optional[str] = None) -> None:
    """Persistent-pool initializer: map (or receive) the dataset once.

    Three dataset transports, in order of preference: an on-disk store
    (``store_path`` — the worker memory-maps the B-ordered file and keeps
    the original-id directory for result translation), a shared-memory
    segment (``shm_name``), or the pickled-initargs fallback.
    """
    ids = None
    if store_path is not None:
        from repro.data.store import SpatialStore

        store = SpatialStore.open(store_path)
        points = store.stored_points()  # read-only memmap, stored (B) order
        ids = store.stored_ids()
    elif shm_name is not None:
        shm, points = _attach_shared_view(shm_name, shape, dtype)
        _SESSION_WORKER["shm"] = shm  # keep the mapping alive
    else:
        points = pickled_points
    _SESSION_WORKER["points"] = points
    _SESSION_WORKER["ids"] = ids
    _SESSION_WORKER["indexes"] = OrderedDict()
    _SESSION_WORKER["inner"] = inner


def _session_index(index_eps: float) -> GridIndex:
    """Worker-local index for ``index_eps``, LRU-cached across tasks.

    Mirrors the parent session's per-ε cache: a warm pool queried at a new ε
    (a radius-doubling round, a sweep step) rebuilds the index locally once
    and then serves every later shard of any query at that ε from cache.
    """
    cache: OrderedDict = _SESSION_WORKER["indexes"]
    key = float(index_eps)
    index = cache.get(key)
    if index is None:
        index = GridIndex.build(_SESSION_WORKER["points"], key)
        cache[key] = index
        while len(cache) > WORKER_INDEX_CACHE_SIZE:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return index


def _run_session_selfjoin(task):
    """Persistent-pool task: self-join one cell shard of the session dataset.

    A store-backed worker indexes the *stored* (B-order) rows; the grid —
    and therefore the shard cell numbering — is identical to the parent's
    original-order index (same point set, same ε), but emitted ids are
    stored-row positions and are translated back to original dataset ids
    through the store's id directory before returning.
    """
    shard_id, index_eps, cells, eps, unicomp, max_candidate_pairs = task
    started = time.perf_counter()
    index = _session_index(index_eps)
    sink = PairFragments(index.num_points)
    stats = get_backend(_SESSION_WORKER["inner"]).run_selfjoin(
        index, eps, cells, sink, unicomp=unicomp,
        max_candidate_pairs=int(max_candidate_pairs))
    keys, values = sink.concatenated()
    ids = _SESSION_WORKER["ids"]
    if ids is not None:
        keys, values = np.asarray(ids)[keys], np.asarray(ids)[values]
    return shard_id, keys, values, stats, os.getpid(), \
        time.perf_counter() - started


def _run_session_probe(task):
    """Persistent-pool task: probe one row group against the session dataset.

    ``queries is None`` means the probe side *is* the session dataset (the
    self-kNN / range-over-self case): it resolves to the shared view and
    ``rows`` are global row indices, so the probe points never travel
    through a pickle.  An *external* query set arrives as just this task's
    row-group slice (``rows is None``) — the emitted keys are then local to
    the slice and the parent re-bases them onto the global rows, so each
    query row is pickled exactly once per query, not once per task.
    """
    shard_id, index_eps, rows, eps, num_rows, queries, max_candidate_pairs = task
    started = time.perf_counter()
    index = _session_index(index_eps)
    if queries is None:
        queries = _SESSION_WORKER["points"]
    sink = PairFragments(num_rows)
    stats = get_backend(_SESSION_WORKER["inner"]).run_probe(
        queries, index, eps, sink, rows=rows,
        max_candidate_pairs=int(max_candidate_pairs))
    keys, values = sink.concatenated()
    ids = _SESSION_WORKER["ids"]
    if ids is not None:
        # Store-backed worker: the index side is in stored (B) order, so
        # the *values* translate through the id directory.  The keys are
        # probe-slice rows (store sessions always ship probe slices) and
        # are re-based by the parent.
        values = np.asarray(ids)[values]
    return shard_id, keys, values, stats, os.getpid(), \
        time.perf_counter() - started


# --------------------------------------------------------------------------
# parent-side pool state
# --------------------------------------------------------------------------
def _full_digest(points: np.ndarray) -> str:
    """Full-content hash guarding idle-pool revival against mutation.

    Computed when a pool is *parked* and re-checked when it would be
    *revived* — the only moments a stale worker-side snapshot could slip
    in — so the O(n) hashing cost is paid per park/revive, never per query.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(points).data)
    return digest.hexdigest()


@dataclass
class _SessionPool:
    """One persistent pool plus the dataset resources it holds."""

    key: tuple
    pool: multiprocessing.pool.Pool
    n_workers: int
    worker_pids: Tuple[int, ...]
    #: The parent-side dataset while the pool is attached; released
    #: (``None``) while parked idle so the pool does not pin the caller's
    #: array — revival re-binds it from the attaching session, guarded by
    #: ``content_digest``.
    points: Optional[np.ndarray]
    shm: Optional[object] = None  # parent-side SharedMemory (None: pickled)
    #: Path of the on-disk store the workers mapped (None: shm/pickle
    #: transport).  Store-backed pools index stored row order in the
    #: workers, so probes always ship probe slices (see ``run_probe``).
    store_path: Optional[str] = None
    attached: Set[int] = field(default_factory=set)  # session tokens
    #: Full-content hash of ``points`` taken when the pool was parked idle.
    content_digest: Optional[str] = None
    #: The pool was revived from the idle list at least once — a previous
    #: warm-keeping owner parked it, so even a ``keep_warm=False`` session
    #: must re-park it on detach rather than destroy it.
    revived: bool = False
    #: Some attached session asked for warm-pool reuse; parking on the last
    #: detach honors *any* attacher's preference, not just the last one's.
    keep_warm_requested: bool = False


@dataclass
class MultiprocessStats:
    """Lifecycle counters of one :class:`MultiprocessBackend` instance.

    Exposed so tests can assert the acceptance properties directly: a warm
    session query performs **no pool creation** (``pools_created`` stays
    flat) and **no dataset re-shipping** (``datasets_shipped`` stays flat —
    on the shared-memory path it never rises above zero, because the points
    enter a segment once at attach and are mapped, not pickled).
    """

    pools_created: int = 0
    pools_revived: int = 0
    pools_shut_down: int = 0
    #: Times the full dataset entered pool-initializer args (pickled under
    #: ``spawn``, copied-on-write under ``fork``): one-shot calls and the
    #: shared-memory fallback.  Zero on the zero-copy path.
    datasets_shipped: int = 0
    #: Times a pool's workers memory-mapped an on-disk store instead of
    #: receiving a shared-memory (or pickled) copy of the points.
    datasets_mapped: int = 0
    shm_segments_created: int = 0
    shm_segments_released: int = 0
    tasks_dispatched: int = 0
    #: Shards absorbed by a worker beyond its fair share of the pull queue
    #: (see :func:`repro.parallel.scheduler.pool_schedule_report`) — the
    #: pool-mode measure of work stolen from slower workers.
    shards_stolen: int = 0


def _shutdown_state(state: _SessionPool) -> bool:
    """Terminate one pool and release its shared memory (idempotent).

    Module-level so the backend's ``weakref.finalize`` safety net can run
    it without holding (or needing) the backend itself.  Returns whether a
    shared-memory segment was actually unlinked.
    """
    try:
        state.pool.terminate()
        state.pool.join()
    except Exception:  # pragma: no cover - interpreter teardown races
        pass
    released = False
    if state.shm is not None:
        try:
            state.shm.close()
            state.shm.unlink()
            released = True
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        state.shm = None
    return released


def _shutdown_states(active: Dict[tuple, _SessionPool],
                     idle: "OrderedDict[tuple, _SessionPool]") -> None:
    """Finalizer: tear down whatever pools a backend still owns.

    Runs when the backend is garbage-collected *or* at interpreter exit
    (``weakref.finalize`` covers both), so neither a dropped throwaway
    backend nor a process-long one can orphan worker processes or
    dataset-sized shared-memory segments — and the finalizer holds only the
    state containers, never the backend, so pool-less backends stay
    collectable.
    """
    for state in list(active.values()) + list(idle.values()):
        _shutdown_state(state)
    active.clear()
    idle.clear()


@register_backend
class MultiprocessBackend(ExecutionBackend):
    """Cost-balanced shards executed on a ``multiprocessing`` pool.

    Parameters
    ----------
    n_workers:
        Pool size (``REPRO_PARALLEL_WORKERS`` / CPU count when omitted).
    inner:
        Backend executed per shard inside the workers.
    n_shards:
        Shard count (``n_workers * scheduler.OVERSPLIT_FACTOR`` when
        omitted — the pull queue's rebalancing slack).
    start_method:
        ``multiprocessing`` start method override.
    max_idle:
        How many detached session pools to keep warm for revival (LRU);
        ``0`` shuts a pool down on the last detach.
    use_shared_memory:
        Ship session datasets through ``multiprocessing.shared_memory``
        (zero-copy, O(1) worker memory); falls back to initializer pickling
        when unavailable.  On-disk sources skip shared memory entirely —
        workers map the store file instead.
    seed:
        RNG seed for the sampled cost estimates behind the shard and
        probe-row decompositions, so plans are reproducible from one knob:
        ``MultiprocessBackend(seed=11)``, or in a registry spec —
        ``multiprocess(4, seed=11)`` (positionally every earlier argument
        must be spelled out; ``1``/``0`` stand in for the booleans).
    kernel:
        Kernel-tier spec threaded into the inner backend (see
        :mod:`repro.core.nativekernels`): ``multiprocess(4, kernel=numba)``
        forces the numba tier inside every worker; the default ``auto``
        lets each shard pick its tier and dense/sparse kernel adaptively.
    """

    name = "multiprocess"
    supports_cell_subset = True
    owns_decomposition = True

    def __init__(self, n_workers: Optional[int] = None,
                 inner: str = "vectorized",
                 n_shards: Optional[int] = None,
                 start_method: Optional[str] = None,
                 max_idle: int = 2,
                 use_shared_memory: bool = True,
                 seed: int = 0,
                 kernel: str = "auto") -> None:
        if n_workers is not None and int(n_workers) < 1:
            raise ValueError("n_workers must be >= 1")
        if int(max_idle) < 0:
            raise ValueError("max_idle must be >= 0")
        self.n_workers = int(n_workers) if n_workers is not None else None
        self.kernel_spec = str(kernel)
        parse_kernel_spec(self.kernel_spec)  # fail fast on typos
        # The composed spec is a plain string, so it ships to pool workers
        # through the initializer args unchanged.
        self.inner_name = compose_kernel_spec(str(inner), self.kernel_spec)
        self.n_shards = int(n_shards) if n_shards is not None else None
        self.start_method = start_method
        self.max_idle = int(max_idle)
        self.use_shared_memory = bool(use_shared_memory)
        self.seed = int(seed)
        self.stats = MultiprocessStats()
        #: :class:`~repro.parallel.scheduler.ScheduleReport` of the most
        #: recent operator call (None before any dispatch).
        self.last_schedule = None
        self._active: Dict[tuple, _SessionPool] = {}
        self._idle: "OrderedDict[tuple, _SessionPool]" = OrderedDict()
        self._finalizer = weakref.finalize(self, _shutdown_states,
                                           self._active, self._idle)

    @property
    def inner(self) -> ExecutionBackend:
        """The backend executed per shard (inside the workers)."""
        return get_backend(self.inner_name)

    @property
    def supports_unicomp(self) -> bool:  # type: ignore[override]
        return self.inner.supports_unicomp

    def kernel_tier(self) -> str:
        """The inner backend's resolved kernel tier (what workers run)."""
        return self.inner.kernel_tier()

    # -------------------------------------------------------------- plumbing
    def _resolved_workers(self) -> int:
        return self.n_workers or default_worker_count()

    def _resolved_shards(self, n_workers: int) -> int:
        return self.n_shards or n_workers * OVERSPLIT_FACTOR

    def _context(self):
        method = self.start_method or os.environ.get(START_METHOD_ENV_VAR)
        return multiprocessing.get_context(method)

    # ------------------------------------------------------ session lifecycle
    @staticmethod
    def _pool_key(session) -> tuple:
        # The DatasetIdentity couples the array's object id with a sampled
        # content fingerprint, guarding idle-pool revival against id reuse
        # after the original array is freed.
        return (session.identity,)

    def attach(self, session) -> None:
        """Create (or revive) the persistent pool for the session's dataset."""
        key = self._pool_key(session)
        state = self._active.get(key)
        if state is None:
            state = self._idle.pop(key, None)
            if state is not None:
                # A store-backed pool needs no digest check: its pool key
                # already embeds the store's path-derived id and sampled
                # file fingerprint (the guard DatasetIdentity gives
                # arrays), and the workers read the file itself — there is
                # no parent-side array snapshot to go stale.
                if state.store_path is None \
                        and _full_digest(session.points) != state.content_digest:
                    # The array was mutated in place between sessions: the
                    # workers' shared-memory snapshot (and their cached
                    # indexes) are stale — joining them against freshly
                    # planned shards would be silently wrong.
                    self._shutdown_pool(state)
                    state = None
                else:
                    state.revived = True
                    # Re-pin for the active span.  For an on-disk source
                    # this materializes the parent-side array — which any
                    # query on this backend needs anyway (the parent plans
                    # against a global index), and which is how dispatched
                    # work is matched back to this pool.
                    state.points = session.points
                    self.stats.pools_revived += 1
                    self._active[key] = state
        if state is None:
            state = self._create_session_pool(
                key, session.points,
                store_path=session.source.storage_descriptor())
            self._active[key] = state
        state.attached.add(session.token)
        if getattr(session, "keep_warm", True):
            state.keep_warm_requested = True

    def detach(self, session) -> None:
        """Park the session's pool on the idle list (or shut it down).

        A pool is parked when *any* of its attachers asked for warm reuse,
        or when it was revived from the idle list (an earlier warm-keeping
        owner parked it); a pool used only by opted-out ephemeral sessions
        (``keep_warm=False`` — the one-shot wrappers) is released
        immediately.  Parking drops the parent-side dataset reference: the
        park-time content digest is what guards revival, so the caller's
        array is free to be collected.
        """
        key = self._pool_key(session)
        state = self._active.get(key)
        if state is None:
            return
        state.attached.discard(session.token)
        if state.attached:
            return
        del self._active[key]
        if self.max_idle > 0 and (state.keep_warm_requested or state.revived):
            # Store-backed pools skip the O(n) park digest — revival is
            # guarded by the store fingerprint inside the pool key instead.
            state.content_digest = _full_digest(state.points) \
                if state.store_path is None else None
            state.points = None  # do not pin the dataset while idle
            self._idle[key] = state
            while len(self._idle) > self.max_idle:
                _, evicted = self._idle.popitem(last=False)
                self._shutdown_pool(evicted)
        else:
            self._shutdown_pool(state)

    def shutdown(self) -> None:
        """Terminate every pool (active and idle) and release their memory."""
        for state in list(self._active.values()):
            self._shutdown_pool(state)
        self._active.clear()
        for state in list(self._idle.values()):
            self._shutdown_pool(state)
        self._idle.clear()

    def worker_pids(self, session) -> Tuple[int, ...]:
        """PIDs of the persistent pool serving ``session`` (``()`` if none)."""
        state = self._active.get(self._pool_key(session))
        return state.worker_pids if state is not None else ()

    def has_idle_pool_for(self, session) -> bool:
        """Whether a detached pool for the session's dataset is kept warm."""
        return self._pool_key(session) in self._idle

    def _create_session_pool(self, key: tuple, points: np.ndarray,
                             store_path: Optional[str] = None) -> _SessionPool:
        n_workers = self._resolved_workers()
        ctx = self._context()
        shm = None
        if store_path is not None:
            # On-disk source: workers map the store file themselves — no
            # shared-memory copy, no pickled dataset, page cache shared.
            initargs = (None, None, None, None, self.inner_name, store_path)
            self.stats.datasets_mapped += 1
        else:
            if self.use_shared_memory and _shm is not None and points.nbytes > 0:
                try:
                    shm = _shm.SharedMemory(create=True, size=points.nbytes)
                except OSError:  # pragma: no cover - no /dev/shm etc.
                    shm = None
                else:
                    view = np.ndarray(points.shape, dtype=points.dtype,
                                      buffer=shm.buf)
                    view[:] = points
                    self.stats.shm_segments_created += 1
            if shm is not None:
                initargs = (shm.name, points.shape, str(points.dtype), None,
                            self.inner_name)
            else:
                # Guarded fallback: the one-time initializer shipping of the
                # original one-shot path (still once per worker, not per
                # query).
                initargs = (None, None, None, points, self.inner_name)
                self.stats.datasets_shipped += 1
        try:
            pool = ctx.Pool(processes=n_workers,
                            initializer=_init_session_worker,
                            initargs=initargs)
        except Exception:
            # Pool creation failed (fork pressure, process limits): the
            # dataset segment must not outlive this attempt.
            if shm is not None:
                shm.close()
                shm.unlink()
                self.stats.shm_segments_released += 1
            raise
        self.stats.pools_created += 1
        # Worker PIDs are recorded for pool-identity assertions in tests;
        # Pool keeps its Process handles in the private ``_pool`` list (no
        # public accessor exists).
        pids = tuple(proc.pid for proc in pool._pool)
        return _SessionPool(key=key, pool=pool, n_workers=n_workers,
                            worker_pids=pids, points=points, shm=shm,
                            store_path=store_path)

    def _shutdown_pool(self, state: _SessionPool) -> None:
        if _shutdown_state(state):
            self.stats.shm_segments_released += 1
        self.stats.pools_shut_down += 1

    def _session_pool_for(self, points: np.ndarray) -> Optional[_SessionPool]:
        """The attached pool whose dataset *is* ``points`` (identity match)."""
        for state in self._active.values():
            if state.points is points:
                return state
        return None

    # ------------------------------------------------------------- operators
    def _drain_pool(self, pool, worker_fn, tasks, costs, sink, n_workers: int,
                    key_maps=None) -> KernelStats:
        """Pull-dispatch ``tasks`` onto ``pool``; merge in shard-id order.

        The pool's internal task queue is the pull mechanism: with
        ``chunksize=1`` and ``imap_unordered`` each worker fetches its next
        shard the moment it finishes one, so a slow worker simply pulls
        fewer shards while fast peers absorb the rest.  Dispatch order is
        **largest cost first** (the tail of the join is then made of small
        shards); completions arrive in any order and are buffered until
        emitted strictly in shard-id (B) order, so the merged pair stream is
        bit-identical to the serial sharded run.

        ``key_maps`` (aligned with ``tasks`` by shard id) re-bases a task's
        locally keyed result rows onto global row ids (``None``: as-is).
        """
        stats = KernelStats()
        order = sorted(range(len(tasks)),
                       key=lambda i: (-float(costs[i]), i))
        executions: List[Tuple[Tuple[int, ...], str, float]] = []
        results: Dict[int, Tuple[np.ndarray, np.ndarray, KernelStats]] = {}
        for shard_id, keys, values, shard_stats, pid, duration in \
                pool.imap_unordered(worker_fn, [tasks[i] for i in order],
                                    chunksize=1):
            results[shard_id] = (keys, values, shard_stats)
            executions.append(((shard_id,), f"pid-{pid}", float(duration)))
        for i in range(len(tasks)):
            keys, values, shard_stats = results[i]
            if key_maps is not None and key_maps[i] is not None:
                keys = key_maps[i][keys]
            sink.emit(keys, values)
            stats.merge(shard_stats)
        report = pool_schedule_report(
            [ShardTask(key=(i,), cost=float(costs[i]))
             for i in range(len(tasks))],
            sorted(executions), n_workers,
            achieved_cost=float(stats.distance_calcs))
        stats.schedule_counts = report.counts()
        self.stats.shards_stolen += report.steals
        self.last_schedule = report
        return stats

    def _run_pool(self, initargs, worker_fn, tasks, costs, sink,
                  n_workers: int) -> KernelStats:
        """One-shot path: run ``tasks`` on a fresh pool, merge into ``sink``."""
        if not tasks:
            return KernelStats()
        n_workers = max(1, min(n_workers, len(tasks)))
        ctx = self._context()
        self.stats.datasets_shipped += 1
        self.stats.tasks_dispatched += len(tasks)
        with ctx.Pool(processes=n_workers, initializer=_init_worker,
                      initargs=initargs) as pool:
            self.stats.pools_created += 1
            stats = self._drain_pool(pool, worker_fn, tasks, costs, sink,
                                     n_workers)
        self.stats.pools_shut_down += 1
        return stats

    def _run_session_tasks(self, state: _SessionPool, worker_fn, tasks,
                           costs, sink, key_maps=None) -> KernelStats:
        """Persistent path: dispatch onto the warm pool, merge into ``sink``."""
        if not tasks:
            return KernelStats()
        self.stats.tasks_dispatched += len(tasks)
        return self._drain_pool(state.pool, worker_fn, tasks, costs, sink,
                                state.n_workers, key_maps=key_maps)

    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        n_workers = self._resolved_workers()
        plan = ShardPlanner(n_shards=self._resolved_shards(n_workers),
                            seed=self.seed).plan(index, cells)
        shards, costs = [], []
        for shard, cost in zip(plan.shards, plan.estimated_costs):
            if shard.shape[0]:
                shards.append(shard)
                costs.append(float(cost))

        state = self._session_pool_for(index.points)
        if state is not None:
            tasks = [(i, float(index.eps), shard, float(eps), bool(unicomp),
                      int(max_candidate_pairs))
                     for i, shard in enumerate(shards)]
            return self._run_session_tasks(state, _run_session_selfjoin,
                                           tasks, costs, sink)

        tasks = [(i, shard, float(eps), bool(unicomp))
                 for i, shard in enumerate(shards)]
        initargs = (index.points, None, float(index.eps), self.inner_name,
                    int(max_candidate_pairs))
        return self._run_pool(initargs, _run_selfjoin_shard, tasks, costs,
                              sink, n_workers)

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        rows = _probe_rows(queries, rows)
        if rows.shape[0] == 0:
            return KernelStats()
        n_workers = self._resolved_workers()
        row_costs = estimate_probe_row_costs(queries[rows], index,
                                             seed=self.seed)
        groups, costs = [], []
        for group in split_by_cost(row_costs,
                                   self._resolved_shards(n_workers)):
            if group.shape[0]:
                groups.append(rows[group])
                costs.append(float(row_costs[group].sum()))

        state = self._session_pool_for(index.points)
        if state is not None:
            if queries is index.points and state.store_path is None:
                # The session dataset probing itself (self-kNN,
                # range-over-self) resolves to the workers' shared view:
                # nothing but the row ids travels.
                tasks = [(i, float(index.eps), group, float(eps),
                          sink.num_rows, None, int(max_candidate_pairs))
                         for i, group in enumerate(groups)]
                key_maps = None
            else:
                # External query set — and *any* probe on a store-backed
                # pool, whose workers hold the dataset in stored (B) order
                # and so cannot resolve original-order row ids: ship each
                # task only its own row-group slice (each query row pickled
                # once per query, not once per task); workers emit
                # slice-local keys that are re-based onto the global rows
                # here.
                queries_arr = np.asarray(queries, dtype=np.float64)
                tasks = [(i, float(index.eps), None, float(eps),
                          sink.num_rows, queries_arr[group],
                          int(max_candidate_pairs))
                         for i, group in enumerate(groups)]
                key_maps = groups
            return self._run_session_tasks(state, _run_session_probe,
                                           tasks, costs, sink,
                                           key_maps=key_maps)

        tasks = [(i, group, float(eps), sink.num_rows)
                 for i, group in enumerate(groups)]
        initargs = (index.points, np.asarray(queries, dtype=np.float64),
                    float(index.eps), self.inner_name,
                    int(max_candidate_pairs))
        return self._run_pool(initargs, _run_probe_shard, tasks, costs,
                              sink, n_workers)
