"""Multiprocess execution: the shard executor over a local process pool.

:class:`MultiprocessBackend` runs the shard decomposition of
:mod:`repro.parallel.shards` through the executor loop every parallel
backend shares (:func:`repro.parallel.executor.run_tasks`).  Its transport
is a ``multiprocessing`` pool with one worker slot per process, one
``apply_async`` call per dispatched shard and two in flight per slot; each
shard runs once (steals and rebalances, no resplits or hedges), and the
work-stealing scheduler's
:class:`~repro.parallel.scheduler.ScheduleReport` is what the backend
reports in ``KernelStats.schedule_counts`` and ``backend.last_schedule``.
Workers compute with :func:`repro.parallel.executor.run_shard`, rebuild the
grid index locally per ε (far cheaper than the join) and return each
shard's pairs as two int64 arrays.

**Pools follow the dataset** (the lifecycle of
:class:`repro.engine.session.EngineSession`): :meth:`attach` creates a
persistent pool keyed by dataset identity plus a
``multiprocessing.shared_memory`` segment holding the points, which every
worker maps read-only (``track=False`` on Python ≥ 3.13, a resource-tracker
workaround below that; the initializer pickles the points where shared
memory is unavailable).  Later queries of the session, at any ε, dispatch
onto the warm pool with no pool creation and no dataset re-shipping.
:meth:`detach` parks the pool on an LRU idle list (``max_idle`` deep) for a
later session over the same dataset; a finalizer tears down whatever is
still alive at interpreter exit.  A call outside any session runs on an
ephemeral pool: attach, run, detach.  For an **on-disk source** (a
:class:`~repro.data.store.SpatialStore`) the workers memory-map the store's
B-ordered points instead and translate emitted ids back through its
``ids`` directory, so no copy of the points is made at all.

Registered as ``multiprocess``: ``multiprocess(4)`` uses four workers,
``multiprocess(2, cellwise)`` runs the cellwise reference kernels in two.
``REPRO_MP_START_METHOD`` picks the pool start method.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.engine.backends import register_backend
from repro.parallel.executor import (
    ShardDataset,
    ShardExecutionBackend,
    Transport,
    run_shard,
)
from repro.parallel.scheduler import OVERSPLIT_FACTOR
from repro.parallel.shards import default_worker_count

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without shm support
    _shm = None

#: Environment override for the pool start method (``fork`` / ``spawn`` /
#: ``forkserver``); the platform default when unset.
START_METHOD_ENV_VAR = "REPRO_MP_START_METHOD"

#: Bound on how long a pool shutdown waits for shards still running.
_SHUTDOWN_WAIT_SECONDS = 10.0

#: ``SharedMemory`` grew ``track=`` in Python 3.13; below that, attaching a
#: segment registers it with the resource tracker, which would warn at exit
#: and unlink a segment the parent still owns (see :func:`_attach_shared_view`).
_SHM_HAS_TRACK = sys.version_info >= (3, 13)

# The dataset a pool worker process serves, installed by the pool
# initializer (each worker process has its own copy of this module state).
_POOL_WORKER: dict = {}


# --------------------------------------------------------------------------
# pool worker side
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


def _init_pool_worker(inner: str, dataset: tuple) -> None:
    """Pool initializer: map (or receive) the dataset once.

    ``dataset`` is, in order of preference: ``("store", path)`` — the
    worker memory-maps the B-ordered file and keeps the original-id
    directory for result translation; ``("shm", name, shape, dtype)`` — a
    shared-memory segment; or ``("points", array)`` — the pickled fallback.
    """
    if dataset[0] == "store":
        from repro.data.store import SpatialStore

        _POOL_WORKER["dataset"] = ShardDataset.from_store(
            SpatialStore.open(dataset[1]), inner)
        return
    if dataset[0] == "shm":
        shm, points = _attach_shared_view(*dataset[1:])
        _POOL_WORKER["shm"] = shm  # keep the mapping alive
    else:
        points = dataset[1]
    _POOL_WORKER["dataset"] = ShardDataset(points=points, inner=inner)


def _run_pool_shard(kind: str, params: dict, array: Optional[np.ndarray]):
    """Pool task: one shard against this worker's dataset."""
    return run_shard(_POOL_WORKER["dataset"], kind, params, array)


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
    #: transport); those workers index stored row order and translate ids.
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
    #: Shards dispatched and not yet returned: a join that raised or was
    #: cancelled leaves its other shards running to the end.
    running: int = 0
    settled: threading.Condition = field(default_factory=threading.Condition)

    def apply(self, func, args: tuple, done, failed) -> None:
        """``apply_async`` that counts the call as running until it returns."""
        with self.settled:
            self.running += 1

        def settle(report, value) -> None:
            with self.settled:
                self.running -= 1
                self.settled.notify_all()
            report(value)

        self.pool.apply_async(func, args, callback=partial(settle, done),
                              error_callback=partial(settle, failed))


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
    #: ``spawn``, copied-on-write under ``fork``): the fallback where shared
    #: memory is unavailable.  Zero on the zero-copy path.
    datasets_shipped: int = 0
    #: Times a pool's workers memory-mapped an on-disk store instead of
    #: receiving a shared-memory (or pickled) copy of the points.
    datasets_mapped: int = 0
    shm_segments_created: int = 0
    shm_segments_released: int = 0
    #: Queued shards the scheduler moved to another worker slot
    #: (:attr:`~repro.parallel.scheduler.ScheduleReport.steals`).
    shards_stolen: int = 0


def _shutdown_state(state: _SessionPool) -> bool:
    """Terminate one pool and release its shared memory (idempotent).

    Module-level so the backend's ``weakref.finalize`` safety net can run
    it without holding (or needing) the backend itself.  Returns whether a
    shared-memory segment was actually unlinked.

    Shards still running are waited for first: terminating a worker while
    it writes a result would leave the pool's result reader blocked on a
    truncated message, and ``terminate`` waiting on that reader forever.
    The wait is bounded so a shard lost with a killed worker cannot hang
    the shutdown instead.
    """
    try:
        with state.settled:
            state.settled.wait_for(lambda: state.running == 0,
                                   timeout=_SHUTDOWN_WAIT_SECONDS)
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
class MultiprocessBackend(ShardExecutionBackend):
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
    max_idle:
        How many detached session pools to keep warm for revival (LRU);
        ``0`` shuts a pool down on the last detach.
    seed:
        RNG seed for the sampled cost estimates behind the shard and
        probe-row decompositions, so plans are reproducible from one knob:
        ``MultiprocessBackend(seed=11)``, or in a registry spec —
        ``multiprocess(4, seed=11)`` (positionally every earlier argument
        must be spelled out).
    kernel:
        Kernel-tier spec threaded into the inner backend (see
        :mod:`repro.core.nativekernels`): ``multiprocess(4, kernel=numba)``
        forces the numba tier inside every worker; the default ``auto``
        lets each shard pick its tier and dense/sparse kernel adaptively.
    """

    name = "multiprocess"

    def __init__(self, n_workers: Optional[int] = None,
                 inner: str = "vectorized",
                 n_shards: Optional[int] = None,
                 max_idle: int = 2,
                 seed: int = 0,
                 kernel: str = "auto") -> None:
        if n_workers is not None and int(n_workers) < 1:
            raise ValueError("n_workers must be >= 1")
        if int(max_idle) < 0:
            raise ValueError("max_idle must be >= 0")
        super().__init__(inner, kernel, n_shards, seed)
        self.n_workers = int(n_workers) if n_workers is not None else None
        self.max_idle = int(max_idle)
        self.stats = MultiprocessStats()
        #: :class:`~repro.parallel.scheduler.ScheduleReport` of the most
        #: recent operator call (None before any dispatch).
        self.last_schedule = None
        self._active: Dict[tuple, _SessionPool] = {}
        self._idle: "OrderedDict[tuple, _SessionPool]" = OrderedDict()
        self._finalizer = weakref.finalize(self, _shutdown_states,
                                           self._active, self._idle)

    def _resolved_workers(self) -> int:
        return self.n_workers or default_worker_count()

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
                             store_path: Optional[str] = None,
                             n_workers: Optional[int] = None) -> _SessionPool:
        n_workers = n_workers or self._resolved_workers()
        ctx = multiprocessing.get_context(
            os.environ.get(START_METHOD_ENV_VAR))
        shm = None
        if store_path is not None:
            # On-disk source: workers map the store file themselves — no
            # shared-memory copy, no pickled dataset, page cache shared.
            dataset = ("store", store_path)
            self.stats.datasets_mapped += 1
        else:
            if _shm is not None and points.nbytes > 0:
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
                dataset = ("shm", shm.name, points.shape, str(points.dtype))
            else:
                # Fallback without shared memory: ship the points once per
                # worker through the initializer (not once per query).
                dataset = ("points", points)
                self.stats.datasets_shipped += 1
        try:
            pool = ctx.Pool(processes=n_workers,
                            initializer=_init_pool_worker,
                            initargs=(self.inner_name, dataset))
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

    # ------------------------------------------------------------- executor
    def _shard_count(self) -> int:
        return self.n_shards or self._resolved_workers() * OVERSPLIT_FACTOR

    @contextmanager
    def _transport(self, n_tasks, index=None, source=None):
        """The session's warm pool, or an ephemeral one for this call."""
        state = self._session_pool_for(index.points)
        ephemeral = state is None
        if ephemeral:
            state = self._create_session_pool(
                (), index.points,
                n_workers=min(self._resolved_workers(), n_tasks))
        try:
            yield _PoolTransport(state)
        finally:
            if ephemeral:
                self._shutdown_pool(state)

    def _record_schedule(self, report) -> None:
        self.stats.shards_stolen += report.steals
        self.last_schedule = report


class _PoolTransport(Transport):
    """One worker slot per pool process; one ``apply_async`` per shard.

    Each slot keeps two shards in flight: the pool queues the second, so a
    process that finishes a shard moves straight on to the next instead of
    idling through the round trip to the parent's dispatch.  (Queued shards
    go to whichever process frees first, so a slot is a share of the pool
    rather than one process.)
    """

    window = 2
    #: One copy per shard: no worker of a local pool can die or fall behind
    #: its peers where the OS scheduler cannot see it, so a resplit half or
    #: a hedge would only take a CPU the parent and its peers need (on two
    #: CPUs they made warm 2,000-point joins 15–20% slower).  Steals and
    #: rebalances still move queued shards.
    max_attempts = 1

    def __init__(self, state: _SessionPool) -> None:
        super().__init__()
        self.state = state
        self.workers = [f"slot-{i}" for i in range(state.n_workers)]

    def submit(self, worker, task, op) -> None:
        events = self.events

        def done(out) -> None:
            events.put(("done", worker, task, [out[:2]], out[2]))

        def failed(exc: BaseException) -> None:
            events.put(("error", worker, task, exc))

        self.state.apply(_run_pool_shard, op.request(task), done, failed)
