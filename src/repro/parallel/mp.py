"""Multiprocess execution: the shard executor over a local process pool.

:class:`MultiprocessBackend` runs the shard decomposition of
:mod:`repro.parallel.shards` through the executor loop every parallel
backend shares (:func:`repro.parallel.executor.run_tasks`).  Its transport
is a ``multiprocessing`` pool with one worker slot per process, one
``apply_async`` call per dispatched shard and two in flight per slot; each
shard runs once (steals and rebalances, no resplits or hedges), and the
work-stealing scheduler's
:class:`~repro.parallel.scheduler.ScheduleReport` is what the backend
reports in ``KernelStats.schedule_counts`` and, totalled over its joins,
in ``backend.stats`` (:class:`~repro.parallel.executor.ShardStats`).
Workers compute with :func:`repro.parallel.compute.run_shard`, rebuild the
grid index locally per ε (far cheaper than the join) and return each
shard's pairs as two int64 arrays.

**Pools follow the dataset** (the session lifecycle of
:class:`~repro.parallel.executor.ShardExecutionBackend`): the first
session to attach a dataset creates a persistent pool plus a
``multiprocessing.shared_memory`` segment holding the points, which every
worker maps read-only (``track=False`` on Python ≥ 3.13, a resource-tracker
workaround below that; the initializer pickles the points where shared
memory is unavailable).  Later queries of the session, at any ε, dispatch
onto the warm pool with no pool creation and no dataset re-shipping.  The
pool lives exactly while some session holds it: the last detach shuts it
down and unlinks the segment, and a ``weakref.finalize`` tears down what a
collected backend, or the interpreter at exit, still holds.  A call outside
any session runs on a pool of its own: attach, run, detach.  For an
**on-disk source** (a :class:`~repro.data.store.SpatialStore`) the workers
memory-map the store's B-ordered points instead and translate emitted ids
back through its ``ids`` directory, so no copy of the points is made at
all.

Registered as ``multiprocess``: ``multiprocess(4)`` uses four workers,
``multiprocess(2, kernel=numpy)`` runs two on the NumPy kernel tier.
``REPRO_MP_START_METHOD`` picks the pool start method.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from repro.engine.backends import register_backend
from repro.parallel.compute import ShardDataset, run_shard
from repro.parallel.executor import ShardExecutionBackend, Transport
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
    # would silently corrupt the dataset under all of them.  Make that an
    # immediate ValueError instead.
    view.flags.writeable = False
    return shm, view


def _init_pool_worker(kernel: str, dataset: tuple) -> None:
    """Pool initializer: map (or receive) the dataset once.

    ``dataset`` is, in order of preference: ``("store", path)`` — the
    worker memory-maps the B-ordered file and keeps the original-id
    directory for result translation; ``("shm", name, shape, dtype)`` — a
    shared-memory segment; or ``("points", array)`` — the pickled fallback.
    """
    if dataset[0] == "store":
        from repro.data.store import SpatialStore

        _POOL_WORKER["dataset"] = ShardDataset.from_store(
            SpatialStore.open(dataset[1]), kernel)
        return
    if dataset[0] == "shm":
        shm, points = _attach_shared_view(*dataset[1:])
        _POOL_WORKER["shm"] = shm  # keep the mapping alive
    else:
        points = dataset[1]
    _POOL_WORKER["dataset"] = ShardDataset(points=points, kernel=kernel)


def _run_pool_shard(kind: str, params: dict, array: Optional[np.ndarray]):
    """Pool task: one shard against this worker's dataset."""
    return run_shard(_POOL_WORKER["dataset"], kind, params, array)


# --------------------------------------------------------------------------
# parent-side pool state
# --------------------------------------------------------------------------
@dataclass
class _SessionPool:
    """One persistent pool plus the shared-memory segment it maps."""

    pool: multiprocessing.pool.Pool
    n_workers: int
    worker_pids: Tuple[int, ...]
    shm: Optional[object] = None  # parent-side SharedMemory (None: pickled)
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


def _shutdown_pools(attached: Dict[object, object]) -> None:
    """Finalizer: tear down the pools of a backend's attached datasets.

    Runs when the backend is garbage-collected *or* at interpreter exit
    (``weakref.finalize`` covers both), so neither a dropped throwaway
    backend nor a process-long one can orphan worker processes or
    dataset-sized shared-memory segments — and the finalizer holds only the
    attachment map, never the backend, so the backend stays collectable.
    """
    for attachment in list(attached.values()):
        _shutdown_state(attachment.handle)
    attached.clear()


@register_backend
class MultiprocessBackend(ShardExecutionBackend):
    """Cost-balanced shards executed on a ``multiprocessing`` pool.

    Parameters
    ----------
    n_workers:
        Pool size (``REPRO_PARALLEL_WORKERS`` / CPU count when omitted).
    n_shards:
        Shard count (``n_workers * scheduler.OVERSPLIT_FACTOR`` when
        omitted — the pull queue's rebalancing slack).
    kernel:
        Kernel tier of the shards (see
        :mod:`repro.core.nativekernels`): ``multiprocess(4, kernel=numba)``
        forces the numba tier inside every worker; the default ``auto``
        uses numba where it imports.  On the numba tier each shard picks
        the dense or sparse compiled kernel from its cell populations.
    """

    name = "multiprocess"
    private_datasets = True     # each dataset gets its own pool and segment

    def __init__(self, n_workers: Optional[int] = None,
                 n_shards: Optional[int] = None,
                 kernel: str = "auto") -> None:
        if n_workers is not None and int(n_workers) < 1:
            raise ValueError("n_workers must be >= 1")
        super().__init__(kernel, n_shards)
        self.n_workers = int(n_workers) if n_workers is not None else None
        self._finalizer = weakref.finalize(self, _shutdown_pools,
                                           self._attached)

    def _resolved_workers(self) -> int:
        return self.n_workers or default_worker_count()

    def worker_pids(self, session) -> Tuple[int, ...]:
        """PIDs of the persistent pool serving ``session`` (``()`` if none)."""
        attachment = self._attached.get(session.identity)
        return attachment.handle.worker_pids if attachment is not None else ()

    # ------------------------------------------------------ dataset lifecycle
    def _open_dataset(self, points, store_path, n_tasks=None) -> _SessionPool:
        """A pool whose workers hold the dataset: the store at
        ``store_path`` mapped, or ``points`` in shared memory (else pickled
        once per worker); one call's pool gets no more workers than it has
        shards."""
        n_workers = self._resolved_workers()
        if n_tasks is not None:
            n_workers = min(n_workers, n_tasks)
        ctx = multiprocessing.get_context(
            os.environ.get(START_METHOD_ENV_VAR))
        shm = None
        if store_path is not None:
            # On-disk source: workers map the store file themselves — no
            # shared-memory copy, no pickled dataset, page cache shared.
            dataset = ("store", store_path)
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
            if shm is not None:
                dataset = ("shm", shm.name, points.shape, str(points.dtype))
            else:
                # Fallback without shared memory: ship the points once per
                # worker through the initializer (not once per query).
                dataset = ("points", points)
        try:
            pool = ctx.Pool(processes=n_workers,
                            initializer=_init_pool_worker,
                            initargs=(self.tier, dataset))
        except Exception:
            # Pool creation failed (fork pressure, process limits): the
            # dataset segment must not outlive this attempt.
            if shm is not None:
                shm.close()
                shm.unlink()
            raise
        if store_path is not None:
            self.stats.add(datasets_mapped=1)
        elif shm is None:
            self.stats.add(datasets_shipped=1)
        else:
            self.stats.add(shm_segments_created=1)
        # Worker PIDs are recorded for pool-identity assertions in tests;
        # Pool keeps its Process handles in the private ``_pool`` list (no
        # public accessor exists).
        pids = tuple(proc.pid for proc in pool._pool)
        return _SessionPool(pool=pool, n_workers=n_workers,
                            worker_pids=pids, shm=shm)

    def _close_dataset(self, state: _SessionPool) -> None:
        if _shutdown_state(state):
            self.stats.add(shm_segments_released=1)

    # ------------------------------------------------------------- executor
    def _shard_count(self) -> int:
        return self.n_shards or self._resolved_workers() * OVERSPLIT_FACTOR

    def _transport(self, state, index=None, source=None):
        return _PoolTransport(state)


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
            events.put(("done", worker, task, [out[:3]], out[3]))

        def failed(exc: BaseException) -> None:
            events.put(("error", worker, task, exc))

        self.state.apply(_run_pool_shard, op.request(task), done, failed)
