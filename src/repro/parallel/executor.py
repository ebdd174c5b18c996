"""One shard executor: the dispatch-and-merge loop of every parallel backend.

The grid splits a join into independent shards (:mod:`repro.parallel.shards`
plans them); this module runs them, the same way for every backend:

* :func:`run_tasks` is the one dispatch-and-merge loop, and the only place
  that builds a :class:`~repro.parallel.scheduler.WorkStealingScheduler`
  and an :class:`~repro.parallel.scheduler.OrderedShardMerger`.  It skips
  stale copies, merges the counters of accepted copies only, re-dispatches
  off dead workers, honours the caller's cancellation scope and emits
  fragments in root (``B``) order, so every backend, schedule and fault
  history yields the same pair stream.
* A :class:`Transport` runs the shards: :class:`InlineTransport`
  (``sharded``), the process pool of :mod:`repro.parallel.mp`
  (``multiprocess``) or the TCP workers of :mod:`repro.distributed.backend`
  (``distributed``).
* :func:`~repro.parallel.compute.run_shard` computes one shard of any
  kind against a :class:`~repro.parallel.compute.ShardDataset`, the
  worker-resident dataset with its per-ε index LRU; the inline transport,
  pool workers and ``WorkerServer`` all call it.  It lives in
  :mod:`repro.parallel.compute`, so a TCP worker imports it without this
  module.
* :class:`ShardExecutionBackend` holds what the three backends share:
  the session lifecycle (a dataset is opened on the workers by its first
  attached session and closed by its last detach; a call outside any
  session opens it for that call alone), the operators (build the
  tasks, describe the request once as a :class:`ShardOp`, open the
  backend's transport over the dataset and run the loop) and the
  counters of both (:class:`ShardStats`).

With one worker there is no tail to shorten, so the loop dispatches in root
order: every completion flushes at once, and a streamed out-of-core join
holds at most one shard's pairs.
"""

from __future__ import annotations

import abc
import queue
import threading
import time
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.core.gridindex import GridIndex
from repro.core.kernels import (DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats,
                                merge_schedule_counts, selfjoin_plan_costs)
from repro.core.nativekernels import parse_kernel_spec, resolve_kernel_tier
from repro.core.result import expanded_pairs
from repro.engine.backends import ExecutionBackend, _probe_rows
from repro.parallel.compute import ShardDataset, run_shard
from repro.parallel.scheduler import (
    OrderedShardMerger,
    ScheduleExhausted,
    ScheduleReport,
    ShardTask,
    WorkStealingScheduler,
)
from repro.parallel.shards import probe_tasks, selfjoin_tasks, stream_tasks
from repro.utils.cancellation import check_cancelled
from repro.utils.counters import Counters

#: How long the loop waits for an event before a rebalance tick; also how
#: often the caller's cancellation token is checked while shards run.
POLL_SECONDS = 0.05


class WorkerTaskFailed(RuntimeError):
    """A shard could not be completed by any worker (or a worker reported a
    deterministic error, which re-dispatching would only repeat)."""


# --------------------------------------------------------------------------
# parent side: request description, transports, the loop
# --------------------------------------------------------------------------
@dataclass
class ShardOp:
    """What every shard of one operator call computes, minus its own slice.

    ``params`` are the constant request fields (plain JSON types, the same
    fields the TCP frames carry); ``queries`` is a probe's full query array.
    """

    kind: str
    params: dict
    queries: Optional[np.ndarray] = None

    def request(self, task: ShardTask) -> Tuple[str, dict, Optional[np.ndarray]]:
        """``(kind, params, array)`` for one copy, built at dispatch time.

        A mid-join resplit child did not exist at planning time, so the
        request is built from the task itself: it ships exactly its own
        cells, probe rows or directory span.
        """
        if self.kind == "selfjoin":
            return self.kind, self.params, task.cells
        if self.kind == "probe":
            return self.kind, self.params, self.queries[task.cells]
        lo, hi = task.span
        return self.kind, {**self.params, "lo": int(lo), "hi": int(hi)}, None

    def key_map(self, task: ShardTask) -> Optional[np.ndarray]:
        """Probe shards re-base slice rows onto the global query rows."""
        return task.cells if self.kind == "probe" else None


class Transport:
    """The seam between :func:`run_tasks` and whatever runs a shard.

    ``workers`` names the worker slots and ``window`` bounds the copies in
    flight on one slot.  :meth:`submit` starts a copy; :meth:`poll` returns
    the next event, a tuple ``(kind, worker, task, ...)``:

    * ``("start", w, t)``: the copy began executing;
    * ``("skip", w, t)``: a stale copy was dropped without executing;
    * ``("done", w, t, chunks, stats)``: ``chunks`` is a list of compact
      ``(keys, values, twice)`` arrays (``twice`` may be ``None``; see
      :func:`run_shard`), ``stats`` its :class:`KernelStats`;
    * ``("failed", w, t, reason)``: cancelled or timed out worker-side,
      worth re-dispatching;
    * ``("dead", w, t, message)``: the worker is gone;
    * ``("error", w, t, exc)``: a deterministic failure, raised as is.
    """

    workers: Sequence[str] = ()
    window: int = 1
    #: Copies one shard may get — re-dispatches, resplit halves and hedges
    #: all count; ``None`` is the scheduler's default of one per worker
    #: plus two.
    max_attempts: Optional[int] = None

    def __init__(self) -> None:
        self.events: "queue.Queue" = queue.Queue()

    def start(self, covered: Set[int]) -> None:
        """Called before the first submit; ``covered`` holds the roots
        already covered, updated live, for skipping stale copies."""

    def submit(self, worker: str, task: ShardTask, op: ShardOp) -> None:
        raise NotImplementedError

    def poll(self, timeout: float) -> Optional[tuple]:
        try:
            return self.events.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        """Called once when the loop ends, normally or not."""


class InlineTransport(Transport):
    """One worker that computes each shard in the caller's thread."""

    workers = ("inline",)

    def __init__(self, dataset: ShardDataset) -> None:
        super().__init__()
        self.dataset = dataset

    def submit(self, worker: str, task: ShardTask, op: ShardOp) -> None:
        *chunk, stats = run_shard(self.dataset, *op.request(task))
        self.events.put(("done", worker, task, [tuple(chunk)], stats))


def run_tasks(tasks: List[ShardTask], op: ShardOp, transport: Transport,
              sink, *, mode: str = "adaptive", hedge_after: float = 0.25,
              clock: Callable[[], float] = time.monotonic,
              ) -> Tuple[KernelStats, ScheduleReport]:
    """Schedule ``tasks`` over ``transport``; merge into ``sink``.

    The scheduler owns every dispatch decision and this loop is its event
    pump.  Failure semantics:

    * a dead worker's queued and in-flight shards are re-queued for the
      survivors; with none left, :class:`WorkerTaskFailed` is raised;
    * a ``failed`` copy is re-queued unless its shard is already covered;
    * an ``error`` is raised at once, and per-shard attempts are bounded;
    * a dry queue makes the scheduler split the largest in-flight shard;
      hedging a full duplicate is the last resort.

    ``KernelStats`` sum the copies whose pairs were emitted, so they match
    a serial run exactly; ``schedule_counts`` carries the report's counts,
    among them the copies submitted and the workers lost.
    """
    names = list(transport.workers)
    sched = WorkStealingScheduler(
        tasks, names, mode=mode, hedge_after=hedge_after,
        max_attempts=transport.max_attempts, largest_first=len(names) > 1)
    merger = OrderedShardMerger(sink, sched.roots)
    stats = KernelStats()
    #: Counters of accepted copies, merged once a copy is chosen to cover
    #: its root (a resplit half and its original can both finish).
    copy_stats: Dict[Tuple[int, ...], KernelStats] = {}
    covered: Set[int] = set()

    def fill(now: float) -> None:
        # Round-robin, one copy per worker per pass, so every worker gets
        # its first copy before any gets a second.  An idle worker may take
        # anything the scheduler offers; the rest of a busy worker's window
        # only prefetches its own queue, since a steal, split or hedge for
        # it would just wait behind its running copy.
        hungry = sched.alive_workers()
        while hungry:
            for name in list(hungry):
                busy = sched.outstanding_count(name)
                task = None
                if busy == 0 or (busy < transport.window
                                 and sched.queued_count(name)):
                    task = sched.next_task(name, now)
                if task is None:
                    hungry.remove(name)
                else:
                    transport.submit(name, task, op)
                    sched.report.dispatches += 1

    transport.start(covered)
    try:
        fill(clock())
        while not sched.finished():
            check_cancelled()
            event = transport.poll(POLL_SECONDS)
            now = clock()
            if event is None:
                sched.maybe_rebalance(now)
                fill(now)
                continue
            kind, name, task = event[0], event[1], event[2]
            if kind == "start":
                sched.on_start(name, task.key, now)
            elif kind == "skip":
                sched.on_skipped(name, task.key)
            elif kind == "done":
                chunks, copy = event[3], event[4]
                completion = sched.on_complete(
                    name, task.key, now,
                    pairs=sum(expanded_pairs(*chunk) for chunk in chunks))
                if completion.accepted:
                    merger.stash(task.key, chunks, key_map=op.key_map(task))
                    copy_stats[tuple(task.key)] = copy
                if completion.newly_covered is not None:
                    root, chosen = completion.newly_covered
                    covered.add(root)
                    merger.complete(root, chosen)
                    for key in chosen:
                        stats.merge(copy_stats.pop(tuple(key)))
            elif kind == "failed":
                sched.on_failure(name, task.key, now, reason=event[3])
            elif kind == "dead":
                alive = sched.alive_workers()
                if name in alive:
                    sched.report.workers_lost += 1
                    if alive == [name]:
                        # Raised before the scheduler re-queues the lost
                        # shards, which would fail without naming the cause.
                        raise WorkerTaskFailed(
                            f"no workers left alive; last failure on "
                            f"{name}: {event[3]}")
                    sched.on_worker_dead(name, now)
            else:
                raise event[3]
            fill(clock())
    except ScheduleExhausted as exc:
        raise WorkerTaskFailed(str(exc)) from exc
    finally:
        transport.close()
    # A streamed plan costs its shards in stored points, which no counter
    # measures, so it reports no predicted cost and no ratio.
    report = sched.finalize_report(
        achieved_cost=None if op.kind == "stream"
        else float(stats.distance_calcs))
    stats.schedule_counts = report.counts()
    return stats, report


# --------------------------------------------------------------------------
# the lifecycle and operators the three backends share
# --------------------------------------------------------------------------
def _store_path(source) -> Optional[str]:
    """The resolved file a source's workers can map (``None``: memory-only)."""
    descriptor = source.storage_descriptor()
    return None if descriptor is None else str(Path(descriptor).resolve())


@dataclass
class _Attachment:
    """A dataset a backend holds open for the sessions attached to it."""

    #: What :meth:`ShardExecutionBackend._open_dataset` returned.
    handle: object
    #: The store the workers read (``None``: the points were shipped).
    store_path: Optional[str]
    #: The attached sessions by token, held weakly.
    sessions: Dict[int, weakref.ref] = field(default_factory=dict)

    def serves(self, index: Optional[GridIndex],
               store_path: Optional[str]) -> bool:
        """Whether a join over ``index`` (``None``: a streamed join over the
        store at ``store_path``) runs on this dataset: on the array of one
        of its sessions, matched by identity.

        Sessions over one store each materialize their own array, and only
        after attach, so the arrays are read here and never materialized.
        """
        if index is None:
            return store_path is not None and store_path == self.store_path
        return any(getattr(ref(), "_points", None) is index.points
                   for ref in self.sessions.values())


@dataclass
class ShardStats(Counters):
    """Counters of one shard backend (``backend.stats``).

    The shared code counts the first four for every backend: datasets
    opened and closed (a pool on ``multiprocess``, an attachment on every
    TCP worker on ``distributed``), the totals of every join's
    :meth:`~repro.parallel.scheduler.ScheduleReport.counts`, added as
    :attr:`KernelStats.schedule_counts` add, and the last join's report.
    The rest are counted by the one backend whose transport sees them.
    """

    datasets_opened: int = 0
    datasets_closed: int = 0
    schedule: Dict[str, int] = field(
        default_factory=dict, metadata={"merge": merge_schedule_counts})
    last_schedule: Optional[ScheduleReport] = field(
        default=None, metadata={"merge": lambda _old, report: report})
    #: ``multiprocess``: shared-memory segments holding the points, pools
    #: whose workers received the points pickled (no shared memory), and
    #: pools whose workers memory-mapped an on-disk store instead.
    shm_segments_created: int = 0
    shm_segments_released: int = 0
    datasets_shipped: int = 0
    datasets_mapped: int = 0
    #: ``distributed``: attach requests a worker answered.
    attach_rpcs: int = 0


class ShardExecutionBackend(ExecutionBackend):
    """Session lifecycle, operators and counters of a backend that runs
    shards through :func:`run_tasks`.

    Subclasses provide :meth:`_shard_count` and :meth:`_transport`,
    :meth:`_open_dataset`/:meth:`_close_dataset` when their workers keep
    the dataset resident, and :meth:`_cell_costs` when their shards emit
    from the caller's index.  The base counts what every backend does in
    :attr:`stats`: each dataset it opens and closes, and each join's
    schedule report (:meth:`_record_schedule`).
    """

    supports_cell_subset = True
    supports_unicomp = True
    owns_decomposition = True
    #: Scheduler mode and hedge fuse (``distributed`` exposes both).
    scheduling = "adaptive"
    hedge_after = 0.25
    #: Whether each :meth:`_open_dataset` call makes a dataset of its own
    #: (a private pool) rather than one the workers share by name with
    #: other opens of the same data.  Private datasets open and close
    #: outside the backend lock, so starting or stopping one dataset's
    #: pool does not stall joins on the others; a shared name is opened
    #: and closed under the lock, so an attach never races its own close.
    private_datasets = False

    def __init__(self, kernel: str, n_shards: Optional[int]) -> None:
        if n_shards is not None and int(n_shards) < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards) if n_shards is not None else None
        # The shards' kernel tier, checked here; a plain string, so it
        # ships to pool and TCP workers unchanged.
        self.tier = parse_kernel_spec(kernel)
        #: Open datasets by ``session.identity``.
        self._attached: Dict[object, _Attachment] = {}
        self._lock = threading.RLock()      # attachments
        self.stats = ShardStats()

    def kernel_tier(self) -> str:
        """The shards' kernel tier as it resolves here."""
        return resolve_kernel_tier(self.tier)

    # ------------------------------------------------------ session lifecycle
    def attach(self, session) -> None:
        """Open the session's dataset on the workers, once per dataset.

        Sessions over one dataset share it.  A store-backed session sends
        its path, so the array is never materialized for the attach.
        """
        ref = weakref.ref(session)
        with self._lifecycle_lock():
            with self._lock:
                attachment = self._attached.get(session.identity)
                if attachment is not None:
                    attachment.sessions[session.token] = ref
                    return
            store_path = _store_path(session.source)
            handle = self._open(None if store_path else session.points,
                                store_path)
            with self._lock:
                attachment = self._attached.setdefault(
                    session.identity, _Attachment(handle, store_path))
                attachment.sessions[session.token] = ref
        if attachment.handle is not handle:     # another attach won the race
            self._close(handle)

    def detach(self, session) -> None:
        """Close the session's dataset once its last session lets go."""
        with self._lifecycle_lock():
            with self._lock:
                attachment = self._attached.get(session.identity)
                if attachment is None:
                    return
                attachment.sessions.pop(session.token, None)
                if attachment.sessions:
                    return
                del self._attached[session.identity]
            self._close(attachment.handle)

    def shutdown(self) -> None:
        """Close every attached dataset."""
        with self._lifecycle_lock():
            with self._lock:
                attachments = list(self._attached.values())
                self._attached.clear()
            for attachment in attachments:
                self._close(attachment.handle)

    def _lifecycle_lock(self):
        """What a dataset opens and closes under: the backend lock for a
        name the workers share, nothing for a private dataset."""
        return nullcontext() if self.private_datasets else self._lock

    @contextmanager
    def _dataset(self, n_tasks: int, index: Optional[GridIndex] = None,
                 source=None) -> Iterator[object]:
        """The handle of the attached dataset a join over ``index`` (or a
        streamed ``source``) runs on, or of one opened for this call alone."""
        store_path = None if source is None else _store_path(source)
        with self._lock:
            attached = next((attachment for attachment
                             in self._attached.values()
                             if attachment.serves(index, store_path)), None)
        if attached is not None:
            yield attached.handle
            return
        handle = self._open(None if source is not None else index.points,
                            store_path, n_tasks)
        try:
            yield handle
        finally:
            self._close(handle)

    def _open(self, points, store_path, n_tasks=None) -> object:
        """:meth:`_open_dataset`, counted."""
        handle = self._open_dataset(points, store_path, n_tasks)
        self.stats.add(datasets_opened=1)
        return handle

    def _close(self, handle: object) -> None:
        """:meth:`_close_dataset`, counted."""
        self._close_dataset(handle)
        self.stats.add(datasets_closed=1)

    # ----------------------------------------------------------------- hooks
    def _open_dataset(self, points: Optional[np.ndarray],
                      store_path: Optional[str],
                      n_tasks: Optional[int] = None) -> object:
        """Make a dataset resident on the workers; returns its handle.

        ``points`` is ``None`` when the workers read the store at
        ``store_path``; ``n_tasks`` is the shard count of the one call a
        dataset is opened for (``None``: a session's dataset).  The default
        keeps nothing: the inline transport reads the caller's index.
        """
        return None

    def _close_dataset(self, handle: object) -> None:
        """Release what :meth:`_open_dataset` made resident."""

    @abc.abstractmethod
    def _shard_count(self) -> int:
        """Shards to plan per operator call."""

    @abc.abstractmethod
    def _transport(self, handle: object, index: Optional[GridIndex] = None,
                   source=None) -> Transport:
        """The transport for a join over ``index`` (or a streamed
        ``source``) on the dataset behind ``handle``."""

    def _cell_costs(self, index: GridIndex, unicomp: bool) -> np.ndarray:
        """The per-cell costs a self-join's shards are balanced on.

        The shards run in other processes, on indexes of their own, so the
        caller's index only plans: it walks for the costs alone and keeps
        nothing else (:func:`~repro.core.kernels.selfjoin_plan_costs`).
        """
        return selfjoin_plan_costs(index, unicomp)

    def _record_schedule(self, report: ScheduleReport) -> None:
        """Add one join's schedule counters to :attr:`stats`."""
        self.stats.add(schedule=report.counts(), last_schedule=report)

    # ------------------------------------------------------------- operators
    def _execute(self, tasks: List[ShardTask], op: ShardOp, sink,
                 **target) -> KernelStats:
        if not tasks:
            return KernelStats()
        with self._dataset(len(tasks), **target) as handle:
            stats, report = run_tasks(tasks, op,
                                      self._transport(handle, **target), sink,
                                      mode=self.scheduling,
                                      hedge_after=self.hedge_after)
        self._record_schedule(report)
        return stats

    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        tasks = selfjoin_tasks(self._cell_costs(index, unicomp), cells,
                               self._shard_count())
        op = ShardOp("selfjoin", {
            "index_eps": float(index.eps), "index_dims": list(index.dims),
            "eps": float(eps),
            "unicomp": bool(unicomp),
            "max_candidate_pairs": int(max_candidate_pairs)})
        return self._execute(tasks, op, sink, index=index)

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        rows = _probe_rows(queries, rows)
        tasks = probe_tasks(queries, rows, index, self._shard_count())
        op = ShardOp("probe", {
            "index_eps": float(index.eps), "index_dims": list(index.dims),
            "eps": float(eps),
            "max_candidate_pairs": int(max_candidate_pairs)},
            queries=np.asarray(queries, dtype=np.float64))
        return self._execute(tasks, op, sink, index=index)

    def run_selfjoin_streamed(self, source, eps, sink, *, unicomp=False,
                              max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS,
                              ) -> KernelStats:
        """Self-join an on-disk store shard-at-a-time.

        Shards are contiguous directory ranges balanced by stored point
        count, each read with its ε-halo (:func:`stream_shard`).
        ``unicomp`` does not change the work: each owned point's full
        neighbourhood is probed, which is what makes the shards disjoint.
        Each shard's pairs reach ``sink`` as soon as root order allows, so
        a sink that forwards them keeps the result out of core too.
        """
        if not self.supports_streaming:
            return super().run_selfjoin_streamed(
                source, eps, sink, unicomp=unicomp,
                max_candidate_pairs=max_candidate_pairs)
        tasks = stream_tasks(source, self._shard_count())
        op = ShardOp("stream", {
            "eps": float(eps),
            "max_candidate_pairs": int(max_candidate_pairs)})
        return self._execute(tasks, op, sink, source=source)
