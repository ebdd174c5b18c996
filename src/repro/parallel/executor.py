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
* :func:`run_shard` computes one shard of any kind against a
  :class:`ShardDataset`, the worker-resident dataset with its per-ε index
  LRU; the inline transport, pool workers and ``WorkerServer`` all call it.
* :class:`ShardExecutionBackend` holds the operators the three backends
  share: build the tasks, describe the request once (:class:`ShardOp`),
  open the backend's transport and run the loop.

With one worker there is no tail to shorten, so the loop dispatches in root
order: every completion flushes at once, and a streamed out-of-core join
holds at most one shard's pairs.
"""

from __future__ import annotations

import abc
import queue
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Callable, ContextManager, Dict, List, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from repro.core.gridindex import GridIndex, SubsetIndex
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats
from repro.core.nativekernels import parse_kernel_spec
from repro.core.result import PairFragments
from repro.engine.backends import (
    ExecutionBackend,
    _probe_rows,
    compose_kernel_spec,
    get_backend,
)
from repro.parallel.scheduler import (
    OrderedShardMerger,
    ScheduleExhausted,
    ScheduleReport,
    ShardTask,
    WorkStealingScheduler,
)
from repro.parallel.shards import probe_tasks, selfjoin_tasks, stream_tasks
from repro.utils.cancellation import check_cancelled

#: LRU bound on a worker's per-ε index cache (the kNN radius-doubling loop
#: asks for one index per doubled ε).
INDEX_CACHE_SIZE = 8

#: How long the loop waits for an event before a rebalance tick; also how
#: often the caller's cancellation token is checked while shards run.
POLL_SECONDS = 0.05


class WorkerTaskFailed(RuntimeError):
    """A shard could not be completed by any worker (or a worker reported a
    deterministic error, which re-dispatching would only repeat)."""


# --------------------------------------------------------------------------
# worker side: one compute function per shard kind
# --------------------------------------------------------------------------
@dataclass
class ShardDataset:
    """A worker's resident dataset plus its per-ε index LRU.

    ``points`` is in stored (``B``) order for a store attachment, whose
    ``ids`` directory maps emitted rows back to original dataset ids; a
    streamed join needs only ``store`` (``points`` may stay ``None``).
    """

    points: Optional[np.ndarray]
    inner: str                                   # backend run per shard
    ids: Optional[np.ndarray] = None
    store: Optional[object] = None
    indexes: "OrderedDict[float, GridIndex]" = field(default_factory=OrderedDict)

    @classmethod
    def from_store(cls, store, inner: str) -> "ShardDataset":
        return cls(points=store.stored_points(), inner=inner,
                   ids=np.asarray(store.stored_ids()), store=store)

    @classmethod
    def for_index(cls, index: GridIndex, inner: str) -> "ShardDataset":
        """A dataset whose cache already holds the caller's index."""
        return cls(points=index.points, inner=inner,
                   indexes=OrderedDict([(float(index.eps), index)]))

    def index_for(self, index_eps: float) -> GridIndex:
        """The index at ``index_eps``, built once and LRU-cached."""
        key = float(index_eps)
        index = self.indexes.get(key)
        if index is None:
            index = GridIndex.build(self.points, key)
            self.indexes[key] = index
            while len(self.indexes) > INDEX_CACHE_SIZE:
                self.indexes.popitem(last=False)
        else:
            self.indexes.move_to_end(key)
        return index


def _chunk_bound(params: dict) -> int:
    return int(params.get("max_candidate_pairs", DEFAULT_MAX_CANDIDATE_PAIRS))


def selfjoin_shard(dataset: ShardDataset, params: dict, cells):
    """Self-join one cell shard; ids come back in original dataset ids."""
    index = dataset.index_for(params["index_eps"])
    sink = PairFragments(index.num_points)
    stats = get_backend(dataset.inner).run_selfjoin(
        index, float(params["eps"]), np.asarray(cells, dtype=np.int64), sink,
        unicomp=bool(params.get("unicomp", False)),
        max_candidate_pairs=_chunk_bound(params))
    keys, values = sink.concatenated()
    if dataset.ids is not None:
        keys, values = dataset.ids[keys], dataset.ids[values]
    return keys, values, stats


def probe_shard(dataset: ShardDataset, params: dict, queries):
    """Probe a query slice; keys are rows of the slice."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    index = dataset.index_for(params["index_eps"])
    sink = PairFragments(queries.shape[0])
    stats = get_backend(dataset.inner).run_probe(
        queries, index, float(params["eps"]), sink,
        max_candidate_pairs=_chunk_bound(params))
    keys, values = sink.concatenated()
    if dataset.ids is not None:
        values = dataset.ids[values]
    return keys, values, stats


def stream_shard(dataset: ShardDataset, params: dict, _array=None):
    """Self-join the store directory range ``[lo, hi)`` read from disk.

    Reads the owned cells plus their ε-halo as a few contiguous slices,
    probes the owned points against a shard-local
    :class:`~repro.core.gridindex.SubsetIndex` and returns pairs in original
    ids.  Every owned point's neighbourhood lies inside the halo and every
    point has one owner, so the shards' outputs are disjoint.
    """
    store = dataset.store
    if store is None:
        raise ValueError("stream_shard requires a store-attached dataset")
    eps = float(params["eps"])
    lo, hi = int(params["lo"]), int(params["hi"])
    owned_pts, owned_ids = store.read_cell_range(lo, hi)
    halo_pts, halo_ids = store.read_cell_positions(
        store.halo_positions(lo, hi, store.halo_radius(eps)))
    if halo_pts.shape[0]:
        local_pts = np.concatenate([owned_pts, halo_pts])
        local_ids = np.concatenate([owned_ids, halo_ids])
    else:
        local_pts, local_ids = owned_pts, owned_ids
    sub = SubsetIndex.build(local_pts, local_ids, eps)
    sink = PairFragments(owned_pts.shape[0])
    stats = get_backend(dataset.inner).run_probe(
        owned_pts, sub.index, eps, sink,
        max_candidate_pairs=_chunk_bound(params))
    keys, values = sink.concatenated()
    # Owned points are the local rows [0, n_owned).
    return owned_ids[keys], sub.to_global(values), stats


SHARD_KINDS: Dict[str, Callable] = {
    "selfjoin": selfjoin_shard, "probe": probe_shard, "stream": stream_shard}


def run_shard(dataset: ShardDataset, kind: str, params: dict,
              array: Optional[np.ndarray] = None):
    """Compute one shard: ``(keys, values, KernelStats)``."""
    return SHARD_KINDS[kind](dataset, params, array)


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
    * ``("done", w, t, chunks, stats)``: ``chunks`` is a list of
      ``(keys, values)`` arrays, ``stats`` its :class:`KernelStats`;
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
        keys, values, stats = run_shard(self.dataset, *op.request(task))
        self.events.put(("done", worker, task, [(keys, values)], stats))


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
    a serial run exactly; ``schedule_counts`` carries the report's counts.
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
                    pairs=sum(int(keys.shape[0]) for keys, _ in chunks))
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
                sched.on_worker_dead(name, now)
                if not sched.alive_workers():
                    raise WorkerTaskFailed(
                        f"no workers left alive; last failure on {name}: "
                        f"{event[3]}")
            else:
                raise event[3]
            fill(clock())
    except ScheduleExhausted as exc:
        raise WorkerTaskFailed(str(exc)) from exc
    finally:
        transport.close()
    report = sched.finalize_report(achieved_cost=float(stats.distance_calcs))
    stats.schedule_counts = report.counts()
    return stats, report


# --------------------------------------------------------------------------
# the operators the three backends share
# --------------------------------------------------------------------------
class ShardExecutionBackend(ExecutionBackend):
    """Operators of a backend that runs shards through :func:`run_tasks`.

    Subclasses provide :meth:`_shard_count` and :meth:`_transport`; they may
    fold the schedule report into their own counters in
    :meth:`_record_schedule`.
    """

    supports_cell_subset = True
    owns_decomposition = True
    #: Scheduler mode and hedge fuse (``distributed`` exposes both).
    scheduling = "adaptive"
    hedge_after = 0.25

    def __init__(self, inner: str, kernel: str, n_shards: Optional[int],
                 seed: int) -> None:
        if n_shards is not None and int(n_shards) < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards) if n_shards is not None else None
        self.kernel_spec = str(kernel)
        parse_kernel_spec(self.kernel_spec)  # fail fast on typos
        # A plain string, so it ships to pool and TCP workers unchanged.
        self.inner_name = compose_kernel_spec(str(inner), self.kernel_spec)
        self.seed = int(seed)

    @property
    def inner(self) -> ExecutionBackend:
        """The backend executed per shard."""
        return get_backend(self.inner_name)

    @property
    def supports_unicomp(self) -> bool:  # type: ignore[override]
        return self.inner.supports_unicomp

    def kernel_tier(self) -> str:
        """The inner backend's kernel tier as it resolves here."""
        return self.inner.kernel_tier()

    # ----------------------------------------------------------------- hooks
    @abc.abstractmethod
    def _shard_count(self) -> int:
        """Shards to plan per operator call."""

    @abc.abstractmethod
    def _transport(self, n_tasks: int, index: Optional[GridIndex] = None,
                   source=None) -> ContextManager[Transport]:
        """The transport for ``n_tasks`` shards of a join over ``index``
        (or of a streamed ``source``), open for the ``with`` block."""

    def _record_schedule(self, report: ScheduleReport) -> None:
        """Fold one join's schedule report into backend counters."""

    # ------------------------------------------------------------- operators
    def _execute(self, tasks: List[ShardTask], op: ShardOp, sink,
                 **target) -> KernelStats:
        if not tasks:
            return KernelStats()
        with self._transport(len(tasks), **target) as transport:
            stats, report = run_tasks(tasks, op, transport, sink,
                                      mode=self.scheduling,
                                      hedge_after=self.hedge_after)
        self._record_schedule(report)
        return stats

    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        tasks = selfjoin_tasks(index, cells, self._shard_count(), self.seed)
        op = ShardOp("selfjoin", {
            "index_eps": float(index.eps), "eps": float(eps),
            "unicomp": bool(unicomp),
            "max_candidate_pairs": int(max_candidate_pairs)})
        return self._execute(tasks, op, sink, index=index)

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        rows = _probe_rows(queries, rows)
        tasks = probe_tasks(queries, rows, index, self._shard_count(),
                            self.seed)
        op = ShardOp("probe", {
            "index_eps": float(index.eps), "eps": float(eps),
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
