"""Adaptive mid-join scheduling: a pull-based work-stealing shard queue.

The paper's scheduling currency is a *sampled per-cell cost model*
(:func:`repro.core.batching.estimate_cell_costs`): it decides where batch
and shard boundaries fall.  A cost model is only an estimate, though — and
under a static shard→worker assignment every estimation error (or a plainly
slow worker) turns directly into tail latency, which PR 8 could only paper
over with hedged duplicates.  This module replaces static assignment with
**dynamic, pull-based scheduling**, so runtime observation corrects what
the cost model mispredicts:

* The planner **oversplits** into :data:`OVERSPLIT_FACTOR` (~4×) shards per
  worker, dispatch-ordered largest first, so the pull queue always has
  slack to rebalance with.
* Workers **pull** the next shard when they finish one, instead of
  receiving a fixed partition up front.  Idle workers **steal** queued
  shards from the most-backlogged peer.
* The scheduler tracks an **EWMA of observed per-worker throughput** (cost
  units — roughly points·cells — per second) and **reassigns still-queued
  shards away from slow workers** before they become the tail.
* When the queue runs dry it **splits the largest in-flight shard at a
  B-order boundary** and races the halves on idle workers rather than
  letting them idle; **hedging** (a full duplicate) remains the last
  resort, used only for unsplittable work, so it fires strictly less often
  than under the static scheme.

Everything here is a *pure, deterministic state machine*: decisions are a
function of the event history (dispatch/start/complete/fail), all ties
break on (cost, shard key), and the clock is passed in by the caller — the
unit tests drive the scheduler with a fake clock and synthetic events, no
sockets or processes involved.  :func:`repro.parallel.executor.run_tasks`
is its one event pump, for the ``sharded``, ``multiprocess`` and
``distributed`` backends alike.

Results stay **bit-identical** to static assignment no matter the
completion order: every fragment is keyed by its hierarchical shard key,
and :class:`OrderedShardMerger` emits accepted fragments into the caller's
sink strictly in B-order shard order — a split shard's halves emit, in
order, exactly where the unsplit shard would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batching import split_by_cost

#: Shards planned per worker.  ~4× oversubscription keeps the pull queue
#: deep enough that a slow worker's backlog can be stolen/rebalanced away,
#: while each shard stays large enough to amortize dispatch overhead.  (The
#: pre-scheduler backends used 2×, which left the tail one mispredicted
#: shard deep.)
OVERSPLIT_FACTOR = 4

#: Scheduling modes: ``adaptive`` is the full work-stealing scheme above;
#: ``static`` pins each worker to its cost-balanced initial queue (hedging
#: still allowed) — the baseline the ``schedule`` benchmark measures against.
SCHEDULING_MODES = ("adaptive", "static")

#: Kinds of task (shard) payloads the scheduler can split and re-order.
TASK_KINDS = ("selfjoin", "probe", "stream")


class ScheduleExhausted(RuntimeError):
    """A shard ran out of dispatch attempts (every retry failed)."""


# --------------------------------------------------------------------------
# tasks
# --------------------------------------------------------------------------
@dataclass
class ShardTask:
    """One schedulable unit of join work: a contiguous B-order shard.

    ``key`` is hierarchical: planner shards get ``(i,)``; a mid-join resplit
    of shard ``i`` produces children ``(i, 0)`` and ``(i, 1)`` covering its
    two contiguous halves.  The family of key ``(i, ...)`` is *covered* when
    either the original or both halves complete, and
    :class:`OrderedShardMerger` emits whichever covering set won, in key
    order — so the merged pair stream is identical either way.

    ``cells`` holds the shard's cell ids (self-joins) or global query-row
    ids (probes); ``span`` holds the ``[lo, hi)`` store-directory range of a
    disk-streamed shard.  ``item_costs``, aligned with ``cells`` (or the
    span), locates the cost-weighted midpoint for :meth:`split`.
    """

    key: Tuple[int, ...]
    cost: float
    kind: str = "selfjoin"
    cells: Optional[np.ndarray] = None
    span: Optional[Tuple[int, int]] = None
    item_costs: Optional[np.ndarray] = None
    depth: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}")

    @property
    def root(self) -> int:
        """The planner-level shard id this task descends from."""
        return int(self.key[0])

    @property
    def n_items(self) -> int:
        """Cells (or rows / directory slots) covered by this task."""
        if self.span is not None:
            return int(self.span[1] - self.span[0])
        return int(self.cells.shape[0]) if self.cells is not None else 0

    def splittable(self) -> bool:
        """Whether a B-order boundary exists to split this task at."""
        return self.n_items >= 2

    def split(self) -> Tuple["ShardTask", "ShardTask"]:
        """Split into two contiguous halves at the cost-weighted midpoint.

        The boundary is a *B-order* boundary: both halves stay contiguous
        slices of the parent's cell (or row / directory) sequence, so
        emitting child 0 then child 1 reproduces the parent's pair stream
        exactly.
        """
        if not self.splittable():
            raise ValueError(f"task {self.key} is not splittable")
        n = self.n_items
        if self.item_costs is not None and float(self.item_costs.sum()) > 0:
            cum = np.cumsum(np.asarray(self.item_costs, dtype=np.float64))
            mid = int(np.searchsorted(cum, float(cum[-1]) / 2.0, side="right"))
            mid = min(max(mid, 1), n - 1)
        else:
            mid = n // 2
        costs = self.item_costs

        def _child(idx: int, lo: int, hi: int) -> "ShardTask":
            child_costs = costs[lo:hi] if costs is not None else None
            if child_costs is not None and float(child_costs.sum()) > 0:
                child_cost = float(child_costs.sum())
            else:
                child_cost = self.cost * (hi - lo) / n
            return ShardTask(
                key=self.key + (idx,), cost=child_cost, kind=self.kind,
                cells=self.cells[lo:hi] if self.cells is not None else None,
                span=((self.span[0] + lo, self.span[0] + hi)
                      if self.span is not None else None),
                item_costs=child_costs, depth=self.depth + 1)

        return _child(0, 0, mid), _child(1, mid, n)


def tasks_from_arrays(groups: Sequence[np.ndarray],
                      group_costs: Sequence[np.ndarray],
                      kind: str = "selfjoin") -> List[ShardTask]:
    """Wrap planner output (cell/row groups + per-item costs) as tasks."""
    tasks = []
    for i, (cells, costs) in enumerate(zip(groups, group_costs)):
        if cells.shape[0] == 0:
            continue
        tasks.append(ShardTask(key=(i,), cost=float(costs.sum()), kind=kind,
                               cells=cells, item_costs=costs))
    return tasks


def dispatch_order(tasks: Sequence[ShardTask]) -> List[ShardTask]:
    """Largest-cost-first dispatch order (ties break on key: deterministic).

    Dispatching expensive shards first means the tail of the join is made of
    *small* shards, which both shortens the straggler window and leaves the
    resplit/hedge machinery less to duplicate.
    """
    return sorted(tasks, key=lambda t: (-t.cost, t.key))


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------
@dataclass
class ScheduleReport:
    """Observability record of one scheduled join (tentpole satellite).

    ``counts()`` is what backends fold into
    :attr:`repro.core.kernels.KernelStats.schedule_counts`; the full report
    (per-worker throughput, achieved-vs-predicted cost ratio) surfaces in
    backend stats and the service stats endpoint.
    """

    mode: str = "adaptive"
    n_workers: int = 0
    n_shards: int = 0
    steals: int = 0
    resplits: int = 0
    rebalances: int = 0
    hedges: int = 0
    redispatches: int = 0
    #: Stale copies dropped *without* executing (skipped at pull time, or a
    #: failed/cancelled copy of an already-covered shard — the hedge
    #: accounting fix: those are not wasted work and are not re-dispatched).
    duplicates_dropped: int = 0
    hedge_wasted_shards: int = 0
    hedge_wasted_pairs: int = 0
    resplit_wasted_shards: int = 0
    resplit_wasted_pairs: int = 0
    #: Cost-model total for the plan vs the work the accepted shards
    #: actually reported (distance calculations): the achieved-vs-predicted
    #: cost ratio says how well the sampled estimator steered the plan.
    predicted_cost: float = 0.0
    achieved_cost: float = 0.0
    #: EWMA throughput per worker (cost units/s) at the end of the join.
    worker_throughput: Dict[str, float] = field(default_factory=dict)
    #: Accepted shard completions per worker.
    worker_shards: Dict[str, int] = field(default_factory=dict)

    @property
    def cost_ratio(self) -> float:
        """achieved / predicted cost (0 when nothing was predicted)."""
        if self.predicted_cost <= 0:
            return 0.0
        return self.achieved_cost / self.predicted_cost

    def counts(self) -> Dict[str, int]:
        """The integer counters, ready for ``KernelStats.schedule_counts``."""
        out = {"shards": self.n_shards, "steals": self.steals,
               "resplits": self.resplits, "rebalances": self.rebalances,
               "hedges": self.hedges, "redispatches": self.redispatches,
               "duplicates_dropped": self.duplicates_dropped}
        if self.predicted_cost > 0 and self.achieved_cost > 0:
            out["cost_ratio_pct"] = int(round(self.cost_ratio * 100))
        return out

    def snapshot(self) -> dict:
        """JSON-friendly view for stats endpoints."""
        return {**self.counts(),
                "mode": self.mode,
                "n_workers": self.n_workers,
                "hedge_wasted_shards": self.hedge_wasted_shards,
                "hedge_wasted_pairs": self.hedge_wasted_pairs,
                "resplit_wasted_shards": self.resplit_wasted_shards,
                "resplit_wasted_pairs": self.resplit_wasted_pairs,
                "predicted_cost": self.predicted_cost,
                "achieved_cost": self.achieved_cost,
                "cost_ratio": self.cost_ratio,
                "worker_throughput": dict(self.worker_throughput),
                "worker_shards": dict(self.worker_shards)}


# --------------------------------------------------------------------------
# scheduler state
# --------------------------------------------------------------------------
@dataclass
class _Copy:
    """One dispatched copy of a task (a task may have several: hedges,
    resplit halves, re-dispatches after failures)."""

    task: ShardTask
    worker: str
    kind: str            # assigned | steal | resplit | hedge | redispatch
    dispatched: float
    started: Optional[float] = None

    def age(self, now: float) -> float:
        return now - (self.started if self.started is not None
                      else self.dispatched)


@dataclass
class _Family:
    """Coverage state of one planner-level shard (original + any halves)."""

    original: ShardTask
    children: Optional[Tuple[ShardTask, ShardTask]] = None
    done: Dict[Tuple[int, ...], int] = field(default_factory=dict)  # → pairs
    covered: bool = False
    chosen: Optional[List[Tuple[int, ...]]] = None
    attempts: int = 0

    def task_for(self, key: Tuple[int, ...]) -> ShardTask:
        if key == self.original.key:
            return self.original
        assert self.children is not None
        return self.children[key[-1]]

    def try_cover(self) -> bool:
        """Resolve coverage; returns True when it flips to covered."""
        if self.covered:
            return False
        if self.original.key in self.done:
            self.chosen = [self.original.key]
            self.covered = True
        elif self.children is not None \
                and all(c.key in self.done for c in self.children):
            self.chosen = [c.key for c in self.children]
            self.covered = True
        return self.covered


@dataclass
class _Worker:
    """Parent-side view of one worker (endpoint / pool slot)."""

    name: str
    alive: bool = True
    #: Serve the queue largest cost first; otherwise in key (root) order.
    largest_first: bool = True
    queue: List[ShardTask] = field(default_factory=list)
    outstanding: Dict[Tuple[int, ...], _Copy] = field(default_factory=dict)
    ewma: Optional[float] = None          # cost units per second
    accepted: int = 0

    def queued_cost(self) -> float:
        return float(sum(t.cost for t in self.queue))

    def push(self, task: ShardTask) -> None:
        self.queue.append(task)
        if self.largest_first:
            self.queue.sort(key=lambda t: (-t.cost, t.key))
        else:
            self.queue.sort(key=lambda t: t.key)

    def rate(self, fallback: float) -> float:
        return self.ewma if self.ewma is not None else fallback

    def backlog_eta(self, fallback: float) -> float:
        """Seconds of queued work at the observed rate."""
        rate = max(self.rate(fallback), 1e-12)
        return self.queued_cost() / rate


@dataclass
class Completion:
    """Outcome of :meth:`WorkStealingScheduler.on_complete`."""

    accepted: bool
    #: Set when this completion covered its shard family: the ordered list
    #: of copy keys whose fragments the merger should emit for that root.
    newly_covered: Optional[Tuple[int, List[Tuple[int, ...]]]] = None


class WorkStealingScheduler:
    """Deterministic pull-based work-stealing over oversplit shard tasks.

    Drive it with events: :meth:`next_task` when a worker has window
    capacity, :meth:`on_start` / :meth:`on_complete` / :meth:`on_failure` /
    :meth:`on_skipped` as they happen, :meth:`on_worker_dead` when a worker
    is lost, :meth:`maybe_rebalance` once per poll tick.  All timestamps
    come from the caller, so tests can replay exact histories.

    Parameters
    ----------
    tasks:
        Planner-level shards (keys ``(i,)``), any order; initial assignment
        partitions them contiguously by cost (``split_by_cost``) — exactly
        the static plan, which is also what ``mode="static"`` executes.
    workers:
        Worker names in a fixed order (endpoint strings, pool slots).
    mode:
        ``"adaptive"`` (steal + resplit + rebalance + hedge-last-resort) or
        ``"static"`` (own queue + hedging only).
    hedge_after:
        Seconds a lone in-flight copy may run before an idle worker may
        duplicate it; ``0`` disables hedging.
    ewma_alpha:
        Weight of the newest throughput observation.
    rebalance_ratio:
        A worker whose queued-work ETA exceeds the fastest worker's by this
        factor gets its largest queued shard moved there.
    max_attempts:
        Dispatch bound per shard family (default ``len(workers) + 2``).
    largest_first:
        Serve each queue largest cost first, so the join's tail is made of
        small shards.  With ``False`` queues are served in root order; the
        executor does that for a single worker, which has no tail to
        shorten and can then flush every completion at once.
    """

    def __init__(self, tasks: Sequence[ShardTask], workers: Sequence[str], *,
                 mode: str = "adaptive", hedge_after: float = 0.25,
                 ewma_alpha: float = 0.5, rebalance_ratio: float = 2.0,
                 max_attempts: Optional[int] = None,
                 largest_first: bool = True) -> None:
        if mode not in SCHEDULING_MODES:
            raise ValueError(f"mode must be one of {SCHEDULING_MODES}")
        if not workers:
            raise ValueError("at least one worker is required")
        self.mode = mode
        self.hedge_after = float(hedge_after)
        self.ewma_alpha = float(ewma_alpha)
        self.rebalance_ratio = float(rebalance_ratio)
        self.max_attempts = (int(max_attempts) if max_attempts is not None
                             else len(workers) + 2)
        self._workers: Dict[str, _Worker] = {
            name: _Worker(name=name, largest_first=largest_first)
            for name in workers}
        tasks = sorted(tasks, key=lambda t: t.key)
        self.roots: List[int] = [t.root for t in tasks]
        self._families: Dict[int, _Family] = {
            t.root: _Family(original=t) for t in tasks}
        self.report = ScheduleReport(mode=mode, n_workers=len(workers),
                                     n_shards=len(tasks),
                                     predicted_cost=float(
                                         sum(t.cost for t in tasks)))
        # Initial assignment = the static plan: contiguous cost-balanced
        # partition of the shard sequence, each queue served largest-first.
        if tasks:
            costs = np.array([t.cost for t in tasks], dtype=np.float64)
            names = list(workers)
            for w, part in enumerate(split_by_cost(costs, len(names))):
                worker = self._workers[names[min(w, len(names) - 1)]]
                for idx in part:
                    worker.push(tasks[int(idx)])
        self._covered_roots: set = set()

    # ----------------------------------------------------------- inspection
    def finished(self) -> bool:
        """All shard families covered."""
        return len(self._covered_roots) == len(self._families)

    def is_stale(self, key: Tuple[int, ...]) -> bool:
        """Whether executing this copy can no longer contribute."""
        return int(key[0]) in self._covered_roots

    def outstanding_count(self, worker: str) -> int:
        return len(self._workers[worker].outstanding)

    def queued_count(self, worker: str) -> int:
        return len(self._workers[worker].queue)

    def alive_workers(self) -> List[str]:
        return [w.name for w in self._workers.values() if w.alive]

    def _mean_rate(self) -> float:
        rates = [w.ewma for w in self._workers.values() if w.ewma is not None]
        return float(np.mean(rates)) if rates else 1.0

    # ------------------------------------------------------------- dispatch
    def next_task(self, worker: str, now: float) -> Optional[ShardTask]:
        """Pull the next shard for ``worker`` (None: nothing useful to do).

        The adaptive waterfall — own queue, steal, resplit, hedge — makes
        hedging structurally the *last* resort: it is only reachable when no
        queued shard exists anywhere and no in-flight shard is splittable.
        """
        me = self._workers[worker]
        if not me.alive:
            return None
        task = self._pop_queue(me)
        if task is not None:
            return self._dispatch(me, task, "assigned", now)
        if self.mode == "adaptive":
            task = self._steal(me)
            if task is not None:
                return self._dispatch(me, task, "steal", now)
            task = self._resplit(me, now)
            if task is not None:
                return self._dispatch(me, task, "resplit", now)
        task = self._hedge(me, now)
        if task is not None:
            return self._dispatch(me, task, "hedge", now)
        return None

    def _dispatch(self, worker: _Worker, task: ShardTask, kind: str,
                  now: float) -> ShardTask:
        family = self._families[task.root]
        family.attempts += 1
        worker.outstanding[task.key] = _Copy(task=task, worker=worker.name,
                                             kind=kind, dispatched=now)
        return task

    def _pop_queue(self, worker: _Worker) -> Optional[ShardTask]:
        while worker.queue:
            task = worker.queue.pop(0)
            if self.is_stale(task.key):
                self.report.duplicates_dropped += 1
                continue
            if task.key in worker.outstanding:
                continue  # never two copies of one key on one worker
            return task
        return None

    def _steal(self, thief: _Worker) -> Optional[ShardTask]:
        victims = [w for w in self._workers.values()
                   if w.alive and w is not thief and w.queue]
        if not victims:
            return None
        # Steal from the worker with the longest *time* backlog (cost over
        # observed rate), not just the most cost: a slow worker's queue is
        # the tail risk.  Ties break on worker order.
        fallback = self._mean_rate()
        victim = max(victims, key=lambda w: w.backlog_eta(fallback))
        task = self._pop_queue(victim)
        if task is None:
            return None
        self.report.steals += 1
        return task

    def _inflight_copies(self) -> List[_Copy]:
        return [copy for w in self._workers.values() if w.alive
                for copy in w.outstanding.values()
                if not self.is_stale(copy.task.key)]

    def _resplit(self, me: _Worker, now: float) -> Optional[ShardTask]:
        """Split the largest in-flight-remaining original shard in two.

        The holder keeps computing the whole shard; the halves race it on
        idle workers.  Whichever covering set completes first wins, and the
        merger emits identical pairs either way.  One split per family
        bounds the duplicated work.
        """
        fallback = self._mean_rate()
        candidates = []
        for copy in self._inflight_copies():
            family = self._families[copy.task.root]
            if family.children is not None or not copy.task.splittable() \
                    or len(copy.task.key) != 1 \
                    or family.attempts >= self.max_attempts:
                continue
            holder_rate = max(self._workers[copy.worker].rate(fallback), 1e-12)
            candidates.append((copy.task.cost / holder_rate, copy))
        if not candidates:
            return None
        # Largest expected remaining time first; ties on key.
        candidates.sort(key=lambda c: (-c[0], c[1].task.key))
        target = candidates[0][1]
        family = self._families[target.task.root]
        first, second = target.task.split()
        family.children = (first, second)
        self.report.resplits += 1
        # The requester takes the first half now; the second half goes on
        # its queue where the next idle worker (or itself) picks it up.
        me.push(second)
        return first

    def _hedge(self, me: _Worker, now: float) -> Optional[ShardTask]:
        if self.hedge_after <= 0:
            return None
        candidates = []
        for copy in self._inflight_copies():
            family = self._families[copy.task.root]
            active = self._active_copies(copy.task.key)
            if len(active) != 1 or copy.age(now) < self.hedge_after \
                    or family.attempts >= self.max_attempts \
                    or copy.task.key in me.outstanding \
                    or copy.worker == me.name:
                continue
            candidates.append(copy)
        if not candidates:
            return None
        candidates.sort(key=lambda c: (-c.age(now), c.task.key))
        self.report.hedges += 1
        return candidates[0].task

    def _active_copies(self, key: Tuple[int, ...]) -> List[_Copy]:
        return [w.outstanding[key] for w in self._workers.values()
                if key in w.outstanding]

    # --------------------------------------------------------------- events
    def on_start(self, worker: str, key: Tuple[int, ...], now: float) -> None:
        copy = self._workers[worker].outstanding.get(tuple(key))
        if copy is not None:
            copy.started = now

    def on_skipped(self, worker: str, key: Tuple[int, ...]) -> None:
        """A stale copy was dropped before execution (no work wasted)."""
        self._workers[worker].outstanding.pop(tuple(key), None)
        self.report.duplicates_dropped += 1

    def on_complete(self, worker: str, key: Tuple[int, ...], now: float,
                    pairs: int = 0) -> Completion:
        """A copy finished OK.  Returns whether its fragments are accepted
        (first completion of its key on a still-uncovered family) and, when
        it covered the family, which keys the merger should emit."""
        key = tuple(key)
        me = self._workers[worker]
        copy = me.outstanding.pop(key, None)
        family = self._families[int(key[0])]
        if copy is not None:
            # Throughput observation: cost units per second of busy time.
            duration = max(now - (copy.started if copy.started is not None
                                  else copy.dispatched), 1e-9)
            rate = copy.task.cost / duration
            me.ewma = (rate if me.ewma is None
                       else self.ewma_alpha * rate
                       + (1.0 - self.ewma_alpha) * me.ewma)
        if family.covered or key in family.done:
            # The losing side of a duplicate race: real compute thrown away.
            self._count_waste(family, copy, pairs)
            return Completion(accepted=False)
        family.done[key] = int(pairs)
        me.accepted += 1
        self.report.worker_shards[worker] = \
            self.report.worker_shards.get(worker, 0) + 1
        if family.try_cover():
            root = int(key[0])
            self._covered_roots.add(root)
            return Completion(accepted=True,
                              newly_covered=(root, list(family.chosen)))
        return Completion(accepted=True)

    def _count_waste(self, family: _Family, copy: Optional[_Copy],
                     pairs: int) -> None:
        """Attribute an executed-but-rejected copy to the racing mechanism.

        A resplit half (or an original beaten by its halves) is resplit
        waste; everything else lost a race that only existed because of a
        hedge, so it is hedge waste.  Copies that never executed (skipped
        stale, cancelled before completing) are *not* counted here — that
        is the hedge-accounting fix.
        """
        kind = copy.kind if copy is not None else "hedge"
        resplit_race = kind == "resplit" or (
            copy is not None and len(copy.task.key) > 1) or (
            kind in ("assigned", "steal", "redispatch")
            and family.children is not None)
        if resplit_race:
            self.report.resplit_wasted_shards += 1
            self.report.resplit_wasted_pairs += int(pairs)
        else:
            self.report.hedge_wasted_shards += 1
            self.report.hedge_wasted_pairs += int(pairs)

    def on_failure(self, worker: str, key: Tuple[int, ...], now: float,
                   reason: str = "") -> None:
        """A copy was cancelled / timed out / lost with its worker.

        The hedge-accounting fix lives here: a failed copy of an
        already-covered family is *dropped* — it did no countable work, it
        is not wasted compute, and it must never be re-dispatched (the
        pre-scheduler dispatcher re-queued such copies, then double-counted
        them as hedge waste when they completed).
        """
        key = tuple(key)
        me = self._workers[worker]
        me.outstanding.pop(key, None)
        family = self._families[int(key[0])]
        if family.covered or key in family.done:
            self.report.duplicates_dropped += 1
            return
        if self._active_copies(key):
            # Another copy of the same key is still running; no requeue.
            return
        if family.attempts >= self.max_attempts:
            raise ScheduleExhausted(
                f"shard {key} failed after {family.attempts} dispatch "
                f"attempts; last reason: {reason}")
        self.report.redispatches += 1
        self._requeue(family.task_for(key))

    def _requeue(self, task: ShardTask) -> None:
        alive = [w for w in self._workers.values() if w.alive]
        if not alive:
            raise ScheduleExhausted(
                f"shard {task.key} cannot be re-dispatched: no workers left")
        fallback = self._mean_rate()
        target = min(alive, key=lambda w: (w.backlog_eta(fallback),
                                           len(w.outstanding)))
        target.push(task)

    def on_worker_dead(self, worker: str, now: float) -> None:
        """Lose a worker: requeue its shards onto the survivors."""
        me = self._workers[worker]
        if not me.alive:
            return
        me.alive = False
        queued, me.queue = me.queue, []
        outstanding, me.outstanding = list(me.outstanding.values()), {}
        for task in queued:
            if not self.is_stale(task.key):
                self._requeue(task)
        for copy in outstanding:
            me.outstanding[copy.task.key] = copy  # restore for on_failure
            self.on_failure(worker, copy.task.key, now, reason="worker died")

    def maybe_rebalance(self, now: float) -> bool:
        """Move one queued shard off the most-backlogged slow worker.

        Fires when the slowest worker's queued-work ETA exceeds the fastest
        worker's by ``rebalance_ratio`` — the observed-throughput correction
        of the cost model's static assignment.  Returns whether a move
        happened (at most one per call, so the poll loop stays cheap).
        """
        if self.mode != "adaptive":
            return False
        alive = [w for w in self._workers.values() if w.alive]
        if len(alive) < 2:
            return False
        fallback = self._mean_rate()
        loaded = [w for w in alive if w.queue]
        if not loaded:
            return False
        slow = max(loaded, key=lambda w: w.backlog_eta(fallback))
        fast = min(alive, key=lambda w: w.backlog_eta(fallback))
        if fast is slow:
            return False
        slow_eta = slow.backlog_eta(fallback)
        fast_eta = fast.backlog_eta(fallback)
        if slow_eta <= self.rebalance_ratio * max(fast_eta, 1e-12):
            return False
        task = self._pop_queue(slow)
        if task is None:
            return False
        # Only worth it if the move shortens the critical path.
        fast_rate = max(fast.rate(fallback), 1e-12)
        if fast_eta + task.cost / fast_rate >= slow_eta:
            slow.push(task)
            return False
        fast.push(task)
        self.report.rebalances += 1
        return True

    # ---------------------------------------------------------------- report
    def finalize_report(self, achieved_cost: float = 0.0) -> ScheduleReport:
        """Stamp end-of-join observability (throughput map, cost ratio)."""
        self.report.worker_throughput = {
            w.name: float(w.ewma) for w in self._workers.values()
            if w.ewma is not None}
        self.report.achieved_cost = float(achieved_cost)
        return self.report


# --------------------------------------------------------------------------
# deterministic merge
# --------------------------------------------------------------------------
class OrderedShardMerger:
    """Emit accepted shard fragments into a sink in B-order shard order.

    Completions arrive in any order; fragments are stashed per copy key and
    flushed root-by-root as the frontier of covered roots advances — so the
    merged pair stream is bit-identical to a serial static run no matter
    which workers finished first, and only out-of-order shards are ever
    buffered (in-order completions flush immediately).

    ``key_maps`` (per copy key, optional) re-base a probe shard's
    slice-local result rows onto global query rows at emit time.
    """

    def __init__(self, sink, roots: Sequence[int]) -> None:
        self.sink = sink
        self.roots = list(roots)
        self._next = 0
        self._chunks: Dict[Tuple[int, ...], List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._key_maps: Dict[Tuple[int, ...], Optional[np.ndarray]] = {}
        self._chosen: Dict[int, List[Tuple[int, ...]]] = {}

    def stash(self, key: Tuple[int, ...],
              chunks: List[Tuple[np.ndarray, np.ndarray]],
              key_map: Optional[np.ndarray] = None) -> None:
        """Hold an accepted copy's fragments until its turn to emit."""
        key = tuple(key)
        self._chunks[key] = list(chunks)
        self._key_maps[key] = key_map

    def complete(self, root: int, chosen: List[Tuple[int, ...]]) -> None:
        """Mark a root covered by ``chosen`` copies; flush the frontier."""
        self._chosen[int(root)] = [tuple(k) for k in chosen]
        self._flush()

    def _flush(self) -> None:
        while self._next < len(self.roots):
            root = self.roots[self._next]
            chosen = self._chosen.get(root)
            if chosen is None:
                return
            for key in chosen:
                key_map = self._key_maps.pop(key, None)
                for keys, values in self._chunks.pop(key, []):
                    if key_map is not None:
                        keys = key_map[keys]
                    self.sink.emit(keys, values)
            self._next += 1

    def pending(self) -> int:
        """Roots not yet flushed (0 once the join fully merged)."""
        return len(self.roots) - self._next
