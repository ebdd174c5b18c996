"""The shard executor's one loop, driven through a scripted transport.

No sockets, processes or sleeps.  :class:`ScriptedTransport` computes each
dispatched copy with the real shard body (``run_shard``) but a script
decides *when* and *how* the copy comes back: out of order, failed
worker-side, lost with a dead worker, or delivered twice.  A fake clock
advances one second per event, so hedges and resplits fire on schedule.
Whatever the script, the merged pair stream must hash to the serial
``vectorized`` run's sha256, and the :class:`KernelStats` counters must
equal the serial run's exactly.

:class:`TestSessionLifecycle` drives the attach/detach lifecycle every
shard backend inherits through a backend that counts the datasets it
opens and closes.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import deque

import numpy as np
import pytest

from repro.core.gridindex import GridIndex
from repro.core.kernels import selfjoin_cell_costs
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.engine import EngineSession, Query, run_query
from repro.engine.backends import VectorizedBackend
from repro.parallel.executor import (
    InlineTransport,
    ShardDataset,
    ShardOp,
    Transport,
    WorkerTaskFailed,
    run_shard,
    run_tasks,
)
from repro.parallel.sharded import ShardedBackend
from repro.parallel.shards import probe_tasks, selfjoin_tasks

KERNEL = "numpy"
WORKERS = ("w0", "w1", "w2")


class ScriptedTransport(Transport):
    """Holds submitted copies until ``script(self)`` resolves one.

    ``script`` returns the index into :attr:`pending` to resolve next and
    the outcome: ``"done"``, ``"failed"``, ``"dead"`` or ``"twice"`` (done,
    delivered two times).
    """

    def __init__(self, dataset, script, workers=WORKERS, window=1):
        super().__init__()
        self.dataset = dataset
        self.script = script
        self.workers = list(workers)
        self.window = window
        self.now = 0.0
        self.pending = []          # (worker, task, op) in submit order
        self.submitted = []        # task keys in submit order
        self.outcomes = []         # (outcome, key) in resolution order
        self._out = deque()

    def clock(self) -> float:
        return self.now

    def submit(self, worker, task, op) -> None:
        self.pending.append((worker, task, op))
        self.submitted.append(task.key)

    def poll(self, timeout):
        self.now += 1.0
        if not self._out and self.pending:
            i, outcome = self.script(self)
            worker, task, op = self.pending.pop(i)
            self.outcomes.append((outcome, task.key))
            if outcome == "failed":
                self._out.append(("failed", worker, task, "worker-side timeout"))
            elif outcome == "dead":
                # Everything else the worker held is lost with it.
                self.pending = [p for p in self.pending if p[0] != worker]
                self._out.append(("dead", worker, task, "connection reset"))
            else:
                keys, values, twice, stats = run_shard(self.dataset,
                                                       *op.request(task))
                event = ("done", worker, task, [(keys, values, twice)], stats)
                self._out.extend([event] * (2 if outcome == "twice" else 1))
        return self._out.popleft() if self._out else None


def _digest(sink) -> str:
    keys, values = sink.concatenated()
    return hashlib.sha256(keys.astype("<i8").tobytes()
                          + values.astype("<i8").tobytes()).hexdigest()


def _counters(stats):
    return (stats.cells_checked, stats.nonempty_cells_visited,
            stats.distance_calcs, stats.result_pairs)


@pytest.fixture(scope="module")
def index():
    return GridIndex.build(uniform_dataset(700, 3, seed=5, low=0.0, high=1.0),
                           0.12)


@pytest.fixture(scope="module", params=[False, True], ids=["global", "unicomp"])
def serial(request, index):
    """(unicomp, digest, counters) of the serial vectorized self-join."""
    sink = PairFragments(index.num_points)
    stats = VectorizedBackend("numpy").run_selfjoin(
        index, index.eps, None, sink, unicomp=request.param)
    return request.param, _digest(sink), _counters(stats)


def _selfjoin(index, unicomp, transport, **kwargs):
    tasks = selfjoin_tasks(selfjoin_cell_costs(index, unicomp), None, 9)
    op = ShardOp("selfjoin", {"index_eps": float(index.eps),
                              "eps": float(index.eps), "unicomp": unicomp})
    sink = PairFragments(index.num_points)
    stats, report = run_tasks(tasks, op, transport, sink,
                              clock=transport.clock, **kwargs)
    return sink, stats, report


def in_order(t):
    return 0, "done"


def newest_first(t):
    return len(t.pending) - 1, "done"


def fail_first_attempt(t):
    """Every planned shard fails worker-side the first time it runs."""
    key = t.pending[0][1].key
    first = len(key) == 1 and all(k != key for _, k in t.outcomes)
    return 0, ("failed" if first else "done")


def kill_w1(t):
    for i, (worker, _, _) in enumerate(t.pending):
        if worker == "w1":
            return i, "dead"
    return len(t.pending) - 1, "done"


def deliver_twice(t):
    return len(t.pending) - 1, "twice"


SCRIPTS = [in_order, newest_first, fail_first_attempt, kill_w1, deliver_twice]


class TestScriptedSchedules:
    @pytest.mark.parametrize("window", [1, 2])
    @pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.__name__)
    def test_stream_and_counters_match_serial(self, index, serial, script,
                                              window):
        unicomp, digest, counters = serial
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      script, window=window)
        sink, stats, report = _selfjoin(index, unicomp, transport,
                                        hedge_after=1.5)
        assert _digest(sink) == digest
        assert _counters(stats) == counters
        assert stats.schedule_counts == report.counts()
        assert report.shards == 9 and report.n_workers == len(WORKERS)

    def test_failed_copies_are_redispatched(self, index, serial):
        unicomp, digest, _ = serial
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      fail_first_attempt)
        sink, _, report = _selfjoin(index, unicomp, transport)
        assert _digest(sink) == digest
        assert report.redispatches == 9
        assert sum(o == "failed" for o, _ in transport.outcomes) == 9

    def test_dead_worker_gets_no_more_work(self, index, serial):
        unicomp, digest, _ = serial
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      kill_w1)
        sink, _, report = _selfjoin(index, unicomp, transport)
        assert _digest(sink) == digest
        assert report.redispatches >= 1
        assert "w1" not in report.worker_shards

    def test_out_of_order_completions_resplit_and_steal(self, index, serial):
        unicomp, digest, counters = serial
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      newest_first)
        sink, stats, report = _selfjoin(index, unicomp, transport,
                                        hedge_after=0.0)
        assert _digest(sink) == digest
        assert _counters(stats) == counters
        assert report.steals + report.resplits >= 1

    @pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.__name__)
    def test_planned_cost_is_the_accepted_work(self, index, serial, script):
        # Each cell's cost is its exact distance calculations, so the plan
        # predicts the accepted shards' work whatever was resplit, hedged,
        # re-dispatched or delivered twice.
        unicomp, _, counters = serial
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      script)
        _, stats, report = _selfjoin(index, unicomp, transport,
                                     hedge_after=0.0)
        assert report.predicted_cost == report.achieved_cost \
            == stats.distance_calcs == counters[2]
        if script is newest_first:
            assert report.resplits >= 1

    def test_duplicate_delivery_is_waste_not_pairs(self, index, serial):
        unicomp, digest, counters = serial
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      deliver_twice)
        sink, stats, report = _selfjoin(index, unicomp, transport)
        assert _digest(sink) == digest
        assert _counters(stats) == counters
        assert report.hedge_wasted_shards + report.resplit_wasted_shards >= 9

    def test_probe_rows_are_rebased(self, index):
        queries = np.random.default_rng(3).uniform(0, 1, (250, 3))
        ref_sink = PairFragments(queries.shape[0])
        ref = VectorizedBackend("numpy").run_probe(queries, index, index.eps,
                                                   ref_sink)
        rows = np.arange(queries.shape[0], dtype=np.int64)
        tasks = probe_tasks(queries, rows, index, 6)
        op = ShardOp("probe", {"index_eps": float(index.eps),
                               "eps": float(index.eps)}, queries=queries)
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      newest_first)
        sink = PairFragments(queries.shape[0])
        # Static mode without hedges: completions still arrive out of
        # order, but no row group is resplit (a probe's stream follows its
        # row groups, unlike a self-join's).
        stats, _ = run_tasks(tasks, op, transport, sink, mode="static",
                             hedge_after=0.0, clock=transport.clock)
        assert sink.to_neighbor_table().same_contents_as(
            ref_sink.to_neighbor_table())
        # Row groups split query cells, so the cell counters are those of
        # the same plan run serially; the distance work is the unsplit one.
        inline_sink = PairFragments(queries.shape[0])
        inline, _ = run_tasks(
            tasks, op, InlineTransport(ShardDataset.for_index(index, KERNEL)),
            inline_sink)
        assert _digest(sink) == _digest(inline_sink)
        assert _counters(stats) == _counters(inline)
        assert _counters(stats)[2:] == _counters(ref)[2:]


class TestLoopEdges:
    def test_one_worker_dispatches_in_root_order(self, index):
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      in_order, workers=("only",))
        _selfjoin(index, False, transport)
        assert transport.submitted == sorted(transport.submitted)
        assert len(transport.submitted) == 9

    def test_inline_transport_matches_serial(self, index, serial):
        unicomp, digest, counters = serial
        tasks = selfjoin_tasks(selfjoin_cell_costs(index, unicomp), None, 5)
        op = ShardOp("selfjoin", {"index_eps": float(index.eps),
                                  "eps": float(index.eps),
                                  "unicomp": unicomp})
        sink = PairFragments(index.num_points)
        stats, report = run_tasks(
            tasks, op, InlineTransport(ShardDataset.for_index(index, KERNEL)),
            sink)
        assert _digest(sink) == digest
        assert _counters(stats) == counters
        assert report.steals == report.resplits == report.hedges == 0

    def test_error_event_is_raised(self, index):
        class Failing(ScriptedTransport):
            def poll(self, timeout):
                worker, task, _ = self.pending.pop(0)
                return ("error", worker, task, ValueError("poison shard"))

        transport = Failing(ShardDataset(index.points, KERNEL), in_order)
        with pytest.raises(ValueError, match="poison shard"):
            _selfjoin(index, False, transport)

    def test_all_workers_dead_raises(self, index):
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      lambda t: (0, "dead"))
        with pytest.raises(WorkerTaskFailed):
            _selfjoin(index, False, transport)

    def test_the_last_lost_worker_names_its_cause(self, index):
        # The last loss still holds queued shards: the error must name the
        # worker and the reason, not only that no worker is left.
        transport = ScriptedTransport(ShardDataset(index.points, KERNEL),
                                      lambda t: (len(t.pending) - 1, "dead"),
                                      workers=("w0", "w1"))
        with pytest.raises(WorkerTaskFailed,
                           match=r"last failure on w\d: connection reset"):
            _selfjoin(index, False, transport)


class CountingBackend(ShardedBackend):
    """Inline shards; records every dataset the lifecycle opens and closes."""

    def __init__(self, private_datasets: bool = False) -> None:
        super().__init__(n_shards=3, kernel=KERNEL)
        self.private_datasets = private_datasets
        self.opened = self.closed = self.max_live = 0
        self.live = set()
        self._count_lock = threading.Lock()  # private opens run unlocked

    def _open_dataset(self, points, store_path, n_tasks=None):
        handle = object()
        with self._count_lock:
            self.opened += 1
            self.live.add(handle)
            self.max_live = max(self.max_live, len(self.live))
        return handle

    def _close_dataset(self, handle) -> None:
        with self._count_lock:
            self.closed += 1
            self.live.remove(handle)


class TestSessionLifecycle:
    def test_sessions_share_one_dataset_and_calls_outside_open_their_own(
            self, index):
        backend = CountingBackend()
        first = EngineSession(index.points, backend=backend).open()
        second = EngineSession(index.points, backend=backend).open()
        first.self_join(index.eps)
        second.self_join(index.eps)
        assert (backend.opened, backend.closed) == (1, 0)
        run_query(Query.self_join(index.points.copy(), index.eps),
                  backend=backend)          # not the attached array
        assert (backend.opened, backend.closed) == (2, 1)
        first.close()
        assert backend.closed == 1          # ``second`` still holds it
        second.close()
        assert (backend.opened, backend.closed) == (2, 2)
        assert backend._attached == {} and backend.max_live == 2
        assert (backend.stats.datasets_opened,
                backend.stats.datasets_closed) == (2, 2)

    @staticmethod
    def _churn(index, backend, check=lambda session: None) -> None:
        """Open and close sessions over one dataset from eight threads,
        switching every microsecond, calling ``check`` inside each."""
        errors = []

        def churn() -> None:
            try:
                for _ in range(50):
                    with EngineSession(index.points,
                                       backend=backend) as session:
                        check(session)
            except Exception as exc:  # reported below, not lost in a thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert backend.opened == backend.closed >= 1
        assert backend._attached == {} and backend.live == set()
        # The base counts under its lock what the hooks saw, no update lost.
        assert (backend.stats.datasets_opened, backend.stats.datasets_closed) \
            == (backend.opened, backend.closed)

    def test_concurrent_open_and_close_open_each_dataset_once(self, index):
        # A lost update in the attach/detach bookkeeping would open a
        # second dataset beside a live one, or leave one open at the end.
        backend = CountingBackend()
        self._churn(index, backend)
        assert backend.max_live == 1

    def test_private_datasets_stay_open_while_a_session_holds_them(
            self, index):
        # Private datasets open and close outside the lock, so two attaches
        # may both open one; the loser's must be closed, and the one a
        # session was attached to must stay open until it detaches.
        backend = CountingBackend(private_datasets=True)

        def check(session) -> None:
            with backend._lock:
                handle = backend._attached[session.identity].handle
            assert handle in backend.live

        self._churn(index, backend, check)
