"""The shard executor's one loop, driven through a scripted transport.

No sockets, processes or sleeps.  :class:`ScriptedTransport` computes each
dispatched copy with the real shard body (``run_shard``) but a script
decides *when* and *how* the copy comes back: out of order, failed
worker-side, lost with a dead worker, or delivered twice.  A fake clock
advances one second per event, so hedges and resplits fire on schedule.
Whatever the script, the merged pair stream must hash to the serial
``vectorized`` run's sha256, and the :class:`KernelStats` counters must
equal the serial run's exactly.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np
import pytest

from repro.core.gridindex import GridIndex
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
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
from repro.parallel.shards import probe_tasks, selfjoin_tasks

INNER = "vectorized(kernel=numpy)"
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
                keys, values, stats = run_shard(self.dataset,
                                                *op.request(task))
                event = ("done", worker, task, [(keys, values)], stats)
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
    tasks = selfjoin_tasks(index, None, 9, seed=0)
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
        transport = ScriptedTransport(ShardDataset(index.points, INNER),
                                      script, window=window)
        sink, stats, report = _selfjoin(index, unicomp, transport,
                                        hedge_after=1.5)
        assert _digest(sink) == digest
        assert _counters(stats) == counters
        assert stats.schedule_counts == report.counts()
        assert report.n_shards == 9 and report.n_workers == len(WORKERS)

    def test_failed_copies_are_redispatched(self, index, serial):
        unicomp, digest, _ = serial
        transport = ScriptedTransport(ShardDataset(index.points, INNER),
                                      fail_first_attempt)
        sink, _, report = _selfjoin(index, unicomp, transport)
        assert _digest(sink) == digest
        assert report.redispatches == 9
        assert sum(o == "failed" for o, _ in transport.outcomes) == 9

    def test_dead_worker_gets_no_more_work(self, index, serial):
        unicomp, digest, _ = serial
        transport = ScriptedTransport(ShardDataset(index.points, INNER),
                                      kill_w1)
        sink, _, report = _selfjoin(index, unicomp, transport)
        assert _digest(sink) == digest
        assert report.redispatches >= 1
        assert "w1" not in report.worker_shards

    def test_out_of_order_completions_resplit_and_steal(self, index, serial):
        unicomp, digest, counters = serial
        transport = ScriptedTransport(ShardDataset(index.points, INNER),
                                      newest_first)
        sink, stats, report = _selfjoin(index, unicomp, transport,
                                        hedge_after=0.0)
        assert _digest(sink) == digest
        assert _counters(stats) == counters
        assert report.steals + report.resplits >= 1

    def test_duplicate_delivery_is_waste_not_pairs(self, index, serial):
        unicomp, digest, counters = serial
        transport = ScriptedTransport(ShardDataset(index.points, INNER),
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
        tasks = probe_tasks(queries, rows, index, 6, seed=0)
        op = ShardOp("probe", {"index_eps": float(index.eps),
                               "eps": float(index.eps)}, queries=queries)
        transport = ScriptedTransport(ShardDataset(index.points, INNER),
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
            tasks, op, InlineTransport(ShardDataset.for_index(index, INNER)),
            inline_sink)
        assert _digest(sink) == _digest(inline_sink)
        assert _counters(stats) == _counters(inline)
        assert _counters(stats)[2:] == _counters(ref)[2:]


class TestLoopEdges:
    def test_one_worker_dispatches_in_root_order(self, index):
        transport = ScriptedTransport(ShardDataset(index.points, INNER),
                                      in_order, workers=("only",))
        _selfjoin(index, False, transport)
        assert transport.submitted == sorted(transport.submitted)
        assert len(transport.submitted) == 9

    def test_inline_transport_matches_serial(self, index, serial):
        unicomp, digest, counters = serial
        tasks = selfjoin_tasks(index, None, 5, seed=0)
        op = ShardOp("selfjoin", {"index_eps": float(index.eps),
                                  "eps": float(index.eps),
                                  "unicomp": unicomp})
        sink = PairFragments(index.num_points)
        stats, report = run_tasks(
            tasks, op, InlineTransport(ShardDataset.for_index(index, INNER)),
            sink)
        assert _digest(sink) == digest
        assert _counters(stats) == counters
        assert report.steals == report.resplits == report.hedges == 0

    def test_error_event_is_raised(self, index):
        class Failing(ScriptedTransport):
            def poll(self, timeout):
                worker, task, _ = self.pending.pop(0)
                return ("error", worker, task, ValueError("poison shard"))

        transport = Failing(ShardDataset(index.points, INNER), in_order)
        with pytest.raises(ValueError, match="poison shard"):
            _selfjoin(index, False, transport)

    def test_all_workers_dead_raises(self, index):
        transport = ScriptedTransport(ShardDataset(index.points, INNER),
                                      lambda t: (0, "dead"))
        with pytest.raises(WorkerTaskFailed):
            _selfjoin(index, False, transport)
