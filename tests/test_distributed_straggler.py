"""Straggler-injection tests for the adaptive distributed scheduler.

One worker in the pool is slowed with the ``REPRO_WORKER_DEBUG_SLEEP_MS``
hook (constructor kwarg for in-process :class:`WorkerThread` servers,
environment variable for ``repro-worker`` subprocesses) and the
work-stealing scheduler must route around it: idle peers steal its queued
shards, its in-flight shard gets resplit rather than hedged, the slowed
worker completes fewer than its fair share of the shards, and the merged
result stays bit-identical to ``vectorized`` across dimensionalities and
UNICOMP settings.  The assertions read the schedule, not the clock; the
wall-clock effect of stealing is measured by
``benchmarks/test_bench_schedule.py``.

The matrix runs against in-process :class:`WorkerThread` servers (real
sockets, no process spawns); one test spawns a real ``repro-worker``
subprocess pool with the environment-variable hook to pin the CLI path.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.data.synthetic import uniform_dataset
from repro.distributed import (
    DistributedBackend,
    LocalWorkerPool,
    WorkerThread,
)
from repro.distributed.worker import DEBUG_SLEEP_ENV_VAR
from repro.engine import EngineSession, Query, run_query
from repro.parallel.scheduler import WorkStealingScheduler
from repro.service import protocol

ALL_DIMS = [2, 3, 4, 5, 6]
POINTS_BY_DIM = {2: 120, 3: 100, 4: 80, 5: 60, 6: 40}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}

#: Injected per-shard sleep on the slow worker.  Large against loopback
#: round-trips and the tiny shard compute, small against the test budget.
SLEEP_MS = 75.0


def _dataset(dims, seed_base=140):
    return uniform_dataset(POINTS_BY_DIM[dims], dims, seed=seed_base + dims,
                           low=0.0, high=4.0)


@pytest.fixture(scope="module")
def straggler_pool():
    """Three in-process workers; the first sleeps before every shard op."""
    slow = WorkerThread(debug_shard_sleep_ms=SLEEP_MS).start()
    fast = [WorkerThread().start() for _ in range(2)]
    threads = [slow] + fast
    yield [thread.address for thread in threads]
    for thread in threads:
        thread.stop()


def _backend(addresses, **kwargs):
    return DistributedBackend(
        *[f"{host}:{port}" for host, port in addresses], **kwargs)


class TestStragglerMatrix:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_stolen_shards_stay_bit_identical(self, straggler_pool, dims,
                                              unicomp, monkeypatch):
        # The throughput rebalance (pinned by the fake-clock tests in
        # test_parallel_scheduler.py) also drains a slow worker's queue, on
        # any idle poll tick; switched off here, stealing is the only way a
        # queued shard leaves the slowed worker, so the steal path runs on
        # every case instead of whenever the rebalance loses the race.
        monkeypatch.setattr(WorkStealingScheduler, "maybe_rebalance",
                            lambda self, now: False)
        points = _dataset(dims)
        eps = EPS_BY_DIM[dims]
        reference = run_query(Query.self_join(points, eps, unicomp=unicomp),
                              backend="vectorized").neighbor_table
        backend = _backend(straggler_pool, n_shards=12)
        with EngineSession(points, backend=backend) as session:
            got = session.self_join(eps, unicomp=unicomp)
        assert got.neighbor_table.same_contents_as(reference), (dims, unicomp)
        # The fast peers drained the slow worker's queue.
        assert backend.stats.schedule["steals"] >= 1, (dims, unicomp)
        report = backend.stats.last_schedule
        assert report is not None and report.mode == "adaptive"
        assert report.shards == 12
        # The slowed worker completed fewer shards than an even split of the
        # accepted ones (resplit halves included) would give it.  Every
        # worker name must be one of the pool's, so a name mismatch cannot
        # read the slowed worker as zero.
        names = [f"{host}:{port}" for host, port in straggler_pool]
        done = report.worker_shards
        assert set(done) <= set(names), (names, done)
        assert sum(done.values()) >= 12, done
        assert done.get(names[0], 0) * len(names) < sum(done.values()), \
            (dims, unicomp, done)


class TestHedgeDiscipline:
    def test_adaptive_hedges_strictly_less_than_static(self, straggler_pool):
        # Same join, same straggler, short hedge fuse.  Under static
        # scheduling the idle peers can only hedge the slow worker's
        # in-flight shard; the adaptive waterfall steals and resplits
        # first, so hedging fires strictly less often.
        points = _dataset(3)
        eps = EPS_BY_DIM[3]
        hedged = {}
        for mode in ("static", "adaptive"):
            backend = _backend(straggler_pool, n_shards=12,
                               hedge_after=0.03, scheduling=mode)
            with EngineSession(points, backend=backend) as session:
                session.self_join(eps)
            hedged[mode] = backend.stats.schedule["hedges"]
        assert hedged["static"] >= 1
        assert hedged["adaptive"] < hedged["static"]

    def test_resplit_waste_is_not_booked_as_hedge_waste(self, straggler_pool):
        points = _dataset(2)
        backend = _backend(straggler_pool, n_shards=4, hedge_after=0.0)
        with EngineSession(points, backend=backend) as session:
            session.self_join(EPS_BY_DIM[2])
        # Hedging disabled: whatever duplicate work raced came from
        # resplits, and none of it may land in the hedge-waste counters.
        assert backend.stats.schedule["hedges"] == 0
        assert backend.stats.schedule["hedge_wasted_shards"] == 0
        assert backend.stats.schedule["hedge_wasted_pairs"] == 0


class TestSubprocessEnvHook:
    def test_env_slowed_worker_is_stolen_from(self):
        # The CLI path of the hook: one repro-worker subprocess inherits
        # REPRO_WORKER_DEBUG_SLEEP_MS via LocalWorkerPool's worker_envs.
        points = uniform_dataset(150, 3, seed=151, low=0.0, high=4.0)
        eps = 1.0
        reference = run_query(Query.self_join(points, eps)).neighbor_table
        pool = LocalWorkerPool(
            2, worker_envs=[{DEBUG_SLEEP_ENV_VAR: SLEEP_MS}, None])
        try:
            backend = _backend(pool.addresses(), n_shards=8)
            with EngineSession(points, backend=backend) as session:
                got = session.self_join(eps)
            assert got.neighbor_table.same_contents_as(reference)
            assert backend.stats.schedule["steals"] \
                + backend.stats.schedule["resplits"] >= 1
        finally:
            pool.shutdown()


class _SlowAttachStub:
    """A socket server speaking one frame exchange: read, sleep, OK."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.address = self.sock.getsockname()
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            try:
                protocol.read_frame_sock(conn)
                time.sleep(self.delay_s)
                conn.sendall(protocol.encode_frame(
                    {"status": protocol.STATUS_OK}))
            except (OSError, protocol.ProtocolError):
                pass
            finally:
                conn.close()

    def close(self) -> None:
        self._stop.set()
        self.sock.close()


class TestConcurrentAttach:
    def test_attach_latency_is_slowest_worker_not_sum(self):
        # Three workers each taking 0.35 s to attach: the asyncio.gather
        # fan-out must finish in roughly one delay, far under the 1.05 s
        # a sequential loop would take.
        delay = 0.35
        stubs = [_SlowAttachStub(delay) for _ in range(3)]
        try:
            backend = _backend([s.address for s in stubs])
            start = time.monotonic()
            backend._attach_rpc({"op": "attach", "dataset": "stub",
                                 "arrays": []}, b"")
            elapsed = time.monotonic() - start
        finally:
            for stub in stubs:
                stub.close()
        assert elapsed < len(stubs) * delay * 0.8
        assert backend.stats.attach_rpcs == len(stubs)
