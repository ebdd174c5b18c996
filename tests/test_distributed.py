"""Parity, fault-injection and lifecycle tests for ``repro.distributed``.

The ``distributed`` backend must be bit-identical to ``vectorized`` on every
query kind across dimensionalities and UNICOMP settings, for both transports
(arrays shipped once vs a :class:`~repro.data.store.SpatialStore` path the
workers memmap), and must stay bit-identical under faults: a worker killed
mid-join (shards re-dispatched to survivors), a straggling worker (hedged
duplicate, deduped by shard id), and an expired deadline (parent unwinds
*and* the workers cancel the outstanding remote shards).

The parity matrix runs against in-process :class:`WorkerThread` servers —
real sockets and frames without per-test process spawns; the fault tests use
:class:`LocalWorkerPool` subprocesses (the CI harness) because killing a
worker must kill a real process.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.data.store import SpatialStore
from repro.data.synthetic import uniform_dataset
from repro.distributed import (
    DistributedBackend,
    LocalWorkerPool,
    WorkerThread,
    WorkerTaskFailed,
    worker_request,
)
from repro.engine import (
    EngineSession,
    Query,
    backend_availability,
    get_backend,
    list_backends,
    run_query,
)
from repro.service import protocol
from repro.utils.cancellation import (
    CancellationToken,
    OperationCancelled,
    cancel_scope,
)

ALL_DIMS = [2, 3, 4, 5, 6]
POINTS_BY_DIM = {2: 120, 3: 100, 4: 80, 5: 60, 6: 40}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}


def _dataset(dims, seed_base=70):
    return uniform_dataset(POINTS_BY_DIM[dims], dims, seed=seed_base + dims,
                           low=0.0, high=4.0)


def _spec(addresses):
    return ("distributed("
            + ", ".join(f"{host}:{port}" for host, port in addresses) + ")")


@pytest.fixture(scope="module")
def workers():
    """Four in-process workers shared by the whole parity matrix."""
    threads = [WorkerThread().start() for _ in range(4)]
    yield [thread.address for thread in threads]
    for thread in threads:
        thread.stop()


class TestDistributedParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_selfjoin_matches_vectorized(self, workers, dims, unicomp,
                                         n_workers):
        points = _dataset(dims)
        eps = EPS_BY_DIM[dims]
        reference = run_query(Query.self_join(points, eps, unicomp=unicomp),
                              backend="vectorized").neighbor_table
        table = run_query(Query.self_join(points, eps, unicomp=unicomp),
                          backend=_spec(workers[:n_workers])).neighbor_table
        assert table.same_contents_as(reference), (dims, unicomp, n_workers)

    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_store_attached_streamed_selfjoin(self, workers, dims, unicomp,
                                              tmp_path):
        points = _dataset(dims, seed_base=80)
        eps = EPS_BY_DIM[dims]
        store = SpatialStore.write(points, tmp_path / "store")
        reference = run_query(Query.self_join(points, eps, unicomp=unicomp)
                              ).neighbor_table
        with EngineSession(store, backend=_spec(workers[:2])) as session:
            assert session.streams_self_joins
            got = session.self_join(eps, unicomp=unicomp)
            # The streamed path must never materialize the dataset in the
            # parent: workers read their shards from their own memmaps.
            assert session._points is None
        assert got.neighbor_table.same_contents_as(reference), (dims, unicomp)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_bipartite_range_and_knn_parity(self, workers, n_workers):
        left = uniform_dataset(90, 3, seed=85, low=0.0, high=4.0)
        right = uniform_dataset(130, 3, seed=95, low=0.0, high=4.0)
        spec = _spec(workers[:n_workers])
        ref = run_query(Query.bipartite_join(left, right, 1.0)).neighbor_table
        assert run_query(Query.bipartite_join(left, right, 1.0),
                         backend=spec).neighbor_table.same_contents_as(ref)
        ref_range = run_query(Query.range_query(right, left, 1.0)).neighbor_table
        assert run_query(Query.range_query(right, left, 1.0),
                         backend=spec).neighbor_table \
            .same_contents_as(ref_range)
        ref_knn = run_query(Query.knn_candidates(right, 4),
                            backend="vectorized")
        dist_knn = run_query(Query.knn_candidates(right, 4), backend=spec)
        assert dist_knn.neighbor_table.same_contents_as(ref_knn.neighbor_table)

    def test_store_attached_session_probe_parity(self, workers, tmp_path):
        # Probes on a store session: workers index the *stored* order and
        # translate result ids back through the store's id directory.
        points = _dataset(3, seed_base=90)
        queries = uniform_dataset(50, 3, seed=96, low=0.0, high=4.0)
        eps = EPS_BY_DIM[3]
        store = SpatialStore.write(points, tmp_path / "store")
        ref = run_query(Query.range_query(points, queries, eps)).neighbor_table
        with EngineSession(store, backend=_spec(workers[:2])) as session:
            got = session.range_query(queries, eps)
        assert got.neighbor_table.same_contents_as(ref)

    def test_session_reuses_attachment(self, workers):
        points = _dataset(2, seed_base=60)
        eps = EPS_BY_DIM[2]
        backend = DistributedBackend(
            *[f"{h}:{p}" for h, p in workers[:2]])
        reference = run_query(Query.self_join(points, eps)).neighbor_table
        with EngineSession(points, backend=backend) as session:
            first = session.self_join(eps)
            second = session.self_join(eps)
        assert first.neighbor_table.same_contents_as(reference)
        assert second.neighbor_table.same_contents_as(reference)
        # One attach shipped the dataset; both joins ran against it.
        assert backend.stats.datasets_attached == 1
        assert backend.stats.datasets_detached == 1

    def test_stats_merge_matches_serial(self, workers):
        points = _dataset(2, seed_base=61)
        eps = EPS_BY_DIM[2]
        got = run_query(Query.self_join(points, eps),
                        backend=_spec(workers[:2]))
        ref = run_query(Query.self_join(points, eps), backend="vectorized")
        assert got.stats.result_pairs == ref.stats.result_pairs
        assert got.stats.distance_calcs == ref.stats.distance_calcs
        # The counters describe exactly the copies whose pairs were emitted.
        assert got.stats.result_pairs == got.fragments.num_pairs

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_one_executor_one_stream_across_transports(self, workers,
                                                       unicomp):
        # The inline, local-pool and TCP transports run one plan through
        # the same loop: the emitted pair stream (not just the table) and
        # the work counters equal the serial vectorized run's.
        import hashlib

        from repro.core.gridindex import GridIndex
        from repro.core.result import PairFragments
        from repro.parallel import MultiprocessBackend, ShardedBackend

        index = GridIndex.build(_dataset(3, seed_base=64), EPS_BY_DIM[3])

        def run(backend):
            sink = PairFragments(index.num_points)
            stats = backend.run_selfjoin(index, index.eps, None, sink,
                                         unicomp=unicomp)
            keys, values = sink.concatenated()
            digest = hashlib.sha256(keys.astype("<i8").tobytes()
                                    + values.astype("<i8").tobytes())
            return (digest.hexdigest(), stats.distance_calcs,
                    stats.result_pairs)

        # One kernel tier everywhere: the numba tier sums distances in
        # another order, which can move a boundary pair.
        pool = MultiprocessBackend(2, n_shards=6, kernel="numpy")
        try:
            runs = [run(backend) for backend in (
                get_backend("vectorized(kernel=numpy)"),
                ShardedBackend(6, kernel="numpy"), pool,
                DistributedBackend(*[f"{h}:{p}" for h, p in workers[:2]],
                                   n_shards=6, kernel="numpy"))]
        finally:
            pool.shutdown()
        assert runs[1:] == runs[:1] * 3, runs


class TestSubprocessPoolParity:
    """The acceptance spellings ``distributed(2)`` / ``distributed(4)``:
    integer specs spawning real ``repro-worker`` subprocess pools."""

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_selfjoin_parity_on_spawned_pool(self, n_workers):
        points = _dataset(3, seed_base=62)
        eps = EPS_BY_DIM[3]
        reference = run_query(Query.self_join(points, eps)).neighbor_table
        backend = DistributedBackend(n_workers)
        try:
            got = run_query(Query.self_join(points, eps), backend=backend)
            assert got.neighbor_table.same_contents_as(reference)
            assert len(backend.endpoints()) == n_workers
        finally:
            backend.shutdown()


class TestFaultInjection:
    def test_failed_attach_leaves_no_dataset_behind(self):
        # One live worker plus one port nobody listens on: the attach fails
        # as a whole, and the live worker must not keep the dataset (no
        # session owns it, so nothing would ever detach it).
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        points = uniform_dataset(60, 2, seed=67, low=0.0, high=4.0)
        with WorkerThread() as live:
            backend = DistributedBackend(
                f"{live.address[0]}:{live.address[1]}",
                f"127.0.0.1:{dead_port}", connect_timeout=2.0)
            with pytest.raises(WorkerTaskFailed, match="attach"):
                EngineSession(points, backend=backend).open()
            reply, _ = worker_request(live.address, {"op": "stats"})
            assert reply["datasets"] == []
            backend.shutdown()
            reply, _ = worker_request(live.address, {"op": "stats"})
            assert reply["datasets"] == []

    def test_killed_worker_redispatches_bit_identically(self):
        points = uniform_dataset(250, 3, seed=63, low=0.0, high=4.0)
        eps = 1.0
        reference = run_query(Query.self_join(points, eps)).neighbor_table
        pool = LocalWorkerPool(2)
        try:
            backend = DistributedBackend(
                *[f"{h}:{p}" for h, p in pool.addresses()],
                n_shards=8, debug_shard_sleep_ms=100.0)
            with EngineSession(points, backend=backend) as session:
                killer = threading.Timer(0.15, pool.processes[0].kill)
                killer.start()
                try:
                    got = session.self_join(eps)
                finally:
                    killer.cancel()
            assert got.neighbor_table.same_contents_as(reference)
            assert backend.stats.worker_failures >= 1
            assert backend.stats.shards_redispatched >= 1
        finally:
            pool.shutdown()

    def test_expired_deadline_cancels_remote_work(self):
        points = uniform_dataset(250, 3, seed=64, low=0.0, high=4.0)
        pool = LocalWorkerPool(2)
        try:
            backend = DistributedBackend(
                *[f"{h}:{p}" for h, p in pool.addresses()],
                n_shards=8, debug_shard_sleep_ms=400.0)
            with EngineSession(points, backend=backend) as session:
                start = time.monotonic()
                with pytest.raises(OperationCancelled) as excinfo:
                    with cancel_scope(CancellationToken.with_timeout(0.2)):
                        session.self_join(1.0)
                assert excinfo.value.is_deadline
                # The parent unwound promptly, not after all 8×400 ms shards.
                assert time.monotonic() - start < 2.0
                # And the *workers* cancelled their in-flight shards: the
                # deadline budget crossed the wire.
                deadline = time.monotonic() + 5.0
                cancelled = 0
                while time.monotonic() < deadline:
                    cancelled = 0
                    for address in pool.addresses():
                        reply, _ = worker_request(address, {"op": "stats"},
                                                  timeout=2.0)
                        cancelled += reply["stats"]["shards_cancelled"]
                    if cancelled >= 1:
                        break
                    time.sleep(0.05)
                assert cancelled >= 1
        finally:
            pool.shutdown()

    def test_straggler_is_hedged_under_static_scheduling(self):
        # One slow shard, two workers, static scheduling (no steal/resplit):
        # after hedge_after the idle worker gets a duplicate; results dedupe
        # by shard id.
        points = uniform_dataset(150, 2, seed=65, low=0.0, high=4.0)
        eps = 0.9
        reference = run_query(Query.self_join(points, eps)).neighbor_table
        with WorkerThread() as w1, WorkerThread() as w2:
            backend = DistributedBackend(
                *[f"{h}:{p}" for h, p in (w1.address, w2.address)],
                n_shards=1, hedge_after=0.05, debug_shard_sleep_ms=200.0,
                scheduling="static")
            with EngineSession(points, backend=backend) as session:
                got = session.self_join(eps)
            assert got.neighbor_table.same_contents_as(reference)
            assert backend.stats.shards_hedged >= 1

    def test_straggler_is_resplit_not_hedged_under_adaptive(self):
        # Same single-slow-shard setup under the adaptive scheduler: the
        # idle worker splits the in-flight shard at a B-order boundary and
        # races the halves, so hedging (a full duplicate) never fires.
        points = uniform_dataset(150, 2, seed=65, low=0.0, high=4.0)
        eps = 0.9
        reference = run_query(Query.self_join(points, eps)).neighbor_table
        with WorkerThread() as w1, WorkerThread() as w2:
            backend = DistributedBackend(
                *[f"{h}:{p}" for h, p in (w1.address, w2.address)],
                n_shards=1, hedge_after=0.05, debug_shard_sleep_ms=200.0)
            with EngineSession(points, backend=backend) as session:
                got = session.self_join(eps)
            assert got.neighbor_table.same_contents_as(reference)
            assert backend.stats.shards_resplit >= 1
            assert backend.stats.shards_hedged == 0

    def test_all_workers_dead_raises(self):
        points = uniform_dataset(100, 2, seed=66, low=0.0, high=4.0)
        pool = LocalWorkerPool(1)
        try:
            backend = DistributedBackend(
                *[f"{h}:{p}" for h, p in pool.addresses()],
                n_shards=4, debug_shard_sleep_ms=100.0)
            with EngineSession(points, backend=backend) as session:
                threading.Timer(0.1, pool.processes[0].kill).start()
                with pytest.raises(WorkerTaskFailed):
                    session.self_join(0.9)
        finally:
            pool.shutdown()

    def test_worker_error_is_not_retried(self, workers):
        # A deterministic worker-side error (unknown dataset) must raise
        # immediately instead of burning re-dispatch attempts.
        backend = DistributedBackend(
            *[f"{h}:{p}" for h, p in workers[:1]])
        frames = []
        sock_reply, _ = worker_request(
            workers[0], {"op": "selfjoin_shard", "dataset": "nope",
                         "shard": 0, "index_eps": 1.0, "eps": 1.0,
                         "arrays": []})
        assert sock_reply["final"] == "error"
        assert "not attached" in sock_reply["message"]
        del backend, frames


class TestWorkerServer:
    def test_ping_stats_detach_round_trip(self, workers):
        reply, _ = worker_request(workers[0], {"op": "ping"})
        assert reply == {"status": "ok", "pong": True}
        reply, _ = worker_request(workers[0], {"op": "stats"})
        assert reply["status"] == "ok"
        assert "shards_executed" in reply["stats"]
        reply, _ = worker_request(workers[0], {"op": "detach",
                                               "dataset": "ghost"})
        assert reply == {"status": "ok", "detached": False}
        reply, _ = worker_request(workers[0], {"op": "frobnicate"})
        assert reply["status"] == "error"

    def test_attach_is_idempotent_by_name(self, workers):
        points = uniform_dataset(40, 2, seed=67, low=0.0, high=4.0)
        meta, payload = protocol.pack_arrays([("points", points)])
        header = {"op": "attach", "dataset": "idem", "inner": "vectorized",
                  "arrays": meta}
        first, _ = worker_request(workers[0], header, payload)
        second, _ = worker_request(workers[0], header, payload)
        assert first["transport"] == "arrays"
        assert second["transport"] == "cached"
        worker_request(workers[0], {"op": "detach", "dataset": "idem"})

    def test_store_root_restricts_attach_paths(self, tmp_path):
        points = uniform_dataset(60, 2, seed=68, low=0.0, high=4.0)
        allowed = tmp_path / "allowed"
        allowed.mkdir()
        inside = SpatialStore.write(points, allowed / "store")
        outside = SpatialStore.write(points, tmp_path / "outside")
        with WorkerThread(store_root=str(allowed)) as worker:
            ok, _ = worker_request(worker.address,
                                   {"op": "attach", "dataset": "in",
                                    "store_path": str(inside.path)})
            assert ok["status"] == "ok"
            assert ok["transport"] == "store"
            rejected, _ = worker_request(worker.address,
                                         {"op": "attach", "dataset": "out",
                                          "store_path": str(outside.path)})
            assert rejected["status"] == "error"
            assert "store-root" in rejected["message"]
            # The rejected name must not have been attached.
            stats, _ = worker_request(worker.address, {"op": "stats"})
            assert stats["datasets"] == ["in"]

    def test_malformed_frame_drops_connection(self, workers):
        import socket as socketlib

        sock = socketlib.create_connection(workers[0], timeout=5.0)
        try:
            sock.sendall(b"EVIL" + b"\x00" * 12)
            sock.settimeout(5.0)
            assert protocol.read_frame_sock(sock) is None  # worker hung up
        finally:
            sock.close()


class TestRegistryAndSpec:
    def test_distributed_is_registered(self):
        assert "distributed" in list_backends()
        # None means available (a string is the missing-dependency message).
        assert backend_availability()["distributed"] is None

    def test_address_spec_parses_through_registry(self, workers):
        backend = get_backend(_spec(workers[:2]))
        assert isinstance(backend, DistributedBackend)
        assert backend.endpoints() == list(workers[:2])

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="not both"):
            DistributedBackend(2, "127.0.0.1:9000")
        with pytest.raises(ValueError, match="worker count"):
            DistributedBackend(0)
        with pytest.raises(ValueError, match="host:port"):
            DistributedBackend("nonsense")

    def test_env_var_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTRIBUTED_WORKERS",
                           "127.0.0.1:9000, 127.0.0.1:9001")
        backend = DistributedBackend()
        assert backend._addresses == [("127.0.0.1", 9000),
                                      ("127.0.0.1", 9001)]
        monkeypatch.setenv("REPRO_DISTRIBUTED_WORKERS", "3")
        assert DistributedBackend()._n_local == 3


class TestServiceIntegration:
    def test_stats_endpoint_reports_distributed_counters(self, workers):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread

        points = uniform_dataset(120, 2, seed=69, low=0.0, high=4.0)
        with ServerThread() as server:
            client = ServiceClient(server.host, server.port)
            try:
                client.register("pts", points, backend=_spec(workers[:2]))
                client.self_join("pts", 0.9)
                stats = client.stats()
                dist = stats["distributed"]["pts"]
                assert dist["workers_alive"] == 2
                assert dist["workers_total"] == 2
                assert dist["shards_dispatched"] >= 1
                for counter in ("shards_redispatched", "shards_hedged",
                                "hedge_wasted_shards", "hedge_wasted_pairs",
                                "worker_failures"):
                    assert counter in dist
                assert all(worker["alive"] for worker in dist["workers"])
            finally:
                client.close()


class TestWorkerCLI:
    def test_parser_defaults(self):
        from repro.distributed.__main__ import build_parser

        args = build_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.store_root is None
        args = build_parser().parse_args(["--store-root", "/data",
                                          "--port", "7001"])
        assert args.store_root == "/data"
        assert args.port == 7001

    def test_spawned_worker_honors_store_root(self, tmp_path):
        points = uniform_dataset(50, 2, seed=71, low=0.0, high=4.0)
        outside = SpatialStore.write(points, tmp_path / "outside")
        allowed = tmp_path / "allowed"
        allowed.mkdir()
        pool = LocalWorkerPool(1, store_root=str(allowed))
        try:
            reply, _ = worker_request(pool.addresses()[0],
                                      {"op": "attach", "dataset": "out",
                                       "store_path": str(outside.path)})
            assert reply["status"] == "error"
            assert "store-root" in reply["message"]
        finally:
            pool.shutdown()
