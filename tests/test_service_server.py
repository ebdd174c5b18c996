"""End-to-end service tests over real sockets (ServerThread + ServiceClient)."""

import asyncio
import logging
import threading

import numpy as np
import pytest

from repro.apps.knn import knn_search
from repro.data.store import SpatialStore
from repro.distributed import WorkerServer
from repro.engine import run_query
from repro.engine.query import Query
from repro.service import (
    QueryService,
    ServerThread,
    ServiceClient,
    ServiceError,
    ServiceRejected,
    ServiceTimeout,
)

RNG = np.random.default_rng(42)
POINTS = RNG.random((1500, 3))


@pytest.fixture(scope="module")
def server():
    with ServerThread(tick_seconds=0.005) as srv:
        with ServiceClient(srv.host, srv.port) as client:
            client.register("d", POINTS)
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient(server.host, server.port) as c:
        yield c


class TestControlPlane:
    def test_ping(self, client):
        assert client.ping()

    def test_stats_shape(self, client):
        stats = client.stats()
        assert "backend_availability" in stats
        assert "kernel_tier_availability" in stats
        assert stats["max_pending"] > 0
        names = [d["name"] for d in stats["datasets"]]
        assert "d" in names

    def test_register_evict_roundtrip(self, client):
        info = client.register("tmp", RNG.random((50, 2)))
        assert info["n_points"] == 50
        assert any(d["name"] == "tmp" for d in client.list_datasets())
        client.evict("tmp")
        assert all(d["name"] != "tmp" for d in client.list_datasets())

    def test_duplicate_register_is_structured_error(self, client):
        with pytest.raises(ServiceError, match="already registered"):
            client.register("d", RNG.random((10, 3)))
        assert client.ping()  # connection survives the error

    def test_unknown_dataset_is_structured_error(self, client):
        with pytest.raises(ServiceError, match="no dataset"):
            client.range_query("nope", POINTS[:1], 0.1)
        assert client.ping()

    def test_unknown_op_is_structured_error(self, client):
        from repro.service import protocol
        client._send({"op": "frobnicate"})
        resp, _ = client._recv()
        assert resp["status"] == protocol.STATUS_ERROR
        assert "unknown op" in resp["message"]


class TestQueryParity:
    def test_range_query_matches_direct_engine(self, client):
        queries = RNG.random((20, 3))
        got = client.range_query("d", queries, 0.12)
        ref = run_query(Query.range_query(POINTS, queries, 0.12)).neighbor_table
        assert np.array_equal(got.offsets, ref.offsets)
        assert np.array_equal(got.neighbors, ref.neighbors)

    def test_knn_matches_direct_engine(self, client):
        queries = RNG.random((8, 3))
        indices, distances = client.knn("d", queries, 5)
        ref = knn_search(POINTS, 5, queries=queries)
        assert np.array_equal(indices, ref.indices)
        assert np.array_equal(distances, ref.distances)

    def test_self_join_matches_direct_engine(self, client):
        got = client.self_join("d", 0.08)
        ref = run_query(Query.self_join(POINTS, 0.08)).neighbor_table
        assert np.array_equal(got.offsets, ref.offsets)
        assert np.array_equal(got.neighbors, ref.neighbors)

    def test_self_join_without_self_pairs(self, client):
        got = client.self_join("d", 0.08, include_self=False)
        ref = run_query(Query.self_join(
            POINTS, 0.08, include_self=False)).neighbor_table
        assert np.array_equal(got.offsets, ref.offsets)
        assert np.array_equal(got.neighbors, ref.neighbors)

    def test_bipartite_join_matches_direct_engine(self, client):
        left = RNG.random((60, 3))
        got = client.bipartite_join("d", left, 0.1)
        ref = run_query(Query.bipartite_join(left, POINTS, 0.1)).neighbor_table
        assert np.array_equal(got.offsets, ref.offsets)
        assert np.array_equal(got.neighbors, ref.neighbors)


class TestConcurrencyAndFusion:
    def test_32_concurrent_mixed_clients_bit_identical(self, server):
        # The issue's headline acceptance test: 32 concurrent clients, a mix
        # of single-point range and kNN queries, all answers bit-identical
        # to direct engine runs — and at least one tick fused >= 4 queries.
        n_clients = 32
        queries = RNG.random((n_clients, 3))
        eps, k = 0.15, 4
        ref_range = run_query(Query.range_query(POINTS, queries,
                                                eps)).neighbor_table
        ref_knn = knn_search(POINTS, k, queries=queries)
        results = {}
        barrier = threading.Barrier(n_clients)

        def worker(i):
            with ServiceClient(server.host, server.port) as c:
                barrier.wait()  # release the burst together so ticks fuse
                if i % 2 == 0:
                    results[i] = ("range",
                                  c.range_query("d", queries[i:i + 1], eps))
                else:
                    results[i] = ("knn", c.knn("d", queries[i:i + 1], k))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == n_clients
        for i, (kind, got) in results.items():
            if kind == "range":
                # Per-row neighbor lists are sorted in both tables, so the
                # single-row result must equal the reference row exactly.
                lo, hi = ref_range.offsets[i], ref_range.offsets[i + 1]
                assert np.array_equal(got.neighbors,
                                      ref_range.neighbors[lo:hi])
                assert got.offsets[1] - got.offsets[0] == hi - lo
            else:
                indices, distances = got
                assert np.array_equal(indices[0], ref_knn.indices[i])
                assert np.array_equal(distances[0], ref_knn.distances[i])
        with ServiceClient(server.host, server.port) as c:
            service_stats = c.stats()["service"]
        assert service_stats["fusion_batches"] >= 1
        assert service_stats["max_fused_in_tick"] >= 4

    def test_fusion_ratio_reported(self, server):
        with ServiceClient(server.host, server.port) as c:
            stats = c.stats()["service"]
        assert 0.0 <= stats["fusion_ratio"] <= 1.0


class TestDeadlinesAndBackpressure:
    def test_past_deadline_returns_structured_timeout(self, client):
        with pytest.raises(ServiceTimeout):
            client.self_join("d", 0.2, timeout_ms=0)
        # The server survives: same connection keeps answering.
        assert client.ping()
        got = client.range_query("d", POINTS[:1], 0.1)
        assert got.num_points == 1

    def test_full_queue_returns_rejected(self):
        with ServerThread(tick_seconds=0.05, max_pending=1,
                          workers=1) as srv:
            clients = [ServiceClient(srv.host, srv.port) for _ in range(8)]
            outcomes = []
            lock = threading.Lock()

            def sleeper(c):
                try:
                    c.sleep(0.4)
                    note = "ok"
                except ServiceRejected:
                    note = "rejected"
                with lock:
                    outcomes.append(note)

            threads = [threading.Thread(target=sleeper, args=(c,))
                       for c in clients]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            try:
                assert "rejected" in outcomes
                assert "ok" in outcomes  # overload rejected, service alive
                with ServiceClient(srv.host, srv.port) as probe:
                    assert probe.ping()
            finally:
                for c in clients:
                    c.close()


class TestStoreBackedDatasets:
    def test_streamed_store_self_join_matches_memory(self, tmp_path, server):
        pts = RNG.random((1200, 2))
        path = tmp_path / "store.rqs"
        SpatialStore.write(pts, path, cell_width=0.1)
        ref = run_query(Query.self_join(pts, 0.1)).neighbor_table
        with ServiceClient(server.host, server.port) as c:
            info = c.register("stored", store_path=str(path),
                              backend="sharded(4)")
            assert info["streams_self_joins"]
            got = c.self_join("stored", 0.1)
            c.evict("stored")
        assert np.array_equal(got.offsets, ref.offsets)
        assert np.array_equal(got.neighbors, ref.neighbors)


class TestProtocolHardening:
    def test_oversized_frame_rejected_with_structured_error(self, server):
        import socket
        from repro.service import protocol
        with ServerThread(tick_seconds=0.005,
                          max_payload=1024) as srv:
            with socket.create_connection((srv.host, srv.port),
                                          timeout=10) as sock:
                big = np.zeros(4096, dtype=np.float64)
                meta, payload = protocol.pack_arrays([("points", big)])
                sock.sendall(protocol.encode_frame(
                    {"op": "register", "name": "big", "arrays": meta},
                    payload))
                resp = protocol.read_frame_sock(sock)
                assert resp is not None
                assert resp[0]["status"] == protocol.STATUS_ERROR
                assert "payload length" in resp[0]["message"]


class _BlockingCloseWriter:
    """A stream writer whose ``wait_closed`` blocks until released."""

    def __init__(self) -> None:
        self.closing = asyncio.Event()
        self.release = asyncio.Event()

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        self.closing.set()
        await self.release.wait()


class TestConnectionShutdown:
    @pytest.mark.parametrize("make_server", [QueryService, WorkerServer],
                             ids=["service", "worker"])
    def test_cancel_while_closing_is_swallowed(self, make_server, caplog):
        """Shutdown cancelling a connection task during its final
        ``wait_closed`` must end the task quietly: the stream protocol's
        done callback would log an escaping ``CancelledError``."""
        server = make_server()

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            writer = _BlockingCloseWriter()
            task = asyncio.get_running_loop().create_task(
                server._handle_connection(reader, writer))
            # What asyncio.StreamReaderProtocol's done callback does.
            task.add_done_callback(lambda done: done.exception())
            await writer.closing.wait()
            task.cancel()
            await asyncio.wait([task])
            return task

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            task = asyncio.run(scenario())
        assert not task.cancelled()
        assert task.exception() is None
        assert [r for r in caplog.records if r.name == "asyncio"] == []
