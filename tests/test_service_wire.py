"""How the service's answers are grouped into socket writes and reads.

The frames of an answer are fixed by the protocol; these tests pin how
they travel: a point answer leaves the server in one write, a long stream
keeps its chunk order, the blocking reader decodes any split of the byte
stream, and a failed work unit reaches the ``repro.service`` logger.
Everything is driven without sleeps.
"""

from __future__ import annotations

import asyncio
import io
import logging
import socket

import numpy as np
import pytest

from repro.core.result import NeighborTable
from repro.engine import Query, run_query
from repro.service import QueryService, ServerThread, ServiceClient, protocol
from repro.service import server as server_module
from repro.service.scheduler import plan_tick, run_work_unit
from repro.service.server import ChunkStream, LoopInbox

RNG = np.random.default_rng(7)
POINTS = RNG.random((600, 3))
EPS = 0.12


def _frames(data: bytes):
    """Decode every frame of a byte string."""
    buf = io.BytesIO(data)
    frames = []
    while (frame := protocol.read_frame(buf.read)) is not None:
        frames.append(frame)
    return frames


class CountingWriter:
    """A stream writer that records each ``write``."""

    def __init__(self) -> None:
        self.writes = []

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        pass


def _fused_answers(queries):
    """Stream a fused tick of single-point range queries into one counting
    writer each; returns the writers."""
    async def scenario():
        service = QueryService()
        service._loop = asyncio.get_running_loop()
        service._inbox = LoopInbox(service._loop)
        service.catalog.register("d", data=POINTS)
        try:
            reqs = []
            for query in queries:
                meta, payload = protocol.pack_arrays([("points", query[None])])
                req = service._build_request(
                    {"op": "range_query", "dataset": "d", "eps": EPS,
                     "arrays": meta}, payload)
                req.future = service._loop.create_future()
                req.stream = ChunkStream(service._inbox)
                reqs.append(req)
            (unit,) = plan_tick(reqs)
            assert unit.kind == "fused_range"
            # Inline on the loop thread: every post and resolve waits in
            # the inbox until the first stream awaits.
            run_work_unit(unit, service.catalog)
            writers = [CountingWriter() for _ in reqs]
            for writer, req in zip(writers, reqs):
                await service._stream_response(writer, req)
            return writers
        finally:
            service.catalog.close_all()

    return asyncio.run(scenario())


class TestOneWritePerAnswer:
    def test_a_fused_point_answer_is_one_write(self):
        queries = POINTS[[3, 11]] + 0.01
        writers = _fused_answers(queries)
        for i, writer in enumerate(writers):
            assert len(writer.writes) == 1
            (opener, _), (chunk, body), (end, tail) = _frames(writer.writes[0])
            expected = run_query(Query.range_query(
                POINTS, queries[i:i + 1], EPS)).neighbor_table.neighbors_of(0)
            pairs = len(expected)
            assert pairs > 0
            assert opener == {"status": "ok", "streaming": True}
            arrays = protocol.unpack_arrays(chunk["arrays"], body)
            assert chunk == {"status": "chunk", "seq": 0, "pairs": pairs,
                             "arrays": chunk["arrays"]}
            assert [m["name"] for m in chunk["arrays"]] == ["keys", "values"]
            np.testing.assert_array_equal(arrays["keys"], np.zeros(pairs))
            np.testing.assert_array_equal(np.sort(arrays["values"]),
                                          np.sort(expected))
            assert end == {"status": "end", "final": "ok", "message": "",
                           "chunks": 1, "num_rows": 1, "total_pairs": pairs,
                           "fused": True, "fused_batch_size": 2}
            assert tail == b""

    def test_an_answer_without_pairs_is_opener_and_end_in_one_write(self):
        far = np.array([[5.0, 5.0, 5.0], [6.0, 6.0, 6.0]])
        for writer in _fused_answers(far):
            assert len(writer.writes) == 1
            headers = [header for header, _ in _frames(writer.writes[0])]
            assert headers == [
                {"status": "ok", "streaming": True},
                {"status": "end", "final": "ok", "message": "", "chunks": 0,
                 "num_rows": 1, "total_pairs": 0, "fused": True,
                 "fused_batch_size": 2}]


class TestLongStreams:
    def test_a_small_chunk_self_join_keeps_its_chunk_order(self):
        # Many more chunks than the stream's window: the producer waits on
        # the writes, and the chunks still leave in seq order.
        chunk_pairs = 97
        with ServerThread(tick_seconds=0.0, chunk_pairs=chunk_pairs) as srv:
            with ServiceClient(srv.host, srv.port) as client:
                client.register("d", POINTS)
            with socket.create_connection(srv.address, timeout=30) as sock:
                sock.sendall(protocol.encode_frame(
                    {"op": "self_join", "dataset": "d", "eps": EPS}))
                frames = []
                while not frames or frames[-1][0]["status"] != "end":
                    frames.append(protocol.read_frame_sock(sock))
        (opener, _), *chunks, (end, _) = frames
        assert opener == {"status": "ok", "streaming": True}
        assert [h["status"] for h, _ in chunks] == ["chunk"] * len(chunks)
        assert [h["seq"] for h, _ in chunks] == list(range(len(chunks)))
        assert len(chunks) > 8
        assert all(h["pairs"] <= chunk_pairs for h, _ in chunks)
        assert end["final"] == "ok" and end["chunks"] == len(chunks)
        keys, values = [], []
        for header, body in chunks:
            arrays = protocol.unpack_arrays(header["arrays"], body)
            keys.append(arrays["keys"])
            values.append(arrays["values"])
        table = NeighborTable.from_pairs(np.concatenate(keys),
                                         np.concatenate(values),
                                         end["num_rows"])
        reference = run_query(Query.self_join(POINTS, EPS)).neighbor_table
        assert table.same_contents_as(reference)
        assert end["total_pairs"] == reference.num_pairs


class ScriptedSocket:
    """A blocking socket whose ``recv`` hands out scripted pieces."""

    def __init__(self, pieces) -> None:
        self.pieces = [bytes(p) for p in pieces]
        self.recvs = 0

    def recv(self, n: int) -> bytes:
        self.recvs += 1
        if not self.pieces:
            return b""
        piece = self.pieces.pop(0)
        if len(piece) > n:
            self.pieces.insert(0, piece[n:])
            piece = piece[:n]
        return piece


FRAMES = [
    ({"op": "ping"}, b""),
    ({"status": "chunk", "seq": 0}, bytes(range(256)) * 3),
    ({"status": "end", "final": "ok", "message": "é"}, b"\x00\x01"),
]
STREAM = b"".join(protocol.encode_frame(h, p) for h, p in FRAMES)


def _read_all(sock):
    got = []
    while (frame := protocol.read_frame_sock(sock)) is not None:
        got.append(frame)
    return got


class TestBufferedReader:
    def test_one_byte_pieces(self):
        sock = ScriptedSocket(STREAM[i:i + 1] for i in range(len(STREAM)))
        assert _read_all(sock) == FRAMES

    def test_several_frames_in_one_recv(self):
        sock = ScriptedSocket([STREAM])
        assert protocol.read_frame_sock(sock) == FRAMES[0]
        assert sock.recvs == 1
        assert _read_all(sock) == FRAMES[1:]
        assert sock.recvs == 2      # the second one read the EOF

    def test_pieces_across_frame_boundaries(self):
        cuts = [0, 5, 30, 31, len(STREAM) - 40, len(STREAM)]
        sock = ScriptedSocket(STREAM[a:b] for a, b in zip(cuts, cuts[1:]))
        assert _read_all(sock) == FRAMES

    def test_a_large_body_arrives_whole(self):
        payload = np.arange(100_000, dtype=np.int64).tobytes()
        frame = protocol.encode_frame({"status": "chunk"}, payload)
        sock = ScriptedSocket([frame[:100], frame[100:70_000], frame[70_000:]
                               + protocol.encode_frame({"status": "end"})])
        assert _read_all(sock) == [({"status": "chunk"}, payload),
                                   ({"status": "end"}, b"")]

    @pytest.mark.parametrize("cut,what", [
        (len(protocol.encode_frame(*FRAMES[0])) + 7, "prefix"),
        (len(STREAM) - 1, "body"),
    ])
    def test_a_truncated_frame_raises(self, cut, what):
        sock = ScriptedSocket([STREAM[:cut]])
        assert protocol.read_frame_sock(sock) == FRAMES[0]
        with pytest.raises(protocol.ProtocolError,
                           match=f"truncated frame {what}"):
            _read_all(sock)


class TestUnitFailuresAreLogged:
    def test_an_exception_escaping_a_unit_is_logged(self, monkeypatch,
                                                     caplog):
        def failing(unit, catalog, chunk_pairs):
            run_work_unit(unit, catalog, chunk_pairs)
            raise RuntimeError("resolve failed")

        monkeypatch.setattr(server_module, "run_work_unit", failing)
        with caplog.at_level(logging.ERROR, logger="repro.service"):
            # The stop joins the pool, so the callback has run by then.
            with ServerThread(tick_seconds=0.0) as srv:
                with ServiceClient(srv.host, srv.port) as client:
                    assert client.sleep(0.0)["status"] == "ok"
        (record,) = [r for r in caplog.records if r.name == "repro.service"]
        assert record.levelno == logging.ERROR
        assert "work unit failed" in record.getMessage()
        assert isinstance(record.exc_info[1], RuntimeError)
        assert str(record.exc_info[1]) == "resolve failed"
