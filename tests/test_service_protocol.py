"""Frame protocol round-trips and rejection of malformed frames.

The distributed worker channel (:mod:`repro.distributed`) reuses this codec
verbatim, so the adversarial-transport class below is load-bearing for two
subsystems: torn frames at every byte boundary, oversized declared lengths
rejected before any body read, and truncated-payload EOF.
"""

import asyncio
import io
import socket
import threading

import numpy as np
import pytest

from repro.service import protocol


def _read_from_bytes(data: bytes, max_payload=protocol.DEFAULT_MAX_PAYLOAD_BYTES):
    buf = io.BytesIO(data)
    return protocol.read_frame(buf.read, max_payload)


class TestFrameRoundTrip:
    def test_header_and_payload_round_trip(self):
        header = {"op": "range_query", "dataset": "stars", "eps": 0.25}
        payload = b"\x00\x01\x02" * 100
        frame = protocol.encode_frame(header, payload)
        got_header, got_payload = _read_from_bytes(frame)
        assert got_header == header
        assert got_payload == payload

    def test_empty_payload_round_trip(self):
        frame = protocol.encode_frame({"op": "ping"})
        header, payload = _read_from_bytes(frame)
        assert header == {"op": "ping"}
        assert payload == b""

    def test_unicode_header_round_trip(self):
        header = {"op": "register", "name": "données-ß"}
        got_header, _ = _read_from_bytes(protocol.encode_frame(header))
        assert got_header == header

    def test_multiple_frames_in_sequence(self):
        data = protocol.encode_frame({"n": 1}) + protocol.encode_frame(
            {"n": 2}, b"xy")
        buf = io.BytesIO(data)
        first = protocol.read_frame(buf.read)
        second = protocol.read_frame(buf.read)
        third = protocol.read_frame(buf.read)
        assert first == ({"n": 1}, b"")
        assert second == ({"n": 2}, b"xy")
        assert third is None  # clean EOF between frames

    def test_eof_between_frames_returns_none(self):
        assert _read_from_bytes(b"") is None


class TestMalformedFrames:
    def test_truncated_prefix_rejected(self):
        frame = protocol.encode_frame({"op": "ping"})
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            _read_from_bytes(frame[:5])

    def test_truncated_body_rejected(self):
        frame = protocol.encode_frame({"op": "x"}, b"payload-bytes")
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            _read_from_bytes(frame[:-4])

    def test_bad_magic_rejected(self):
        frame = bytearray(protocol.encode_frame({"op": "ping"}))
        frame[:4] = b"EVIL"
        with pytest.raises(protocol.ProtocolError, match="magic"):
            _read_from_bytes(bytes(frame))

    def test_oversized_payload_rejected_before_read(self):
        # Declare a huge payload without shipping it: the bound check must
        # fire on the declared length, not after buffering.
        frame = protocol.encode_frame({"op": "x"}, b"abcdef")
        with pytest.raises(protocol.ProtocolError, match="payload length"):
            _read_from_bytes(frame, max_payload=3)

    def test_oversized_header_rejected(self):
        prefix = protocol._PREFIX.pack(protocol.MAGIC,
                                       protocol.MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(protocol.ProtocolError, match="header length"):
            _read_from_bytes(prefix)

    def test_non_json_header_rejected(self):
        head = b"\xff\xfenot json"
        frame = protocol._PREFIX.pack(protocol.MAGIC, len(head), 0) + head
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            _read_from_bytes(frame)

    def test_non_object_header_rejected(self):
        head = b"[1, 2, 3]"
        frame = protocol._PREFIX.pack(protocol.MAGIC, len(head), 0) + head
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            _read_from_bytes(frame)


class _RecordingReadExact:
    """A ``read_exact`` callable that records every requested size."""

    def __init__(self, data: bytes) -> None:
        self._buf = io.BytesIO(data)
        self.requested = []

    def __call__(self, n: int) -> bytes:
        self.requested.append(n)
        return self._buf.read(n)


class TestAdversarialTransport:
    """Torn, truncated and oversized frames as a hostile peer would send them."""

    FRAME = protocol.encode_frame({"op": "selfjoin_shard", "shard": 3},
                                  b"\x07\x11" * 9)

    def test_truncation_at_every_byte_boundary(self):
        # EOF after i bytes, for every i: byte 0 is the only clean EOF;
        # anywhere else inside the frame must raise, never block or return
        # a partial frame.
        frame = self.FRAME
        assert _read_from_bytes(frame[:0]) is None
        for i in range(1, len(frame)):
            with pytest.raises(protocol.ProtocolError, match="truncated"):
                _read_from_bytes(frame[:i])

    def test_two_segment_delivery_at_every_byte_boundary(self):
        # A frame torn into two socket segments at every boundary must
        # decode identically: the socket reader has to keep reading across
        # the short first recv.
        frame = self.FRAME
        expected = _read_from_bytes(frame)
        for i in range(1, len(frame)):
            left, right = socket.socketpair()
            try:
                sender = threading.Thread(
                    target=lambda i=i: (left.sendall(frame[:i]),
                                        left.sendall(frame[i:]),
                                        left.close()))
                sender.start()
                assert protocol.read_frame_sock(right) == expected
                sender.join(timeout=5.0)
            finally:
                right.close()

    def test_byte_dripped_socket_delivery(self):
        # Worst-case fragmentation: every byte its own segment.
        frame = self.FRAME
        left, right = socket.socketpair()
        try:
            def drip():
                for offset in range(len(frame)):
                    left.sendall(frame[offset:offset + 1])
                left.close()

            sender = threading.Thread(target=drip)
            sender.start()
            assert protocol.read_frame_sock(right) == _read_from_bytes(frame)
            sender.join(timeout=5.0)
        finally:
            right.close()

    def test_socket_eof_mid_frame_raises(self):
        frame = self.FRAME
        left, right = socket.socketpair()
        try:
            left.sendall(frame[:len(frame) - 3])
            left.close()
            with pytest.raises(protocol.ProtocolError, match="truncated"):
                protocol.read_frame_sock(right)
        finally:
            right.close()

    def test_oversized_header_rejected_before_body_read(self):
        # The declared-length checks must fire on the 16-byte prefix alone:
        # no read for the (hostile, huge) body may ever be issued.
        prefix = protocol._PREFIX.pack(protocol.MAGIC,
                                       protocol.MAX_HEADER_BYTES + 1, 0)
        reader = _RecordingReadExact(prefix + b"\x00" * 64)
        with pytest.raises(protocol.ProtocolError, match="header length"):
            protocol.read_frame(reader)
        assert reader.requested == [protocol.PREFIX_BYTES]

    def test_oversized_payload_rejected_before_body_read(self):
        prefix = protocol._PREFIX.pack(protocol.MAGIC, 2, 1 << 40)
        reader = _RecordingReadExact(prefix + b"{}")
        with pytest.raises(protocol.ProtocolError, match="payload length"):
            protocol.read_frame(reader)
        assert reader.requested == [protocol.PREFIX_BYTES]

    def test_truncated_payload_eof(self):
        # Complete prefix + complete header, payload cut short at EOF.
        frame = protocol.encode_frame({"op": "x"}, b"A" * 64)
        for cut in (1, 32, 63):
            with pytest.raises(protocol.ProtocolError, match="truncated"):
                _read_from_bytes(frame[:len(frame) - cut])

    def test_async_reader_torn_at_every_byte_boundary(self):
        frame = self.FRAME
        expected = _read_from_bytes(frame)

        async def decode_split(i):
            reader = asyncio.StreamReader()
            reader.feed_data(frame[:i])
            reader.feed_data(frame[i:])
            reader.feed_eof()
            return await protocol.read_frame_async(reader)

        async def run_all():
            for i in range(1, len(frame)):
                assert await decode_split(i) == expected

        asyncio.run(run_all())

    def test_async_reader_truncation(self):
        frame = self.FRAME

        async def read_partial(data):
            reader = asyncio.StreamReader()
            if data:
                reader.feed_data(data)
            reader.feed_eof()
            return await protocol.read_frame_async(reader)

        async def run_all():
            assert await read_partial(b"") is None
            for i in (1, protocol.PREFIX_BYTES - 1, protocol.PREFIX_BYTES,
                      len(frame) - 1):
                with pytest.raises(protocol.ProtocolError, match="truncated"):
                    await read_partial(frame[:i])

        asyncio.run(run_all())


class TestArrayCodec:
    def test_named_arrays_round_trip(self):
        arrays = [
            ("points", np.arange(12, dtype=np.float64).reshape(4, 3)),
            ("ids", np.array([7, 8, 9], dtype=np.int64)),
            ("flags", np.array([True, False])),
        ]
        meta, payload = protocol.pack_arrays(arrays)
        got = protocol.unpack_arrays(meta, payload)
        for name, arr in arrays:
            assert got[name].dtype == arr.dtype
            assert np.array_equal(got[name], arr)

    def test_empty_array_round_trip(self):
        meta, payload = protocol.pack_arrays(
            [("keys", np.empty(0, dtype=np.int64))])
        got = protocol.unpack_arrays(meta, payload)
        assert got["keys"].shape == (0,)

    def test_non_contiguous_array_round_trips(self):
        arr = np.arange(20, dtype=np.float64).reshape(4, 5)[:, ::2]
        meta, payload = protocol.pack_arrays([("a", arr)])
        assert np.array_equal(protocol.unpack_arrays(meta, payload)["a"], arr)

    @pytest.mark.parametrize("dtype", [">f8", ">i4"])
    def test_non_native_byte_order_round_trips(self, dtype):
        arr = np.arange(-3, 5, dtype=dtype).reshape(2, 4)
        meta, payload = protocol.pack_arrays([("a", arr)])
        got = protocol.unpack_arrays(meta, payload)["a"]
        assert got.dtype == arr.dtype.newbyteorder("=") and got.dtype.isnative
        assert np.array_equal(got, arr)
        assert got.tolist() == arr.tolist()

    def test_object_dtype_rejected_on_pack(self):
        with pytest.raises(protocol.ProtocolError, match="not wire-encodable"):
            protocol.pack_arrays([("evil", np.array(["a", "b"], dtype=object))])

    def test_disallowed_dtype_rejected_on_unpack(self):
        meta = [{"name": "x", "dtype": "object", "shape": [1], "nbytes": 8}]
        with pytest.raises(protocol.ProtocolError, match="not wire-decodable"):
            protocol.unpack_arrays(meta, b"\x00" * 8)

    def test_shape_nbytes_mismatch_rejected(self):
        meta, payload = protocol.pack_arrays(
            [("a", np.zeros(4, dtype=np.float64))])
        meta[0]["shape"] = [5]
        with pytest.raises(protocol.ProtocolError, match="imply"):
            protocol.unpack_arrays(meta, payload)

    def test_short_payload_rejected(self):
        meta, payload = protocol.pack_arrays(
            [("a", np.zeros(4, dtype=np.float64))])
        with pytest.raises(protocol.ProtocolError, match="too short"):
            protocol.unpack_arrays(meta, payload[:-1])

    def test_unclaimed_trailing_bytes_rejected(self):
        meta, payload = protocol.pack_arrays(
            [("a", np.zeros(4, dtype=np.float64))])
        with pytest.raises(protocol.ProtocolError, match="unclaimed"):
            protocol.unpack_arrays(meta, payload + b"\x00")

    def test_negative_dimension_rejected(self):
        meta = [{"name": "x", "dtype": "int64", "shape": [-1], "nbytes": 8}]
        with pytest.raises(protocol.ProtocolError, match="negative"):
            protocol.unpack_arrays(meta, b"\x00" * 8)

    @pytest.mark.parametrize("dtype", protocol.WIRE_DTYPES)
    def test_every_wire_dtype_round_trips_under_its_name(self, dtype):
        arr = np.arange(6).reshape(2, 3).astype(dtype)
        meta, payload = protocol.pack_arrays([("a", arr)])
        assert meta == [{"name": "a", "dtype": dtype, "shape": [2, 3],
                         "nbytes": arr.nbytes}]
        got = protocol.unpack_arrays(meta, payload)["a"]
        assert got.dtype == arr.dtype and np.array_equal(got, arr)

    def test_a_shape_whose_size_overflows_int64_is_rejected(self):
        # 2**32 * 2**32 elements wrap to 0 in int64 and would match the
        # declared 0 bytes; the size must be computed without wrapping.
        meta = [{"name": "x", "dtype": "int64", "shape": [2 ** 32, 2 ** 32],
                 "nbytes": 0}]
        with pytest.raises(protocol.ProtocolError, match="imply"):
            protocol.unpack_arrays(meta, b"")

    def test_unpacked_arrays_are_writable_copies(self):
        meta, payload = protocol.pack_arrays(
            [("a", np.arange(3, dtype=np.int64))])
        got = protocol.unpack_arrays(meta, payload)["a"]
        got[0] = 99  # frombuffer views are read-only; the codec must copy
        assert got[0] == 99
