"""Wire protocol of the query service: length-prefixed JSON + binary frames.

One frame is::

    magic   4 bytes   b"RQS1"
    hlen    uint32    header length in bytes (big-endian)
    plen    uint64    payload length in bytes (big-endian)
    header  hlen      UTF-8 JSON object
    payload plen      raw bytes (numpy array data, see the array codec)

The header carries everything small and structured (op name, dataset name,
ε, deadlines, statuses, array metadata); the payload carries the bulk array
bytes *uninterpreted*, so a query's points and a result's id arrays cross
the socket without any per-element encoding.  Arrays are described in the
header (``pack_arrays`` → ``{"arrays": [{name, dtype, shape}, ...]}``) and
concatenated into the payload in metadata order.

Large results do not travel as one frame: the server emits a ``status:
"chunk"`` frame per bounded slice of result pairs straight off the per-shard
sink path, terminated by a ``status: "end"`` frame carrying the final status
and totals (see :mod:`repro.service.server`).  The frame reader enforces
hard size bounds — a truncated stream raises :class:`ProtocolError` instead
of blocking forever, and an oversized declared length is rejected *before*
any allocation, so a malformed client cannot make the server buffer
unboundedly.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import struct
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

MAGIC = b"RQS1"
_PREFIX = struct.Struct(">4sIQ")
PREFIX_BYTES = _PREFIX.size

#: Hard bound on the JSON header (it only carries metadata).
MAX_HEADER_BYTES = 1 << 20
#: Default bound on one frame's binary payload (points / result chunks).
DEFAULT_MAX_PAYLOAD_BYTES = 1 << 28

#: Response statuses (terminal unless noted).
STATUS_OK = "ok"            # single-frame success, or stream opener: sent
                            # with the first chunk (or the end frame)
STATUS_CHUNK = "chunk"      # non-terminal: one slice of a streamed result
STATUS_END = "end"          # stream terminator; carries the final status
STATUS_REJECTED = "rejected"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


class ProtocolError(ValueError):
    """A malformed, truncated or oversized frame."""


# --------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------
def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame (header JSON + raw payload)."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header of {len(head)} bytes exceeds the "
                            f"{MAX_HEADER_BYTES}-byte bound")
    return _PREFIX.pack(MAGIC, len(head), len(payload)) + head + payload


def _parse_prefix(prefix: bytes,
                  max_payload: int) -> Tuple[int, int]:
    magic, hlen, plen = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if hlen > MAX_HEADER_BYTES:
        raise ProtocolError(f"declared header length {hlen} exceeds the "
                            f"{MAX_HEADER_BYTES}-byte bound")
    if plen > max_payload:
        raise ProtocolError(f"declared payload length {plen} exceeds the "
                            f"{max_payload}-byte bound")
    return hlen, plen


def _decode_header(head: bytes) -> dict:
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header


def read_frame(read_exact: Callable[[int], bytes],
               max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES,
               ) -> Optional[Tuple[dict, bytes]]:
    """Read one frame through a ``read_exact(n) -> bytes`` callable.

    ``read_exact`` may return fewer bytes only at end of stream.  A clean
    EOF *between* frames returns ``None``; EOF inside a frame raises
    :class:`ProtocolError` ("truncated"), as do bad magic and oversized
    declared lengths (checked before any payload allocation).
    """
    prefix = read_exact(PREFIX_BYTES)
    if len(prefix) == 0:
        return None
    if len(prefix) < PREFIX_BYTES:
        raise ProtocolError(f"truncated frame prefix ({len(prefix)} of "
                            f"{PREFIX_BYTES} bytes)")
    hlen, plen = _parse_prefix(prefix, max_payload)
    body = read_exact(hlen + plen)
    if len(body) < hlen + plen:
        raise ProtocolError(f"truncated frame body ({len(body)} of "
                            f"{hlen + plen} bytes)")
    return _decode_header(body[:hlen]), body[hlen:]


#: Bytes asked of one ``recv``: a small frame, and the frames queued behind
#: it, arrive in one call.
_RECV_BYTES = 1 << 16


class _RecvBuffer:
    """The bytes a blocking socket delivered past the last frame read.

    Holds no reference to its socket, so the per-socket registry below
    drops it with the socket.
    """

    __slots__ = ("data", "pos")

    def __init__(self) -> None:
        self.data = b""
        self.pos = 0

    def read_exact(self, sock: socket.socket, n: int) -> bytes:
        """``n`` bytes, buffered ones first (short only at EOF)."""
        data, pos = self.data, self.pos
        have = len(data) - pos
        if have >= n:
            self.pos = pos + n
            return data[pos:pos + n]
        parts = [data[pos:]]
        while have < n:
            chunk = sock.recv(min(max(n - have, _RECV_BYTES), 1 << 20))
            if not chunk:
                break
            parts.append(chunk)
            have += len(chunk)
        # Only the last recv can run past the frame: keep its tail.
        extra = max(have - n, 0)
        if extra:
            last = parts[-1]
            parts[-1] = last[:len(last) - extra]
            self.data = last[len(last) - extra:]
        else:
            self.data = b""
        self.pos = 0
        return b"".join(parts)


#: Each blocking socket's receive buffer, dropped with the socket.
_RECV_BUFFERS: "weakref.WeakKeyDictionary[socket.socket, _RecvBuffer]" = \
    weakref.WeakKeyDictionary()


def read_frame_sock(sock: socket.socket,
                    max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES,
                    ) -> Optional[Tuple[dict, bytes]]:
    """Blocking frame read from a connected socket (see :func:`read_frame`).

    Reads through the socket's receive buffer: one ``recv`` asks for at
    least 64 KiB, and the bytes past the frame serve the next call on the
    same socket.  A small frame costs at most one ``recv``, and none when
    it arrived behind the previous one.  Every read of a socket must go
    through here once one has.
    """
    buf = _RECV_BUFFERS.get(sock)
    if buf is None:
        buf = _RECV_BUFFERS.setdefault(sock, _RecvBuffer())
    return read_frame(lambda n: buf.read_exact(sock, n), max_payload)


async def read_frame_async(reader: asyncio.StreamReader,
                           max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES,
                           ) -> Optional[Tuple[dict, bytes]]:
    """Async frame read from an :class:`asyncio.StreamReader`."""
    try:
        prefix = await reader.readexactly(PREFIX_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(f"truncated frame prefix ({len(exc.partial)} of "
                            f"{PREFIX_BYTES} bytes)") from exc
    hlen, plen = _parse_prefix(prefix, max_payload)
    try:
        body = await reader.readexactly(hlen + plen)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(f"truncated frame body ({len(exc.partial)} of "
                            f"{hlen + plen} bytes)") from exc
    return _decode_header(body[:hlen]), body[hlen:]


# --------------------------------------------------------------------------
# array codec
# --------------------------------------------------------------------------
#: dtypes allowed on the wire — the engine's data and id types.  A codec
#: allow-list (rather than trusting arbitrary dtype strings) keeps a
#: malicious header from instantiating object dtypes.
WIRE_DTYPES = ("float64", "float32", "int64", "int32", "uint64", "bool")
#: Each allowed dtype's wire name: a dict lookup costs far less than
#: ``dtype.name``, which NumPy computes in Python on every access.
_WIRE_NAMES = {np.dtype(name): name for name in WIRE_DTYPES}


def pack_arrays(arrays: Sequence[Tuple[str, np.ndarray]],
                ) -> Tuple[List[dict], bytes]:
    """Describe named arrays as header metadata + one concatenated payload.

    The payload carries native-order bytes (little-endian on x86 and ARM
    hosts), which :func:`unpack_arrays` reads back as such: an array in
    the other byte order (a big-endian catalog read from a file as is,
    say) is byte-swapped first, so its values arrive, not its bytes
    reinterpreted.
    """
    meta: List[dict] = []
    parts: List[bytes] = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        dtype = _WIRE_NAMES.get(arr.dtype) or arr.dtype.name
        if dtype not in WIRE_DTYPES:
            raise ProtocolError(f"dtype {dtype!r} of array "
                                f"{name!r} is not wire-encodable")
        if not arr.dtype.isnative:
            arr = arr.astype(arr.dtype.newbyteorder("="))
        buf = arr.tobytes()
        meta.append({"name": name, "dtype": dtype,
                     "shape": list(arr.shape), "nbytes": len(buf)})
        parts.append(buf)
    return meta, b"".join(parts)


def unpack_arrays(meta: Sequence[dict], payload: bytes) -> Dict[str, np.ndarray]:
    """Rebuild the named arrays described by ``meta`` from the payload."""
    if not isinstance(meta, (list, tuple)):
        raise ProtocolError(f"array metadata must be a list, not {meta!r}")
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    for entry in meta:
        try:
            name = entry["name"]
            dtype = entry["dtype"]
            shape = tuple(int(s) for s in entry["shape"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed array metadata {entry!r}") from exc
        if dtype not in WIRE_DTYPES:
            raise ProtocolError(f"dtype {dtype!r} of array {name!r} is not "
                                "wire-decodable")
        if any(s < 0 for s in shape):
            raise ProtocolError(f"negative dimension in shape {shape} of "
                                f"array {name!r}")
        count = math.prod(shape)
        expected = count * np.dtype(dtype).itemsize
        if nbytes != expected:
            raise ProtocolError(f"array {name!r} declares {nbytes} bytes but "
                                f"shape/dtype imply {expected}")
        if offset + nbytes > len(payload):
            raise ProtocolError(f"payload too short for array {name!r}")
        arrays[name] = np.frombuffer(
            payload, dtype=dtype, count=count,
            offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(f"{len(payload) - offset} unclaimed payload bytes "
                            "after the declared arrays")
    return arrays
