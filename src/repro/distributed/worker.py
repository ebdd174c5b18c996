"""TCP shard worker: one process serving shard work over the service frames.

A :class:`WorkerServer` is the remote half of the ``distributed`` backend
(:mod:`repro.distributed.backend`).  It speaks exactly the wire protocol of
the query service — length-prefixed JSON + binary frames with the
dtype-allow-listed array codec (:mod:`repro.service.protocol`) — so the
worker channel inherits the service's hard size bounds and
reject-before-allocation behavior for free.

A dataset is **attached once** — as a :class:`~repro.data.store.SpatialStore`
path the worker memory-maps locally (the points never cross the wire) or
as arrays shipped one time — into a
:class:`~repro.parallel.executor.ShardDataset`, whose per-ε index LRU every
later shard request reuses.  Store attachments index the stored (B-order)
rows and translate emitted ids back through the store's id directory, so
results are bit-identical to in-memory execution.

Shard operations (``selfjoin_shard``, ``probe_shard`` and the
disk-streamed ``stream_shard``) compute with the shard body every
transport shares, :func:`repro.parallel.executor.run_shard`, and respond
with zero or more ``status: "chunk"`` frames of the pair arrays, then a
``status: "end"`` frame with the final status, pair total and serialized
:class:`~repro.core.kernels.KernelStats`.  A request's ``deadline_ms``
budget runs the compute inside a
:func:`~repro.utils.cancellation.cancel_scope`, so a parent whose deadline
lapsed stops burning *remote* CPU within one cancellation checkpoint.

``store_root`` restricts which paths a worker will memory-map (the
``--store-root`` flag of the ``repro-worker`` CLI): attach requests naming
a store outside that directory are rejected before any file is touched.

Run standalone via ``repro-worker`` (:mod:`repro.distributed.__main__`) or
in-process via :class:`WorkerThread` (the test harness, mirroring the
service's ``ServerThread``).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernels import KernelStats
from repro.data.store import SpatialStore
from repro.parallel.executor import ShardDataset, run_shard
from repro.service import protocol
from repro.utils.cancellation import (
    CancellationToken,
    OperationCancelled,
    cancel_scope,
    check_cancelled,
)

#: Default bound on result pairs per streamed ``chunk`` frame; at 16 bytes a
#: pair this keeps one frame's payload around 4 MB, far under the codec's
#: payload bound.
DEFAULT_CHUNK_PAIRS = 262_144

#: Granularity of the cancellation-checkpointed debug sleep (fault tests
#: use the sleep to hold a shard in flight; a deadline must still interrupt
#: it promptly).
_SLEEP_CHECK_SECONDS = 0.01

#: Environment override turning a worker into a deliberate straggler: every
#: shard op sleeps this many milliseconds (cancellation-checkpointed) before
#: computing.  The straggler-injection tests start one worker of a pool with
#: this set and assert the scheduler routes work around it.
DEBUG_SLEEP_ENV_VAR = "REPRO_WORKER_DEBUG_SLEEP_MS"

#: The array each shard op ships in its request payload.
SHARD_ARRAYS = {"selfjoin": "cells", "probe": "queries"}

#: ``WorkerStats`` counter bumped per executed shard kind.
_SHARD_COUNTERS = {"selfjoin": "shards_executed",
                   "probe": "probe_shards_executed",
                   "stream": "stream_shards_executed"}


def stats_to_wire(stats: KernelStats) -> dict:
    """Serialize :class:`KernelStats` for a frame header (plain JSON types)."""
    return {"cells_checked": int(stats.cells_checked),
            "nonempty_cells_visited": int(stats.nonempty_cells_visited),
            "distance_calcs": int(stats.distance_calcs),
            "result_pairs": int(stats.result_pairs),
            "tier": str(stats.tier),
            "kernel_counts": {str(k): int(v)
                              for k, v in stats.kernel_counts.items()}}


def stats_from_wire(data: dict) -> KernelStats:
    """Rebuild :class:`KernelStats` from a frame header dict."""
    return KernelStats(
        cells_checked=int(data.get("cells_checked", 0)),
        nonempty_cells_visited=int(data.get("nonempty_cells_visited", 0)),
        distance_calcs=int(data.get("distance_calcs", 0)),
        result_pairs=int(data.get("result_pairs", 0)),
        tier=str(data.get("tier", "")),
        kernel_counts={str(k): int(v)
                       for k, v in dict(data.get("kernel_counts") or {}).items()})


@dataclass
class WorkerStats:
    """Counters of one worker process, served by the ``stats`` op.

    The backend's liveness probe aggregates these into the service stats
    endpoint; tests assert remote-cancellation on ``shards_cancelled``
    (an expired parent deadline must show up as *worker-side* cancels, not
    just a parent-side unwind).
    """

    datasets_attached: int = 0
    datasets_mapped: int = 0      # attached as a store path (memmapped)
    datasets_shipped: int = 0     # attached as wire-shipped arrays
    shards_executed: int = 0
    probe_shards_executed: int = 0
    stream_shards_executed: int = 0
    shards_cancelled: int = 0
    shards_failed: int = 0
    pairs_returned: int = 0
    chunks_sent: int = 0

    def snapshot(self) -> dict:
        return {"datasets_attached": self.datasets_attached,
                "datasets_mapped": self.datasets_mapped,
                "datasets_shipped": self.datasets_shipped,
                "shards_executed": self.shards_executed,
                "probe_shards_executed": self.probe_shards_executed,
                "stream_shards_executed": self.stream_shards_executed,
                "shards_cancelled": self.shards_cancelled,
                "shards_failed": self.shards_failed,
                "pairs_returned": self.pairs_returned,
                "chunks_sent": self.chunks_sent}


def _interruptible_sleep(seconds: float) -> None:
    """Sleep in checkpointed slices so a deadline interrupts it promptly."""
    end = time.monotonic() + float(seconds)
    while True:
        check_cancelled()
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(_SLEEP_CHECK_SECONDS, remaining))


class WorkerServer:
    """One shard worker process behind the service frame protocol.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    store_root:
        When set, ``attach`` requests naming a store path outside this
        directory are rejected — a worker exposed beyond localhost should
        not memmap arbitrary caller-chosen paths.
    max_payload:
        Frame payload bound passed to the shared codec.
    compute_threads:
        Size of the executor shard compute runs on.  Two keeps a ``ping``
        or ``stats`` round-trip live on other connections while a shard
        computes (NumPy kernels release the GIL); shard *parallelism* comes
        from running more worker processes, not more threads.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 store_root: Optional[str] = None,
                 max_payload: int = protocol.DEFAULT_MAX_PAYLOAD_BYTES,
                 compute_threads: int = 2,
                 debug_shard_sleep_ms: Optional[float] = None) -> None:
        self.host = host
        self.port = int(port)
        self.store_root = (Path(store_root).resolve()
                           if store_root is not None else None)
        if debug_shard_sleep_ms is None:
            # Straggler-injection hook: the environment variable slows
            # *this whole worker* down by a fixed per-shard sleep, so the
            # scheduler tests can start a mixed pool with exactly one slow
            # subprocess (see ``LocalWorkerPool(worker_envs=...)``).
            debug_shard_sleep_ms = float(
                os.environ.get(DEBUG_SLEEP_ENV_VAR, "0") or 0)
        self.debug_shard_sleep_ms = float(debug_shard_sleep_ms)
        self.max_payload = int(max_payload)
        self.stats = WorkerStats()
        self._datasets: Dict[str, ShardDataset] = {}
        self._lock = threading.Lock()   # guards _datasets and stats
        self._executor = ThreadPoolExecutor(
            max_workers=int(compute_threads),
            thread_name_prefix="repro-worker")
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()

    # ---------------------------------------------------------------- lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind and start serving; resolves the ephemeral port."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or a ``shutdown`` op)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._stopped.wait()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._executor.shutdown(wait=False)

    def request_stop(self) -> None:
        """Ask the serve loop to exit (threadsafe from the loop's thread)."""
        if self._stopped is not None:
            self._stopped.set()

    # -------------------------------------------------------------- connection
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(
                        reader, self.max_payload)
                except protocol.ProtocolError:
                    break  # malformed/truncated request: drop the connection
                if frame is None:
                    break
                header, payload = frame
                op = header.get("op")
                if op == "shutdown":
                    await self._send(writer, {"status": protocol.STATUS_OK})
                    self.request_stop()
                    break
                if op in ("selfjoin_shard", "probe_shard", "stream_shard"):
                    frames = await loop.run_in_executor(
                        self._executor, self._run_shard_op, header, payload)
                    for fhead, fpayload in frames:
                        await self._send(writer, fhead, fpayload)
                elif op == "attach":
                    # Store opening / index-free array unpack is cheap but
                    # still I/O: keep the event loop responsive.
                    head = await loop.run_in_executor(
                        self._executor, self._op_attach, header, payload)
                    await self._send(writer, head)
                else:
                    await self._send(writer, self._op_inline(header))
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            # As in the service: a cancellation arriving during the close
            # must not escape the connection task.
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, header: dict,
                    payload: bytes = b"") -> None:
        writer.write(protocol.encode_frame(header, payload))
        await writer.drain()

    # --------------------------------------------------------------- small ops
    def _op_inline(self, header: dict) -> dict:
        op = header.get("op")
        if op == "ping":
            return {"status": protocol.STATUS_OK, "pong": True}
        if op == "stats":
            with self._lock:
                snap = self.stats.snapshot()
                datasets = sorted(self._datasets)
            return {"status": protocol.STATUS_OK, "stats": snap,
                    "datasets": datasets}
        if op == "detach":
            with self._lock:
                state = self._datasets.pop(str(header.get("dataset")), None)
            return {"status": protocol.STATUS_OK,
                    "detached": state is not None}
        return {"status": protocol.STATUS_ERROR,
                "message": f"unknown op {op!r}"}

    def _op_attach(self, header: dict, payload: bytes) -> dict:
        name = str(header.get("dataset"))
        with self._lock:
            state = self._datasets.get(name)
        if state is not None:
            # Idempotent by dataset name: a re-dispatching parent (or a
            # second backend instance over the same dataset) finds the
            # attachment already resident.
            return {"status": protocol.STATUS_OK, "dataset": name,
                    "n_points": int(state.points.shape[0]),
                    "n_dims": int(state.points.shape[1]),
                    "transport": "cached"}
        inner = str(header.get("inner", "vectorized"))
        store_path = header.get("store_path")
        try:
            if store_path is not None:
                resolved = Path(str(store_path)).resolve()
                if self.store_root is not None \
                        and not resolved.is_relative_to(self.store_root):
                    return {"status": protocol.STATUS_ERROR,
                            "message": f"store path {str(resolved)!r} is "
                                       f"outside this worker's --store-root "
                                       f"({str(self.store_root)!r})"}
                state = ShardDataset.from_store(SpatialStore.open(resolved),
                                                inner)
            else:
                arrays = protocol.unpack_arrays(
                    header.get("arrays", []), payload)
                if "points" not in arrays:
                    return {"status": protocol.STATUS_ERROR,
                            "message": "attach without store_path must ship "
                                       "a 'points' array"}
                points = np.ascontiguousarray(arrays["points"],
                                              dtype=np.float64)
                if points.ndim != 2:
                    return {"status": protocol.STATUS_ERROR,
                            "message": "attached points must be 2-D"}
                state = ShardDataset(points=points, inner=inner)
        except (OSError, ValueError, protocol.ProtocolError) as exc:
            return {"status": protocol.STATUS_ERROR,
                    "message": f"attach failed: {exc}"}
        mapped = state.store is not None
        with self._lock:
            self._datasets[name] = state
            self.stats.datasets_attached += 1
            if mapped:
                self.stats.datasets_mapped += 1
            else:
                self.stats.datasets_shipped += 1
        return {"status": protocol.STATUS_OK, "dataset": name,
                "n_points": int(state.points.shape[0]),
                "n_dims": int(state.points.shape[1]),
                "transport": "store" if mapped else "arrays"}

    # --------------------------------------------------------------- shard ops
    def _run_shard_op(self, header: dict,
                      payload: bytes) -> List[Tuple[dict, bytes]]:
        """Execute one shard request; return the full frame sequence.

        The shard is computed in full before the frames are written (O(shard
        result) worker memory — the same contract as a multiprocess pool
        worker), then chunked so no single frame exceeds the payload bound.
        An expired ``deadline_ms`` or any compute error is reported in the
        terminal ``end`` frame rather than by dropping the connection, so
        the parent can distinguish re-dispatchable outcomes from poison
        shards.
        """
        kind = str(header.get("op")).removesuffix("_shard")
        shard = header.get("shard")
        name = str(header.get("dataset"))
        with self._lock:
            state = self._datasets.get(name)
        if state is None:
            return [({"status": protocol.STATUS_END, "final": "error",
                      "shard": shard,
                      "message": f"dataset {name!r} is not attached"}, b"")]

        deadline_ms = header.get("deadline_ms")
        token = (CancellationToken.with_timeout(float(deadline_ms) / 1000.0)
                 if deadline_ms is not None else None)
        try:
            with cancel_scope(token):
                sleep_ms = max(float(header.get("debug_sleep_ms", 0) or 0),
                               self.debug_shard_sleep_ms)
                if sleep_ms > 0:
                    _interruptible_sleep(sleep_ms / 1000.0)
                arrays = protocol.unpack_arrays(header.get("arrays", []),
                                                payload)
                keys, values, stats = run_shard(
                    state, kind, header, arrays.get(SHARD_ARRAYS.get(kind)))
        except OperationCancelled as exc:
            with self._lock:
                self.stats.shards_cancelled += 1
            final = "timeout" if exc.is_deadline else "cancelled"
            return [({"status": protocol.STATUS_END, "final": final,
                      "shard": shard, "message": exc.reason}, b"")]
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            with self._lock:
                self.stats.shards_failed += 1
            return [({"status": protocol.STATUS_END, "final": "error",
                      "shard": shard,
                      "message": f"{type(exc).__name__}: {exc}"}, b"")]

        chunk_pairs = int(header.get("chunk_pairs", DEFAULT_CHUNK_PAIRS))
        chunk_pairs = max(1, chunk_pairs)
        frames: List[Tuple[dict, bytes]] = []
        for seq, lo in enumerate(range(0, keys.shape[0], chunk_pairs)):
            meta, chunk_payload = protocol.pack_arrays(
                [("keys", keys[lo:lo + chunk_pairs]),
                 ("values", values[lo:lo + chunk_pairs])])
            frames.append(({"status": protocol.STATUS_CHUNK, "shard": shard,
                            "seq": seq, "arrays": meta}, chunk_payload))
        frames.append(({"status": protocol.STATUS_END, "final": "ok",
                        "shard": shard, "pairs": int(keys.shape[0]),
                        "chunks": len(frames),
                        "stats": stats_to_wire(stats)}, b""))
        counter = _SHARD_COUNTERS[kind]
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            self.stats.pairs_returned += int(keys.shape[0])
            self.stats.chunks_sent += len(frames) - 1
        return frames


class WorkerThread:
    """In-process worker harness: a :class:`WorkerServer` on its own loop.

    The distributed analogue of the service's ``ServerThread`` — parity
    tests spin several of these instead of subprocesses, so the full matrix
    stays fast while exercising the real sockets and frames.  Use as a
    context manager; :attr:`address` is valid once the context is entered.
    """

    def __init__(self, **server_kwargs) -> None:
        self.server = WorkerServer(**server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def _main() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_until_stopped()

        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    def start(self) -> "WorkerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-worker-thread",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("worker thread failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "WorkerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
