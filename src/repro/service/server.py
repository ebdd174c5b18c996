"""The asyncio front door: admission queue, tick loop, response streaming.

:class:`QueryService` is a stdlib-only asyncio TCP server in front of the
engine, on the frame server it shares with the distributed worker
(:mod:`repro.service.framing`: listener, connection loop, ``ping``/
``shutdown``, shutdown order, thread harness).  Division of labor per
request:

* the **connection coroutine** answers the control-plane ops (stats /
  register / evict / list) inline, and admits query ops to the bounded
  queue — a full queue answers ``REJECTED`` immediately (backpressure)
  instead of queueing unboundedly;
* the **scheduler coroutine** drains the queue once per tick, fuses the
  burst (:func:`repro.service.scheduler.plan_tick`) and dispatches each
  work unit to a thread pool — engine operators are synchronous NumPy
  loops, so they run off the loop with a :func:`cancel_scope` carrying the
  request deadline (cooperative cancellation actually stops shard work);
* every worker→loop call (a streamed chunk, a request's outcome) goes
  through one FIFO :class:`LoopInbox`, which wakes the loop once for all
  the calls queued behind each other;
* streamed CSR results flow worker → loop through a :class:`ChunkStream`
  whose bounded in-flight window gives end-to-end backpressure: a slow
  client blocks the posting worker, never the server's memory.

Wire semantics (one frame = JSON header + binary payload, see
:mod:`repro.service.protocol`): a query op's first response frame is either
``{"status": "rejected"}``, sent at admission, or ``{"status": "ok",
"streaming": true}``, sent with the first result chunk (or with the ``end``
frame of a result without chunks); streamed results follow as ``chunk``
frames and finish with an ``end`` frame whose ``final`` field is
``ok``/``timeout``/``error``.  Single-frame ops (kNN, control plane) answer
with one ``ok``/``timeout``/``error`` frame.  The frames of one answer that
are ready at the same moment leave in one socket write.

On shutdown the service fails its queued requests with ``server stopped``
before the connections end, then closes its pool and its catalog.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.nativekernels import kernel_tier_availability
from repro.engine.backends import backend_availability
from repro.service import protocol
from repro.service.catalog import DatasetNotRegistered, SessionCatalog
from repro.service.framing import FrameServer, FrameServerThread
from repro.service.scheduler import (
    DEFAULT_CHUNK_PAIRS,
    Outcome,
    PendingRequest,
    QUERY_OPS,
    STREAMING_OPS,
    plan_tick,
    run_work_unit,
)
from repro.utils.cancellation import CancellationToken, OperationCancelled
from repro.utils.counters import Counters
from repro.utils.logging import get_logger

#: Default burst-collection window of the scheduler tick (seconds).
DEFAULT_TICK_SECONDS = 0.002
#: Default bound on the admission queue (overload → REJECTED).
DEFAULT_MAX_PENDING = 64
#: Default size of the execution thread pool.
DEFAULT_WORKERS = 4

_log = get_logger("repro.service")

#: A streamed answer's first frame, encoded once.
_STREAM_OPENER = protocol.encode_frame({"status": protocol.STATUS_OK,
                                        "streaming": True})


@dataclass
class ServiceStats(Counters):
    """Service-level counters (engine counters live per session)."""

    requests_total: int = 0
    by_op: Dict[str, int] = field(default_factory=dict)
    point_queries: int = 0
    fused_queries: int = 0
    fusion_batches: int = 0
    fusion_ticks: int = 0
    max_fused_in_tick: int = field(default=0, metadata={"merge": max})
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    chunks_streamed: int = 0

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["fusion_ratio"] = (snap["fused_queries"] / snap["point_queries"]
                                if snap["point_queries"] else 0.0)
        return snap


class LoopInbox:
    """Worker→loop calls, run on the loop thread in FIFO order.

    :meth:`call` queues ``fn(*args)`` from any thread.  It wakes the loop
    only when the inbox goes from empty to non-empty: the one wakeup runs
    every call queued by then, and every call queued while it runs.  A
    call that raises is logged and the calls behind it still run.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._calls: Deque[Tuple[Callable[..., Any], tuple]] = deque()
        self._lock = threading.Lock()

    def call(self, fn: Callable[..., Any], *args: Any) -> None:
        with self._lock:
            wake = not self._calls
            self._calls.append((fn, args))
        if wake:
            self._loop.call_soon_threadsafe(self._run)

    def _run(self) -> None:
        while True:
            with self._lock:
                if not self._calls:
                    return
                fn, args = self._calls.popleft()
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - the calls behind it must run
                _log.exception("service inbox call %r failed", fn)


class ChunkStream:
    """Bounded worker→loop conduit for one request's streamed result chunks.

    The worker thread ``post``s chunks; the connection coroutine takes
    them (:meth:`take`).  At most ``max_inflight`` chunks are in flight at
    once (queued, or taken and not yet released after their write) —
    ``post`` blocks the worker past that, so a slow consumer throttles
    the producer instead of growing server memory (the sink path already
    bounds chunk size).  ``abort`` (client gone) unblocks and fails the
    producer at its next post, which unwinds the engine work through the
    cancel scope.
    """

    _DONE = object()

    def __init__(self, inbox: LoopInbox, max_inflight: int = 8) -> None:
        self._inbox = inbox
        self._queue: asyncio.Queue = asyncio.Queue()
        self._window = threading.Semaphore(max_inflight)
        self._max_inflight = max_inflight
        self._aborted = False

    # ---------------------------------------------------- worker-thread side
    def post(self, keys: np.ndarray, values: np.ndarray) -> None:
        if self._aborted:
            raise OperationCancelled("client gone")
        self._window.acquire()
        if self._aborted:
            raise OperationCancelled("client gone")
        self._inbox.call(self._queue.put_nowait, (keys, values))

    def close(self) -> None:
        """Terminate the stream (call from the loop thread)."""
        self._queue.put_nowait(self._DONE)

    # ------------------------------------------------------- loop-thread side
    def abort(self) -> None:
        """Release any blocked producer and fail its future posts."""
        self._aborted = True
        self._window.release(self._max_inflight)

    async def take(self) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], bool]:
        """Wait for the next chunk, then take every chunk queued behind it.

        Returns the chunks and whether the stream ended after them.  Each
        taken chunk keeps its window slot until :meth:`release`.
        """
        chunks = []
        item = await self._queue.get()
        while item is not self._DONE:
            chunks.append(item)
            if self._queue.empty():
                return chunks, False
            item = self._queue.get_nowait()
        return chunks, True

    def release(self, n: int) -> None:
        """Free the window slots of ``n`` (≥ 1) chunks written out."""
        self._window.release(n)


class QueryService(FrameServer):
    """The asyncio TCP query service (see module docstring)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 default_backend: str = "vectorized",
                 max_pending: int = DEFAULT_MAX_PENDING,
                 tick_seconds: float = DEFAULT_TICK_SECONDS,
                 workers: int = DEFAULT_WORKERS,
                 chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
                 max_payload: int = protocol.DEFAULT_MAX_PAYLOAD_BYTES) -> None:
        super().__init__(host, port, max_payload=max_payload)
        self.catalog = SessionCatalog(default_backend=default_backend)
        self.stats = ServiceStats()
        self.max_pending = int(max_pending)
        self.tick_seconds = float(tick_seconds)
        self.n_workers = int(workers)
        self.chunk_pairs = int(chunk_pairs)
        self.started = time.monotonic()
        self._queue: Optional[asyncio.Queue] = None
        self._inbox: Optional[LoopInbox] = None
        self._pool = None
        self._scheduler_task: Optional[asyncio.Task] = None

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listener and start the scheduler; resolves ``self.port``."""
        from concurrent.futures import ThreadPoolExecutor

        await super().start()
        self._queue = asyncio.Queue(maxsize=self.max_pending)
        self._inbox = LoopInbox(self._loop)
        self._pool = ThreadPoolExecutor(max_workers=self.n_workers,
                                        thread_name_prefix="repro-service")
        self._scheduler_task = asyncio.ensure_future(self._scheduler_loop())

    async def _on_stop(self) -> None:
        self._scheduler_task.cancel()
        try:
            await self._scheduler_task
        except asyncio.CancelledError:
            pass
        # Fail whatever is still queued so no client hangs on shutdown.
        while not self._queue.empty():
            self._fail_stopped(self._queue.get_nowait())

    def _fail_stopped(self, req: PendingRequest) -> None:
        req.token.cancel("server stopped")
        self._finish(req, Outcome(protocol.STATUS_ERROR,
                                  message="server stopped"))

    def _on_closed(self) -> None:
        self._pool.shutdown(wait=True)
        self.catalog.close_all()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a scheduler tick."""
        return self._queue.qsize() if self._queue is not None else 0

    # -------------------------------------------------------------- scheduler
    async def _scheduler_loop(self) -> None:
        while True:
            first = await self._queue.get()
            if self.tick_seconds > 0:
                # Burst-collection window: co-arriving point queries land in
                # the same tick and fuse.  A shutdown cancels it here.
                try:
                    await asyncio.sleep(self.tick_seconds)
                except asyncio.CancelledError:
                    self._fail_stopped(first)
                    raise
            batch: List[PendingRequest] = [first]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            units = plan_tick(batch)
            fused = [len(unit.requests) for unit in units if unit.fused]
            self.stats.add(fusion_batches=len(fused), fused_queries=sum(fused),
                           fusion_ticks=int(bool(fused)),
                           max_fused_in_tick=sum(fused))
            for unit in units:
                self._pool.submit(run_work_unit, unit, self.catalog,
                                  self.chunk_pairs,
                                  ).add_done_callback(_log_unit_failure)

    def _resolve_threadsafe(self, req: PendingRequest,
                            outcome: Outcome) -> None:
        """Worker-side resolve callback: finish on the loop, via the inbox."""
        self._inbox.call(self._finish, req, outcome)

    def _finish(self, req: PendingRequest, outcome: Outcome) -> None:
        future = req.future
        if not future.done():
            self.stats.add(
                timeouts=int(outcome.status == protocol.STATUS_TIMEOUT),
                errors=int(outcome.status == protocol.STATUS_ERROR))
            future.set_result(outcome)
        if req.stream is not None:
            req.stream.close()

    # --------------------------------------------------------------- requests
    async def _dispatch(self, writer: asyncio.StreamWriter, header: dict,
                        payload: bytes) -> None:
        op = header.get("op")
        if op in QUERY_OPS:
            await self._handle_query(writer, header, payload)
        elif op == "stats":
            # Off the loop thread: distributed backends ping their workers
            # for liveness, which is blocking socket I/O.
            stats = await self._loop.run_in_executor(self._pool,
                                                     self._stats_payload)
            await self._write(writer, {"status": protocol.STATUS_OK,
                                       "stats": stats})
        elif op == "list":
            await self._write(writer, {"status": protocol.STATUS_OK,
                                       "datasets": self.catalog.describe()})
        elif op == "register":
            await self._handle_register(writer, header, payload)
        elif op == "evict":
            self.catalog.evict(str(header["name"]))
            await self._write(writer, {"status": protocol.STATUS_OK,
                                       "evicted": header["name"]})
        else:
            await super()._dispatch(writer, header, payload)

    async def _handle_register(self, writer: asyncio.StreamWriter,
                               header: dict, payload: bytes) -> None:
        name = str(header["name"])
        backend = header.get("backend")
        store_path = header.get("store_path")
        data = None
        if store_path is None:
            arrays = protocol.unpack_arrays(header.get("arrays", ()), payload)
            if "points" not in arrays:
                raise ValueError("register without store_path needs a "
                                 "'points' array payload")
            data = arrays["points"]
        # Session open may build pools / memmap stores — keep it off the loop.
        info = await self._loop.run_in_executor(
            self._pool, lambda: self.catalog.register(
                name, data=data, store_path=store_path, backend=backend))
        await self._write(writer, {"status": protocol.STATUS_OK,
                                   "dataset": info})

    def _build_request(self, header: dict, payload: bytes) -> PendingRequest:
        arrays = protocol.unpack_arrays(header.get("arrays", ()), payload)
        points = arrays.get("points")
        if points is not None:
            points = np.ascontiguousarray(points, dtype=np.float64)
            if points.ndim != 2:
                raise ValueError("query points must be a 2-D array")
        timeout_ms = header.get("timeout_ms")
        token = CancellationToken.with_timeout(float(timeout_ms) / 1000.0) \
            if timeout_ms is not None else CancellationToken()
        return PendingRequest(
            op=str(header["op"]),
            dataset=str(header.get("dataset", "")),
            eps=float(header["eps"]) if header.get("eps") is not None else None,
            k=int(header["k"]) if header.get("k") is not None else None,
            points=points,
            unicomp=bool(header.get("unicomp", True)),
            include_self=bool(header.get("include_self", True)),
            fuse=bool(header.get("fuse", True)),
            seconds=float(header.get("seconds", 0.0)),
            token=token,
            resolve=self._resolve_threadsafe,
        )

    async def _handle_query(self, writer: asyncio.StreamWriter, header: dict,
                            payload: bytes) -> None:
        req = self._build_request(header, payload)
        # Fail fast on an unknown dataset — before burning a queue slot.
        if req.op != "_sleep":
            try:
                self.catalog.get(req.dataset)
            except DatasetNotRegistered as exc:
                await self._write(writer, {"status": protocol.STATUS_ERROR,
                                           "message": str(exc)})
                return
        req.future = self._loop.create_future()
        if req.op in STREAMING_OPS:
            req.stream = ChunkStream(self._inbox)
        try:
            self._queue.put_nowait(req)
        except asyncio.QueueFull:
            # Backpressure: overload answers with a structured rejection
            # (and the current depth, so clients can back off) instead of
            # queueing unboundedly.
            self.stats.add(rejected=1)
            await self._write(writer, {"status": protocol.STATUS_REJECTED,
                                       "queue_depth": self.queue_depth,
                                       "max_pending": self.max_pending,
                                       "message": "admission queue full"})
            return
        self.stats.add(requests_total=1, by_op={req.op: 1},
                       point_queries=int(req.fusable))
        if req.stream is not None:
            await self._stream_response(writer, req)
        else:
            outcome: Outcome = await req.future
            meta, body = protocol.pack_arrays(outcome.arrays or [])
            await self._write(writer, {"status": outcome.status,
                                       "message": outcome.message,
                                       "arrays": meta, **outcome.end}, body)

    async def _stream_response(self, writer: asyncio.StreamWriter,
                               req: PendingRequest) -> None:
        """Send a streamed answer: the opener, the chunks, the end frame.

        The frames ready at the same moment leave in one write: the opener
        with the first chunks (or with the end frame), the chunks queued
        behind each other, and the end frame once the request is resolved.
        Each write drains before the next, and its chunks keep their window
        slots until then, so a long stream stays bounded by the window.
        """
        frames = [_STREAM_OPENER]
        seq = 0
        try:
            while True:
                chunks, done = await req.stream.take()
                for keys, values in chunks:
                    meta, body = protocol.pack_arrays([("keys", keys),
                                                       ("values", values)])
                    frames.append(protocol.encode_frame(
                        {"status": protocol.STATUS_CHUNK, "seq": seq,
                         "pairs": int(keys.shape[0]), "arrays": meta}, body))
                    seq += 1
                if done:
                    outcome: Outcome = await req.future
                    frames.append(protocol.encode_frame(
                        {"status": protocol.STATUS_END,
                         "final": outcome.status, "message": outcome.message,
                         "chunks": seq, **outcome.end}))
                writer.write(b"".join(frames))
                frames.clear()
                await writer.drain()
                if chunks:
                    req.stream.release(len(chunks))
                    self.stats.add(chunks_streamed=len(chunks))
                if done:
                    return
        except BaseException:
            # Client gone (or handler cancelled) mid-stream: stop the engine
            # work and unblock a worker waiting on the chunk window.
            req.token.cancel("client gone")
            req.stream.abort()
            raise

    # ------------------------------------------------------------------ stats
    def _stats_payload(self) -> dict:
        return {
            "service": self.stats.snapshot(),
            "queue_depth": self.queue_depth,
            "max_pending": self.max_pending,
            "tick_seconds": self.tick_seconds,
            "workers": self.n_workers,
            "uptime_s": time.monotonic() - self.started,
            "datasets": self.catalog.describe(),
            "backend_availability": backend_availability(),
            "kernel_tier_availability": kernel_tier_availability(),
            "distributed": self._distributed_payload(),
        }

    def _distributed_payload(self) -> dict:
        """Per-dataset worker liveness and dispatch counters.

        Covers every registered session whose backend exposes
        ``distributed_snapshot()`` (the ``distributed`` backend); datasets
        sharing one backend instance report the same snapshot under each
        name.  Empty when nothing distributed is registered.
        """
        payload: dict = {}
        for name in self.catalog.names():
            try:
                backend = self.catalog.get(name).backend
            except DatasetNotRegistered:  # evicted between names() and get()
                continue
            describe = getattr(backend, "distributed_snapshot", None)
            if describe is None:
                continue
            try:
                payload[name] = describe()
            except Exception as exc:  # noqa: BLE001 - stats must not fail
                payload[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return payload


def _log_unit_failure(future: Future) -> None:
    """Done-callback of a submitted work unit: log what escaped it.

    :func:`run_work_unit` resolves its requests and never raises; what
    still escapes (a resolve that failed) would stay unseen in the pool's
    future.
    """
    if not future.cancelled() and future.exception() is not None:
        _log.error("work unit failed", exc_info=future.exception())


class ServerThread(FrameServerThread):
    """Run a :class:`QueryService` on a dedicated thread (tests, examples)::

        with ServerThread(tick_seconds=0.01) as server:
            client = ServiceClient(server.host, server.port)
    """

    def __init__(self, **service_kwargs) -> None:
        super().__init__(QueryService(**service_kwargs))
        self.service: QueryService = self.server
