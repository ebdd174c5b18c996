"""The ``distributed`` execution backend: the shard executor over TCP.

:class:`DistributedBackend` runs the shard decomposition of
:mod:`repro.parallel.shards` through the executor loop every parallel
backend shares (:func:`repro.parallel.executor.run_tasks`).  Its transport
talks to :class:`~repro.distributed.worker.WorkerServer` processes:

* ``attach()`` ships the session dataset to every worker **once** — as a
  :class:`~repro.data.store.SpatialStore` path each worker memory-maps or
  as arrays — and later queries run against the workers' resident per-ε
  index caches.  An attach is all or nothing: if a worker refuses it, the
  workers that accepted it detach again.  A call outside a session
  attaches, runs and detaches.
* Each dispatched shard is one request/stream round-trip on its own
  connection, ``window`` connection threads per endpoint.  The
  work-stealing scheduler decides what each worker runs
  (``scheduling="static"`` pins the cost-balanced initial assignment, the
  benchmark baseline) and the executor merges fragments in B-order shard
  order, so results are bit-identical to every other backend.
* A shard on a **dead** worker (connection drop, process kill) is
  re-dispatched to the survivors; duplicates are deduplicated by shard key.
* The caller's cancellation scope (:mod:`repro.utils.cancellation`) is
  checked by the loop *and* sent with every shard request as a
  ``deadline_ms`` budget, so an expired request also stops remote work.

Registered lazily as ``distributed``; the spec names the workers:
``distributed(127.0.0.1:9101, 127.0.0.1:9102)`` uses running workers (the
multi-node story — start them with ``repro-worker``), ``distributed(4)``
spawns a :class:`LocalWorkerPool` of four localhost subprocesses (the CI
harness), and bare ``distributed`` reads ``REPRO_DISTRIBUTED_WORKERS``
(a count or a comma-separated address list) before falling back to one
local worker per CPU.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import queue
import socket
import subprocess
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.store import dataset_identity
from repro.engine.backends import register_backend
from repro.distributed.worker import (
    DEFAULT_CHUNK_PAIRS,
    SHARD_ARRAYS,
    stats_from_wire,
)
from repro.parallel.executor import (
    POLL_SECONDS,
    ShardExecutionBackend,
    Transport,
    WorkerTaskFailed,
)
from repro.parallel.scheduler import OVERSPLIT_FACTOR, SCHEDULING_MODES
from repro.parallel.shards import default_worker_count
from repro.service import protocol
from repro.utils.cancellation import current_token

#: Environment override for the bare ``distributed`` spec: an integer spawns
#: that many localhost workers; ``host:port,host:port`` uses running ones.
WORKERS_ENV_VAR = "REPRO_DISTRIBUTED_WORKERS"

#: How long to wait for a spawned worker subprocess to print its banner.
_SPAWN_BANNER_TIMEOUT = 30.0

Address = Tuple[str, int]


def _format_address(address: Address) -> str:
    return f"{address[0]}:{address[1]}"


def worker_request(address: Address, header: dict, payload: bytes = b"", *,
                   timeout: Optional[float] = 10.0,
                   max_payload: int = protocol.DEFAULT_MAX_PAYLOAD_BYTES,
                   ) -> Tuple[dict, bytes]:
    """One single-frame request/response round-trip with a worker."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        sock.settimeout(timeout)
        sock.sendall(protocol.encode_frame(header, payload))
        frame = protocol.read_frame_sock(sock, max_payload)
    finally:
        sock.close()
    if frame is None:
        raise protocol.ProtocolError(
            f"worker {_format_address(address)} closed the connection "
            "before replying")
    return frame


# --------------------------------------------------------------------------
# localhost worker pool (the CI multi-process harness)
# --------------------------------------------------------------------------
def _terminate_processes(processes: List[subprocess.Popen]) -> None:
    """Finalizer body: make sure spawned workers never outlive the parent."""
    for proc in processes:
        if proc.poll() is None:
            proc.terminate()
    for proc in processes:
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            proc.kill()
            proc.wait()


class LocalWorkerPool:
    """``repro-worker`` subprocesses on localhost ephemeral ports.

    Each worker is one OS process running the real CLI entry point
    (``python -m repro.distributed``), so the pool exercises exactly what a
    multi-node deployment runs — the fault tests kill these processes
    mid-join through :attr:`processes`.

    ``worker_envs`` (aligned with the workers, ``None`` entries inherit the
    parent environment unchanged) merges extra environment variables into
    individual workers — the straggler-injection tests use it to start one
    worker with ``REPRO_WORKER_DEBUG_SLEEP_MS`` so that exactly that worker
    sleeps per shard.
    """

    def __init__(self, n_workers: int, *,
                 store_root: Optional[str] = None,
                 worker_envs: Optional[Sequence[Optional[dict]]] = None,
                 ) -> None:
        if int(n_workers) < 1:
            raise ValueError("n_workers must be >= 1")
        if worker_envs is not None and len(worker_envs) != int(n_workers):
            raise ValueError("worker_envs must align with n_workers")
        self.processes: List[subprocess.Popen] = []
        self._addresses: List[Address] = []
        self._finalizer = weakref.finalize(self, _terminate_processes,
                                           self.processes)
        cmd = [sys.executable, "-m", "repro.distributed",
               "--host", "127.0.0.1", "--port", "0"]
        if store_root is not None:
            cmd += ["--store-root", str(store_root)]
        try:
            for i in range(int(n_workers)):
                env = None
                if worker_envs is not None and worker_envs[i]:
                    env = {**os.environ, **{k: str(v) for k, v
                                            in worker_envs[i].items()}}
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                        stderr=subprocess.DEVNULL,
                                        text=True, env=env)
                self.processes.append(proc)
                self._addresses.append(self._read_banner(proc))
        except Exception:
            self.shutdown()
            raise

    @staticmethod
    def _read_banner(proc: subprocess.Popen) -> Address:
        """Parse ``repro-worker listening on HOST:PORT`` from stdout.

        The readline runs on a helper thread so a worker that dies before
        printing (bad interpreter, import error) fails the spawn within the
        banner timeout instead of blocking forever.
        """
        result: List[str] = []

        def _read() -> None:
            result.append(proc.stdout.readline())

        thread = threading.Thread(target=_read, daemon=True)
        thread.start()
        thread.join(timeout=_SPAWN_BANNER_TIMEOUT)
        line = result[0] if result else ""
        if "listening on" not in line:
            raise RuntimeError(
                f"worker subprocess (pid {proc.pid}) did not start: "
                f"banner was {line!r}")
        host, _, port = line.rsplit(None, 1)[-1].rpartition(":")
        return (host, int(port))

    def addresses(self) -> List[Address]:
        """The spawned workers' ``(host, port)`` endpoints."""
        return list(self._addresses)

    def shutdown(self) -> None:
        """Stop every worker (graceful shutdown op, then terminate)."""
        for address, proc in zip(self._addresses, self.processes):
            if proc.poll() is None:
                try:
                    worker_request(address, {"op": "shutdown"}, timeout=2.0)
                except (OSError, protocol.ProtocolError):
                    pass
        _terminate_processes(self.processes)


# --------------------------------------------------------------------------
# backend state
# --------------------------------------------------------------------------
@dataclass
class _DatasetState:
    """Parent-side record of one dataset attached across the workers."""

    key: tuple
    name: str                       # wire name the workers know it by
    store_path: Optional[str]       # None: arrays shipped to the workers
    #: The parent-side array while bound (operators match on identity);
    #: ``None`` for store attachments until the owning session materializes.
    points: Optional[np.ndarray]
    #: Weakref to the owning session (store attachments bind lazily: the
    #: session may materialize its array after attach).
    session_ref: Optional[weakref.ref] = None
    attached_tokens: Set[int] = field(default_factory=set)


@dataclass
class DistributedStats:
    """Dispatch counters of one :class:`DistributedBackend` instance.

    ``shards_redispatched`` counts shards re-queued off dead (or
    worker-side-cancelled) workers; ``shards_stolen`` / ``shards_resplit``
    / ``shards_rebalanced`` the adaptive scheduler's interventions;
    ``shards_hedged`` last-resort duplicates dispatched against stragglers;
    ``hedge_wasted_*`` / ``resplit_wasted_*`` the work a lost duplicate
    race actually threw away, while ``duplicates_dropped`` counts stale
    copies dropped *without* executing (no work wasted — the hedge
    accounting distinguishes the two).  ``last_schedule`` is the full
    :meth:`~repro.parallel.scheduler.ScheduleReport.snapshot` of the most
    recent join (per-worker throughput, achieved-vs-predicted cost ratio).
    All of it surfaces in the query service's stats endpoint.
    """

    attach_rpcs: int = 0
    datasets_attached: int = 0
    datasets_detached: int = 0
    shards_dispatched: int = 0
    shards_redispatched: int = 0
    shards_stolen: int = 0
    shards_resplit: int = 0
    shards_rebalanced: int = 0
    shards_hedged: int = 0
    hedge_wasted_shards: int = 0
    hedge_wasted_pairs: int = 0
    resplit_wasted_shards: int = 0
    resplit_wasted_pairs: int = 0
    duplicates_dropped: int = 0
    worker_failures: int = 0
    last_schedule: Optional[dict] = None

    def snapshot(self) -> dict:
        return {"attach_rpcs": self.attach_rpcs,
                "datasets_attached": self.datasets_attached,
                "datasets_detached": self.datasets_detached,
                "shards_dispatched": self.shards_dispatched,
                "shards_redispatched": self.shards_redispatched,
                "shards_stolen": self.shards_stolen,
                "shards_resplit": self.shards_resplit,
                "shards_rebalanced": self.shards_rebalanced,
                "shards_hedged": self.shards_hedged,
                "hedge_wasted_shards": self.hedge_wasted_shards,
                "hedge_wasted_pairs": self.hedge_wasted_pairs,
                "resplit_wasted_shards": self.resplit_wasted_shards,
                "resplit_wasted_pairs": self.resplit_wasted_pairs,
                "duplicates_dropped": self.duplicates_dropped,
                "worker_failures": self.worker_failures,
                "last_schedule": self.last_schedule}


# --------------------------------------------------------------------------
# the backend
# --------------------------------------------------------------------------
@register_backend
class DistributedBackend(ShardExecutionBackend):
    """Cost-balanced shards executed by remote TCP workers (module docstring).

    Parameters
    ----------
    *spec:
        Worker endpoints: ``host:port`` strings for running workers, or a
        single integer spawning that many :class:`LocalWorkerPool`
        subprocesses.  Empty falls back to :data:`WORKERS_ENV_VAR`, then to
        one local worker per CPU.
    inner:
        Backend each worker executes per shard.
    n_shards:
        Shard count (``workers * scheduler.OVERSPLIT_FACTOR`` when omitted
        — the pull queue's rebalancing slack).
    seed:
        Seed of the sampled cost estimates (reproducible shard plans).
    kernel:
        Kernel-tier spec threaded into the workers' inner backend.
    scheduling:
        ``"adaptive"`` (default): the work-stealing scheduler — steal,
        mid-join rebalance, in-flight resplit, hedge last.  ``"static"``:
        every worker is pinned to its cost-balanced initial queue and only
        hedging may duplicate work (the benchmark baseline).
    window:
        Bounded per-worker outstanding window: how many shard requests may
        be in flight to one worker at once (each gets its own connection
        thread, so ``window=2`` overlaps a worker's compute threads).
    hedge_after:
        Seconds a lone in-flight shard may run — while other workers idle,
        no work is queued and (adaptive) nothing is splittable — before a
        duplicate is dispatched; ``0`` disables hedging.
    connect_timeout:
        Socket connect/attach timeout per worker RPC.
    chunk_pairs:
        Result pairs per streamed chunk frame.
    debug_shard_sleep_ms:
        Test hook: every shard request carries this worker-side sleep
        (cancellation-checkpointed), so fault tests can hold shards in
        flight deterministically.
    store_root:
        Forwarded to spawned local workers' ``--store-root``.
    """

    name = "distributed"
    supports_streaming = True
    # Bound on this class too, so per-class instrumentation (the layer
    # benchmark's tracer) can wrap this backend's operators alone.
    run_selfjoin = ShardExecutionBackend.run_selfjoin
    run_probe = ShardExecutionBackend.run_probe

    def __init__(self, *spec, inner: str = "vectorized",
                 n_shards: Optional[int] = None, seed: int = 0,
                 kernel: str = "auto", scheduling: str = "adaptive",
                 window: int = 1, hedge_after: float = 0.25,
                 connect_timeout: float = 10.0,
                 chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
                 debug_shard_sleep_ms: float = 0.0,
                 store_root: Optional[str] = None) -> None:
        super().__init__(inner, kernel, n_shards, seed)
        if str(scheduling) not in SCHEDULING_MODES:
            raise ValueError(
                f"scheduling must be one of {SCHEDULING_MODES}")
        self.scheduling = str(scheduling)
        if int(window) < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.hedge_after = float(hedge_after)
        self.connect_timeout = float(connect_timeout)
        self.chunk_pairs = int(chunk_pairs)
        self.debug_shard_sleep_ms = float(debug_shard_sleep_ms)
        self.store_root = store_root
        self.max_payload = protocol.DEFAULT_MAX_PAYLOAD_BYTES
        self.stats = DistributedStats()
        self._n_local, self._addresses = self._parse_spec(spec)
        self._pool: Optional[LocalWorkerPool] = None
        self._active: Dict[tuple, _DatasetState] = {}
        self._lock = threading.RLock()      # states, pool, stats

    @staticmethod
    def _parse_spec(spec) -> Tuple[Optional[int], List[Address]]:
        n_local: Optional[int] = None
        addresses: List[Address] = []
        for token in spec:
            if isinstance(token, int):
                if n_local is not None:
                    raise ValueError("at most one worker count in a "
                                     "distributed(...) spec")
                if token < 1:
                    raise ValueError("worker count must be >= 1")
                n_local = token
            elif isinstance(token, str) and ":" in token:
                host, _, port = token.rpartition(":")
                addresses.append((host.strip(), int(port)))
            else:
                raise ValueError(f"bad distributed(...) token {token!r}: "
                                 "expected host:port or a worker count")
        if n_local is not None and addresses:
            raise ValueError("give either worker addresses or a local "
                             "worker count, not both")
        if n_local is None and not addresses:
            env = os.environ.get(WORKERS_ENV_VAR, "").strip()
            if env and ":" in env:
                for part in env.split(","):
                    host, _, port = part.strip().rpartition(":")
                    addresses.append((host, int(port)))
            elif env:
                n_local = int(env)
            else:
                n_local = default_worker_count()
        return n_local, addresses

    # -------------------------------------------------------------- plumbing
    def endpoints(self) -> List[Address]:
        """The worker endpoints, spawning the local pool on first use."""
        with self._lock:
            if self._addresses:
                return list(self._addresses)
            if self._pool is None:
                self._pool = LocalWorkerPool(self._n_local,
                                             store_root=self.store_root)
            return self._pool.addresses()

    def shutdown(self) -> None:
        """Detach every dataset and stop a spawned local pool."""
        with self._lock:
            for state in list(self._active.values()):
                self._detach_everywhere(state)
            self._active.clear()
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    # ------------------------------------------------------ session lifecycle
    @staticmethod
    def _pool_key(session) -> tuple:
        return (session.identity,)

    def attach(self, session) -> None:
        """Ship the session dataset (or its store path) to every worker once."""
        key = self._pool_key(session)
        with self._lock:
            state = self._active.get(key)
            if state is None:
                descriptor = session.source.storage_descriptor()
                if descriptor is not None:
                    # Store-path transport: each worker memmaps the file
                    # itself; the parent never materializes the array here.
                    state = self._attach_store(descriptor, key=key)
                    state.session_ref = weakref.ref(session)
                else:
                    state = self._attach_arrays(session.points, key=key)
                self._active[key] = state
            state.attached_tokens.add(session.token)

    def detach(self, session) -> None:
        """Drop the workers' attachment once the last session lets go."""
        key = self._pool_key(session)
        with self._lock:
            state = self._active.get(key)
            if state is None:
                return
            state.attached_tokens.discard(session.token)
            if state.attached_tokens:
                return
            del self._active[key]
            self._detach_everywhere(state)

    def _attach_arrays(self, points: np.ndarray,
                       key: Optional[tuple] = None) -> _DatasetState:
        identity = dataset_identity(points)
        name = (f"mem-{identity.fingerprint[:16]}"
                f"-{identity.array_id & 0xFFFFFFFF:08x}")
        meta, payload = protocol.pack_arrays([("points", points)])
        header = {"op": "attach", "dataset": name, "inner": self.inner_name,
                  "arrays": meta}
        self._attach_rpc(header, payload)
        return _DatasetState(key=key or (identity,), name=name,
                             store_path=None, points=points)

    def _attach_store(self, descriptor: str,
                      key: Optional[tuple] = None) -> _DatasetState:
        resolved = str(Path(descriptor).resolve())
        name = "store-" + hashlib.blake2b(resolved.encode(),
                                          digest_size=8).hexdigest()
        header = {"op": "attach", "dataset": name, "inner": self.inner_name,
                  "store_path": resolved}
        self._attach_rpc(header, b"")
        return _DatasetState(key=key or (("store", resolved),), name=name,
                             store_path=resolved, points=None)

    def _attach_rpc(self, header: dict, payload: bytes) -> None:
        """Attach the dataset on **all** workers concurrently.

        The per-worker attach RPCs are independent, so they run under one
        ``asyncio.gather``: cold-start latency is the *slowest* worker's
        attach, not the sum.  All or nothing: if any worker fails, the
        workers that accepted the dataset detach it again.
        """
        endpoints = self.endpoints()
        frame = protocol.encode_frame(header, payload)
        timeout = self.connect_timeout

        async def _attach_one(address: Address):
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*address), timeout)
            try:
                writer.write(frame)
                await writer.drain()
                reply = await asyncio.wait_for(
                    protocol.read_frame_async(reader, self.max_payload),
                    timeout)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, asyncio.CancelledError):  # pragma: no cover
                    pass
            if reply is None:
                raise protocol.ProtocolError(
                    f"worker {_format_address(address)} closed the "
                    "connection before replying to attach")
            return reply[0]

        async def _attach_all():
            return await asyncio.gather(
                *(_attach_one(address) for address in endpoints),
                return_exceptions=True)

        replies = asyncio.run(_attach_all())
        failure: Optional[Tuple[str, Optional[BaseException]]] = None
        accepted = []
        for address, reply in zip(endpoints, replies):
            if isinstance(reply, BaseException):
                message, cause = f"{type(reply).__name__}: {reply}", reply
            else:
                with self._lock:
                    self.stats.attach_rpcs += 1
                if reply.get("status") == protocol.STATUS_OK:
                    accepted.append(address)
                    continue
                message, cause = reply.get("message", reply), None
            failure = failure or (
                f"attach to worker {_format_address(address)} failed: "
                f"{message}", cause)
        if failure is not None:
            self._detach_from(accepted, header["dataset"])
            raise WorkerTaskFailed(failure[0]) from failure[1]
        with self._lock:
            self.stats.datasets_attached += 1

    def _detach_everywhere(self, state: _DatasetState) -> None:
        self._detach_from(self.endpoints(), state.name)
        with self._lock:
            self.stats.datasets_detached += 1

    @staticmethod
    def _detach_from(addresses: Sequence[Address], name: str) -> None:
        for address in addresses:
            try:
                worker_request(address, {"op": "detach", "dataset": name},
                               timeout=2.0)
            except (OSError, protocol.ProtocolError):
                pass  # a dead worker has nothing to detach

    # --------------------------------------------------------- state resolution
    def _state_for_points(self, points: np.ndarray) -> Optional[_DatasetState]:
        """The attached state whose dataset *is* ``points`` (identity match).

        Store-backed sessions bind lazily: the array materializes on the
        session after attach, so the match goes through the session's
        private ``_points`` (never triggering a materialization here).
        """
        with self._lock:
            for state in self._active.values():
                if state.points is points:
                    return state
                if state.points is None and state.session_ref is not None:
                    session = state.session_ref()
                    if session is not None and session._points is points:
                        state.points = points
                        return state
        return None

    def _state_for_source(self, source) -> Optional[_DatasetState]:
        descriptor = source.storage_descriptor()
        if descriptor is None:
            raise ValueError("the distributed streamed self-join needs a "
                             "path-addressable store "
                             "(source.storage_descriptor() is None)")
        resolved = str(Path(descriptor).resolve())
        with self._lock:
            for state in self._active.values():
                if state.store_path == resolved:
                    return state
        return None

    # ------------------------------------------------------------- executor
    def _shard_count(self) -> int:
        return self.n_shards or len(self.endpoints()) * OVERSPLIT_FACTOR

    @contextmanager
    def _transport(self, n_tasks, index=None, source=None):
        """TCP transport over the attached dataset, attaching for one call
        when no session holds it."""
        endpoints = self.endpoints()
        if source is not None:
            state = self._state_for_source(source)
            attach = partial(self._attach_store, source.storage_descriptor())
        else:
            state = self._state_for_points(index.points)
            attach = partial(self._attach_arrays, index.points)
        ephemeral = state is None
        if ephemeral:
            state = attach()
        try:
            yield _TcpTransport(self, endpoints, state.name)
        finally:
            if ephemeral:
                self._detach_everywhere(state)

    def _record_schedule(self, report) -> None:
        with self._lock:
            self.stats.shards_stolen += report.steals
            self.stats.shards_resplit += report.resplits
            self.stats.shards_rebalanced += report.rebalances
            self.stats.shards_hedged += report.hedges
            self.stats.shards_redispatched += report.redispatches
            self.stats.duplicates_dropped += report.duplicates_dropped
            self.stats.hedge_wasted_shards += report.hedge_wasted_shards
            self.stats.hedge_wasted_pairs += report.hedge_wasted_pairs
            self.stats.resplit_wasted_shards += report.resplit_wasted_shards
            self.stats.resplit_wasted_pairs += report.resplit_wasted_pairs
            self.stats.last_schedule = report.snapshot()

    # ---------------------------------------------------------------- metrics
    def worker_liveness(self, timeout: float = 0.5) -> List[dict]:
        """Ping every endpoint; per-worker liveness plus its own counters."""
        report = []
        for address in self.endpoints():
            entry: dict = {"address": _format_address(address)}
            try:
                reply, _ = worker_request(address, {"op": "stats"},
                                          timeout=timeout)
                entry["alive"] = reply.get("status") == protocol.STATUS_OK
                entry["stats"] = reply.get("stats", {})
                entry["datasets"] = reply.get("datasets", [])
            except (OSError, protocol.ProtocolError) as exc:
                entry["alive"] = False
                entry["error"] = f"{type(exc).__name__}: {exc}"
            report.append(entry)
        return report

    def distributed_snapshot(self, liveness_timeout: float = 0.5) -> dict:
        """Liveness + dispatch counters for the service stats endpoint."""
        with self._lock:
            counters = self.stats.snapshot()
        workers = self.worker_liveness(timeout=liveness_timeout)
        return {"workers": workers,
                "workers_alive": sum(1 for w in workers if w.get("alive")),
                "workers_total": len(workers),
                **counters}


class _TcpTransport(Transport):
    """Shard requests to worker endpoints, ``window`` connections each.

    :meth:`submit` builds the request frame in the caller's thread and
    queues it for the endpoint; each connection thread runs one
    request/stream round-trip at a time and posts the outcome.  A queued
    copy whose shard got covered meanwhile is skipped without a round-trip.
    """

    def __init__(self, backend: DistributedBackend,
                 endpoints: Sequence[Address], dataset: str) -> None:
        super().__init__()
        self.backend = backend
        self.dataset = dataset
        self.workers = [_format_address(address) for address in endpoints]
        self.window = backend.window
        self._addresses = dict(zip(self.workers, endpoints))
        self._queues: Dict[str, "queue.Queue"] = {
            name: queue.Queue() for name in self.workers}
        # Thread-locals don't cross threads: capture the caller's token.
        self._token = current_token()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._sockets: Set[socket.socket] = set()
        self._sockets_lock = threading.Lock()

    def start(self, covered: Set[int]) -> None:
        for name, address in self._addresses.items():
            for slot in range(self.window):
                thread = threading.Thread(
                    target=self._serve, args=(name, address, covered),
                    name=f"repro-dist-{name}#{slot}", daemon=True)
                thread.start()
                self._threads.append(thread)

    def submit(self, worker, task, op) -> None:
        kind, params, array = op.request(task)
        header = {**params, "op": f"{kind}_shard", "dataset": self.dataset,
                  "shard": list(task.key),
                  "chunk_pairs": self.backend.chunk_pairs}
        payload = b""
        if array is not None:
            header["arrays"], payload = protocol.pack_arrays(
                [(SHARD_ARRAYS[kind], array)])
        self._queues[worker].put((task, header, payload))
        with self.backend._lock:
            self.backend.stats.shards_dispatched += 1

    def close(self) -> None:
        self._stop.set()
        # Closing in-flight sockets interrupts connection threads blocked in
        # recv on a long shard, so cancellation returns promptly.
        with self._sockets_lock:
            sockets = list(self._sockets)
            self._sockets.clear()
        for sock in sockets:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)

    def _serve(self, name: str, address: Address, covered: Set[int]) -> None:
        work = self._queues[name]
        while not self._stop.is_set():
            try:
                task, header, payload = work.get(timeout=POLL_SECONDS)
            except queue.Empty:
                continue
            if task.root in covered:
                self.events.put(("skip", name, task))
                continue
            self.events.put(("start", name, task))
            try:
                chunks, end = self._request(address, header, payload)
            except (OSError, protocol.ProtocolError) as exc:
                if not self._stop.is_set():
                    with self.backend._lock:
                        self.backend.stats.worker_failures += 1
                    self.events.put(("dead", name, task,
                                     f"{type(exc).__name__}: {exc}"))
                return  # endpoint presumed dead; survivors drain its work
            final = end.get("final")
            if final == "ok":
                self.events.put(("done", name, task, chunks,
                                 stats_from_wire(end.get("stats") or {})))
            elif final in ("timeout", "cancelled"):
                self.events.put(("failed", name, task,
                                 f"worker-side {final}"))
            else:
                self.events.put(("error", name, task, WorkerTaskFailed(
                    f"shard {task.key} failed on worker {name}: "
                    f"{end.get('message', end)}")))

    def _request(self, address: Address, header: dict, payload: bytes,
                 ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], dict]:
        """One shard round-trip: send the request, collect its chunk stream."""
        backend = self.backend
        header = dict(header)
        if backend.debug_shard_sleep_ms > 0:
            header["debug_sleep_ms"] = backend.debug_shard_sleep_ms
        token = self._token
        if token is not None and token.deadline is not None:
            # Thread the parent deadline into the remote work: the worker
            # self-cancels when the budget lapses, so an expired request
            # stops burning remote CPU even before this side unwinds.
            header["deadline_ms"] = max(1.0, token.remaining() * 1000.0)
        sock = socket.create_connection(address,
                                        timeout=backend.connect_timeout)
        with self._sockets_lock:
            self._sockets.add(sock)
        try:
            sock.settimeout(None)   # shard compute takes as long as it takes
            sock.sendall(protocol.encode_frame(header, payload))
            chunks: List[Tuple[np.ndarray, np.ndarray]] = []
            while True:
                frame = protocol.read_frame_sock(sock, backend.max_payload)
                if frame is None:
                    raise protocol.ProtocolError(
                        "worker closed the connection mid-shard")
                fheader, fpayload = frame
                status = fheader.get("status")
                if status == protocol.STATUS_CHUNK:
                    arrays = protocol.unpack_arrays(
                        fheader.get("arrays", []), fpayload)
                    chunks.append((arrays["keys"], arrays["values"]))
                elif status == protocol.STATUS_END:
                    return chunks, fheader
                else:
                    raise protocol.ProtocolError(
                        f"unexpected frame status {status!r} in a shard "
                        "response")
        finally:
            with self._sockets_lock:
                self._sockets.discard(sock)
            sock.close()
