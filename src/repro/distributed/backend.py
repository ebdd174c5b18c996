"""The ``distributed`` execution backend: shard work farmed to TCP workers.

:class:`DistributedBackend` is the same cost-balanced shard decomposition
as :mod:`repro.parallel.sharded` / :mod:`repro.parallel.mp`, executed by
:class:`~repro.distributed.worker.WorkerServer` processes over sockets:

* ``attach()`` ships the session dataset to every worker **once** — as a
  :class:`~repro.data.store.SpatialStore` path each worker memory-maps
  locally (nothing dataset-sized crosses the wire) or as arrays shipped
  one time — after which every query of the session dispatches shard
  requests against the workers' resident per-ε index caches.
* Shards are *planned* by the same sampled cost model as the local
  backends (``estimate_cell_costs`` inside
  :class:`~repro.parallel.shards.ShardPlanner` for self-joins,
  ``estimate_probe_row_costs`` / ``split_by_cost`` for probes) and
  *executed* by the pull-based work-stealing scheduler of
  :mod:`repro.parallel.scheduler`: ~4× oversplit, largest shards first, a
  bounded per-worker outstanding ``window``, an EWMA of observed
  per-worker throughput steering steals and mid-join rebalances away from
  slow workers, in-flight resplitting at B-order boundaries when the
  queue runs dry, and hedging only as the last resort
  (``scheduling="static"`` pins the cost-balanced initial assignment
  instead — the benchmark baseline).
* Returned pair fragments stream **straight into the caller's sink** in
  B-order shard order (out-of-order completions are buffered per shard id
  by :class:`~repro.parallel.scheduler.OrderedShardMerger`) — the merge
  path is the one every other backend uses, results are bit-identical to
  static assignment regardless of completion order, worker count or
  injected stragglers, and for the disk-streamed path peak parent RSS
  stays O(largest shard).
* A shard on a **dead** worker (connection drop, process kill) is
  re-dispatched to the survivors; duplicates (hedges, resplit halves,
  re-dispatches) are deduplicated by shard key, so results stay
  bit-identical under every fault mode.
* The cooperative-cancellation scope of the calling thread
  (:mod:`repro.utils.cancellation`) is threaded through the dispatch
  loop *and* into every shard request as a ``deadline_ms`` budget, so an
  expired request both unwinds the parent promptly and stops the
  outstanding **remote** work at its next worker-side checkpoint.

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
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.batching import estimate_probe_row_costs, split_by_cost
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats
from repro.core.nativekernels import parse_kernel_spec
from repro.data.store import dataset_identity
from repro.engine.backends import (
    ExecutionBackend,
    compose_kernel_spec,
    get_backend,
    register_backend,
    _probe_rows,
)
from repro.distributed.worker import (
    DEFAULT_CHUNK_PAIRS,
    stats_from_wire,
)
from repro.parallel.scheduler import (
    OVERSPLIT_FACTOR,
    SCHEDULING_MODES,
    OrderedShardMerger,
    ScheduleExhausted,
    ShardTask,
    WorkStealingScheduler,
)
from repro.parallel.shards import ShardPlanner, default_worker_count
from repro.service import protocol
from repro.utils.cancellation import check_cancelled, current_token

#: Environment override for the bare ``distributed`` spec: an integer spawns
#: that many localhost workers; ``host:port,host:port`` uses running ones.
WORKERS_ENV_VAR = "REPRO_DISTRIBUTED_WORKERS"

#: How long to wait for a spawned worker subprocess to print its banner.
_SPAWN_BANNER_TIMEOUT = 30.0

#: Poll granularity of the dispatch loop and the endpoint threads' task
#: queue — also how often the parent's cancellation token is checked.
_POLL_SECONDS = 0.05


class WorkerTaskFailed(RuntimeError):
    """A shard could not be completed by any worker (or a worker reported a
    deterministic error, which re-dispatching would only repeat)."""


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
    transport: str                  # "store" | "arrays"
    store_path: Optional[str]
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


@dataclass
class _RequestContext:
    """Builds the wire request for any copy of one operator's shard tasks.

    Requests are built *at dispatch time* from the :class:`ShardTask`
    itself, so a mid-join resplit child — whose cell slice did not exist at
    planning time — ships exactly its own half of the parent's cells (or
    probe rows, or store directory span).
    """

    op: str                              # selfjoin_shard|probe_shard|stream_shard
    dataset: str
    base: dict                           # op-specific constant header fields
    queries: Optional[np.ndarray] = None  # probe: full query array

    def build(self, task: ShardTask) -> Tuple[dict, bytes]:
        header = dict(self.base)
        header["op"] = self.op
        header["dataset"] = self.dataset
        header["shard"] = list(task.key)
        if self.op == "selfjoin_shard":
            meta, payload = protocol.pack_arrays([("cells", task.cells)])
            header["arrays"] = meta
            return header, payload
        if self.op == "probe_shard":
            meta, payload = protocol.pack_arrays(
                [("queries", self.queries[task.cells])])
            header["arrays"] = meta
            return header, payload
        header["lo"], header["hi"] = int(task.span[0]), int(task.span[1])
        return header, b""

    def key_map(self, task: ShardTask) -> Optional[np.ndarray]:
        """Probe shards re-base slice-local result rows onto global rows."""
        return task.cells if self.op == "probe_shard" else None


# --------------------------------------------------------------------------
# the backend
# --------------------------------------------------------------------------
@register_backend
class DistributedBackend(ExecutionBackend):
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
    supports_cell_subset = True
    owns_decomposition = True
    supports_streaming = True

    def __init__(self, *spec, inner: str = "vectorized",
                 n_shards: Optional[int] = None, seed: int = 0,
                 kernel: str = "auto", scheduling: str = "adaptive",
                 window: int = 1, hedge_after: float = 0.25,
                 connect_timeout: float = 10.0,
                 chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
                 debug_shard_sleep_ms: float = 0.0,
                 store_root: Optional[str] = None) -> None:
        self.kernel_spec = str(kernel)
        parse_kernel_spec(self.kernel_spec)  # fail fast on typos
        self.inner_name = compose_kernel_spec(str(inner), self.kernel_spec)
        self.n_shards = int(n_shards) if n_shards is not None else None
        self.seed = int(seed)
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
        self._open_sockets: Set[socket.socket] = set()
        self._sockets_lock = threading.Lock()

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
    @property
    def inner(self) -> ExecutionBackend:
        """The backend each worker executes per shard (local resolution)."""
        return get_backend(self.inner_name)

    @property
    def supports_unicomp(self) -> bool:  # type: ignore[override]
        return self.inner.supports_unicomp

    def kernel_tier(self) -> str:
        """The inner spec's tier as it resolves *here* (workers re-resolve)."""
        return self.inner.kernel_tier()

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

    def _resolved_shards(self, n_endpoints: int) -> int:
        return self.n_shards or max(1, n_endpoints) * OVERSPLIT_FACTOR

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
                             transport="arrays", store_path=None,
                             points=points)

    def _attach_store(self, descriptor: str,
                      key: Optional[tuple] = None) -> _DatasetState:
        resolved = str(Path(descriptor).resolve())
        name = "store-" + hashlib.blake2b(resolved.encode(),
                                          digest_size=8).hexdigest()
        header = {"op": "attach", "dataset": name, "inner": self.inner_name,
                  "store_path": resolved}
        self._attach_rpc(header, b"")
        return _DatasetState(key=key or (("store", resolved),), name=name,
                             transport="store", store_path=resolved,
                             points=None)

    def _attach_rpc(self, header: dict, payload: bytes) -> None:
        """Attach the dataset on **all** workers concurrently.

        The per-worker attach RPCs are independent (each worker maps the
        store / unpacks the arrays and builds nothing shared), so they run
        under one ``asyncio.gather`` — cold-start latency is the *slowest*
        worker's attach, not the sum of all of them (~N× faster than the
        sequential loop this replaces, for N workers).
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
        for address, reply in zip(endpoints, replies):
            if isinstance(reply, BaseException):
                raise WorkerTaskFailed(
                    f"attach to worker {_format_address(address)} failed: "
                    f"{type(reply).__name__}: {reply}") from reply
            with self._lock:
                self.stats.attach_rpcs += 1
            if reply.get("status") != protocol.STATUS_OK:
                raise WorkerTaskFailed(
                    f"attach to worker {_format_address(address)} failed: "
                    f"{reply.get('message', reply)}")
        with self._lock:
            self.stats.datasets_attached += 1

    def _detach_everywhere(self, state: _DatasetState) -> None:
        for address in self.endpoints():
            try:
                worker_request(address,
                               {"op": "detach", "dataset": state.name},
                               timeout=2.0)
            except (OSError, protocol.ProtocolError):
                pass  # a dead worker has nothing to detach
        with self._lock:
            self.stats.datasets_detached += 1

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
            return None
        resolved = str(Path(descriptor).resolve())
        with self._lock:
            for state in self._active.values():
                if state.store_path == resolved:
                    return state
        return None

    # ------------------------------------------------------------- operators
    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        endpoints = self.endpoints()
        plan = ShardPlanner(n_shards=self._resolved_shards(len(endpoints)),
                            seed=self.seed).plan(index, cells)
        state = self._state_for_points(index.points)
        ephemeral = state is None
        if ephemeral:
            # One-shot call outside a session: ship the arrays for this
            # call and drop the attachment afterwards (use a session to
            # amortize the shipping, exactly like the multiprocess pool).
            state = self._attach_arrays(index.points)
        try:
            tasks = []
            for shard, cell_costs in zip(plan.shards, plan.cell_costs):
                if shard.shape[0] == 0:
                    continue
                tasks.append(ShardTask(
                    key=(len(tasks),), cost=float(cell_costs.sum()),
                    kind="selfjoin", cells=shard, item_costs=cell_costs))
            ctx = _RequestContext(op="selfjoin_shard", dataset=state.name,
                                  base={
                "index_eps": float(index.eps), "eps": float(eps),
                "unicomp": bool(unicomp),
                "max_candidate_pairs": int(max_candidate_pairs),
                "chunk_pairs": self.chunk_pairs})
            return self._execute_tasks(endpoints, tasks, ctx, sink)
        finally:
            if ephemeral:
                self._detach_everywhere(state)

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        rows = _probe_rows(queries, rows)
        if rows.shape[0] == 0:
            return KernelStats()
        endpoints = self.endpoints()
        state = self._state_for_points(index.points)
        ephemeral = state is None
        if ephemeral:
            state = self._attach_arrays(index.points)
        try:
            costs = estimate_probe_row_costs(queries[rows], index,
                                             seed=self.seed)
            queries_arr = np.asarray(queries, dtype=np.float64)
            # Workers emit slice-local keys; the task's global row ids
            # (``cells``) double as the key_map re-basing them at merge
            # time (each query row crosses the wire once per query copy,
            # not once per task).
            tasks = []
            for group in split_by_cost(costs,
                                       self._resolved_shards(len(endpoints))):
                if group.shape[0] == 0:
                    continue
                tasks.append(ShardTask(
                    key=(len(tasks),), cost=float(costs[group].sum()),
                    kind="probe", cells=rows[group],
                    item_costs=costs[group].astype(np.float64)))
            ctx = _RequestContext(op="probe_shard", dataset=state.name,
                                  queries=queries_arr, base={
                "index_eps": float(index.eps), "eps": float(eps),
                "max_candidate_pairs": int(max_candidate_pairs),
                "chunk_pairs": self.chunk_pairs})
            return self._execute_tasks(endpoints, tasks, ctx, sink)
        finally:
            if ephemeral:
                self._detach_everywhere(state)

    def run_selfjoin_streamed(self, source, eps, sink, *, unicomp=False,
                              max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS,
                              ) -> KernelStats:
        """Disk-streamed self-join, each shard read by its *worker* from the
        shared store path.

        Neither the dataset nor any index is materialized in the parent:
        workers read their owned cell range plus ε-halo from their own
        mapping of the store and return pairs in global ids.  ``unicomp``
        is accepted for interface uniformity (the streamed recipe computes
        full neighborhoods; results are identical either way).  Requires
        every worker to reach the store path — localhost workers share the
        filesystem; multi-node deployments need a shared mount.
        """
        descriptor = source.storage_descriptor()
        if descriptor is None:
            raise ValueError("the distributed streamed self-join needs a "
                             "path-addressable store "
                             "(source.storage_descriptor() is None)")
        endpoints = self.endpoints()
        state = self._state_for_source(source)
        ephemeral = state is None
        if ephemeral:
            state = self._attach_store(descriptor)
        try:
            counts = source.cell_counts.astype(np.float64)
            slices = split_by_cost(counts,
                                   self._resolved_shards(len(endpoints)))
            tasks = []
            for cells in slices:
                if cells.shape[0] == 0:
                    continue
                lo, hi = int(cells[0]), int(cells[-1]) + 1
                tasks.append(ShardTask(
                    key=(len(tasks),), cost=float(counts[lo:hi].sum()),
                    kind="stream", span=(lo, hi),
                    item_costs=counts[lo:hi]))
            ctx = _RequestContext(op="stream_shard", dataset=state.name,
                                  base={
                "eps": float(eps),
                "max_candidate_pairs": int(max_candidate_pairs),
                "chunk_pairs": self.chunk_pairs})
            return self._execute_tasks(endpoints, tasks, ctx, sink)
        finally:
            if ephemeral:
                self._detach_everywhere(state)

    # ----------------------------------------------------------- dispatch loop
    def _execute_tasks(self, endpoints: Sequence[Address],
                       tasks: List[ShardTask], ctx: _RequestContext,
                       sink) -> KernelStats:
        """Schedule shard tasks across the workers; merge into ``sink``.

        The :class:`~repro.parallel.scheduler.WorkStealingScheduler` owns
        every dispatch decision; this loop is its event pump.  ``window``
        connection threads per endpoint pull built requests off that
        endpoint's queue, run the request/stream round-trip and post events
        back; this loop feeds each worker while its outstanding count is
        under ``window``, and all sink emission goes through the
        :class:`~repro.parallel.scheduler.OrderedShardMerger`, so fragments
        reach the sink strictly in B-order shard order no matter the
        completion order.  Failure semantics:

        * socket/protocol error → the endpoint is considered dead, its
          queued and in-flight shards re-queued for the survivors
          (``shards_redispatched``); all endpoints dead raises.
        * worker-side ``timeout``/``cancelled`` → re-queued **unless the
          shard is already covered** — a cancelled hedge whose original
          completed is dropped without a retry and without counting as
          hedge waste (if the *parent's* deadline expired,
          ``check_cancelled()`` unwinds this loop first).
        * worker-side ``error`` → raised immediately (deterministic
          failures don't improve with retries); per-shard attempts are
          bounded either way.
        * queue dry → the scheduler first *splits* the largest in-flight
          shard at a B-order boundary and races the halves; hedging a full
          duplicate is the last resort for unsplittable work.
        """
        stats = KernelStats()
        if not tasks:
            return stats
        token = current_token()   # thread-locals don't cross threads: capture
        names = [_format_address(address) for address in endpoints]
        sched = WorkStealingScheduler(
            tasks, names, mode=self.scheduling, hedge_after=self.hedge_after,
            max_attempts=len(endpoints) + 2)
        merger = OrderedShardMerger(sink, sched.roots)
        #: Counters of accepted copies, merged only once a copy is chosen to
        #: cover its root (a resplit half and its original can both finish).
        copy_stats: Dict[Tuple[int, ...], KernelStats] = {}
        #: Roots already covered — read lock-free by endpoint threads to
        #: skip stale queued copies before wasting a round-trip on them.
        covered: Set[int] = set()
        events: "queue.Queue" = queue.Queue()
        stop = threading.Event()
        endpoint_queues: Dict[str, "queue.Queue"] = {
            name: queue.Queue() for name in names}
        threads: List[threading.Thread] = []
        for name, address in zip(names, endpoints):
            for slot in range(self.window):
                thread = threading.Thread(
                    target=self._endpoint_worker,
                    args=(name, address, endpoint_queues[name], events, stop,
                          covered, token),
                    name=f"repro-dist-{name}#{slot}", daemon=True)
                thread.start()
                threads.append(thread)

        def _fill(now: float) -> None:
            """Pull work for every worker with window capacity."""
            for name in sched.alive_workers():
                while sched.outstanding_count(name) < self.window:
                    task = sched.next_task(name, now)
                    if task is None:
                        break
                    header, payload = ctx.build(task)
                    endpoint_queues[name].put((task, header, payload))
                    with self._lock:
                        self.stats.shards_dispatched += 1

        try:
            _fill(time.monotonic())
            while not sched.finished():
                check_cancelled()
                try:
                    event = events.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    now = time.monotonic()
                    sched.maybe_rebalance(now)
                    _fill(now)
                    continue
                now = time.monotonic()
                kind, name = event[0], event[1]
                if kind == "start":
                    sched.on_start(name, event[2].key, event[3])
                elif kind == "skip":
                    sched.on_skipped(name, event[2].key)
                elif kind == "done":
                    _, _, task, chunks, end = event
                    final = end.get("final")
                    if final == "ok":
                        completion = sched.on_complete(
                            name, task.key, now,
                            pairs=int(end.get("pairs", 0) or 0))
                        if completion.accepted:
                            merger.stash(task.key, chunks,
                                         key_map=ctx.key_map(task))
                            copy_stats[tuple(task.key)] = stats_from_wire(
                                end.get("stats") or {})
                        if completion.newly_covered is not None:
                            root, chosen = completion.newly_covered
                            covered.add(root)
                            merger.complete(root, chosen)
                            for key in chosen:
                                stats.merge(copy_stats.pop(tuple(key)))
                    elif final in ("timeout", "cancelled"):
                        sched.on_failure(name, task.key, now,
                                         reason=f"worker-side {final}")
                    else:
                        raise WorkerTaskFailed(
                            f"shard {task.key} failed on worker {name}: "
                            f"{end.get('message', end)}")
                elif kind == "dead":
                    _, _, task, message = event
                    with self._lock:
                        self.stats.worker_failures += 1
                    sched.on_worker_dead(name, now)
                    if not sched.alive_workers():
                        raise WorkerTaskFailed(
                            "no distributed workers left alive; last "
                            f"failure on {name}: {message}")
                _fill(time.monotonic())
        except ScheduleExhausted as exc:
            raise WorkerTaskFailed(str(exc)) from exc
        finally:
            stop.set()
            # Closing in-flight sockets interrupts endpoint threads blocked
            # in recv on a long shard, so cancellation returns promptly.
            self._close_open_sockets()
            for thread in threads:
                thread.join(timeout=5.0)
        report = sched.finalize_report(
            achieved_cost=float(stats.distance_calcs))
        stats.schedule_counts = report.counts()
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
        return stats

    # ------------------------------------------------------- endpoint threads
    def _endpoint_worker(self, name: str, address: Address,
                         work_queue: "queue.Queue", events: "queue.Queue",
                         stop: threading.Event, covered: Set[int],
                         token) -> None:
        while not stop.is_set():
            try:
                task, header, payload = work_queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
            if task.root in covered:
                # Stale copy: its shard was covered while this was queued.
                events.put(("skip", name, task))
                continue
            events.put(("start", name, task, time.monotonic()))
            try:
                chunks, end = self._request_shard(address, header, payload,
                                                  token)
            except (OSError, protocol.ProtocolError) as exc:
                if not stop.is_set():
                    events.put(("dead", name, task,
                                f"{type(exc).__name__}: {exc}"))
                return  # endpoint presumed dead; let survivors drain the queue
            events.put(("done", name, task, chunks, end))

    def _request_shard(self, address: Address, header: dict, payload: bytes,
                       token,
                       ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], dict]:
        """One shard round-trip: send the request, collect its chunk stream."""
        header = dict(header)
        if self.debug_shard_sleep_ms > 0:
            header["debug_sleep_ms"] = self.debug_shard_sleep_ms
        if token is not None and token.deadline is not None:
            # Thread the parent deadline into the remote work: the worker
            # self-cancels when the budget lapses, so an expired request
            # stops burning remote CPU even before this side unwinds.
            header["deadline_ms"] = max(1.0, token.remaining() * 1000.0)
        sock = socket.create_connection(address,
                                        timeout=self.connect_timeout)
        with self._sockets_lock:
            self._open_sockets.add(sock)
        try:
            sock.settimeout(None)   # shard compute takes as long as it takes
            sock.sendall(protocol.encode_frame(header, payload))
            chunks: List[Tuple[np.ndarray, np.ndarray]] = []
            while True:
                frame = protocol.read_frame_sock(sock, self.max_payload)
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
                self._open_sockets.discard(sock)
            sock.close()

    def _close_open_sockets(self) -> None:
        with self._sockets_lock:
            sockets = list(self._open_sockets)
            self._open_sockets.clear()
        for sock in sockets:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

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
