"""TCP shard worker: one process serving shard work over the service frames.

A :class:`WorkerServer` is the remote half of the ``distributed`` backend
(:mod:`repro.distributed.backend`).  It is the query service's frame
server (:mod:`repro.service.framing`: listener, connection loop,
``ping``/``shutdown``, shutdown order) speaking the service's frames and
array codec (:mod:`repro.service.protocol`) with their size bounds.  It
adds ``attach``/``detach``, ``stats`` and the shard ops on its compute
executor, which its teardown shuts down.

A dataset is **attached once** — as a :class:`~repro.data.store.SpatialStore`
path the worker memory-maps locally (the points never cross the wire) or
as arrays shipped one time — into a
:class:`~repro.parallel.compute.ShardDataset`, whose per-ε index LRU every
later shard request reuses.  Store attachments index the stored (B-order)
rows and translate emitted ids back through the store's id directory, so
results are bit-identical to in-memory execution.

Shard operations (``selfjoin_shard``, ``probe_shard`` and the
disk-streamed ``stream_shard``) compute with the shard body every
transport shares, :func:`repro.parallel.compute.run_shard`, and respond
with zero or more ``status: "chunk"`` frames of the pair arrays, then a
``status: "end"`` frame with the final status, pair total and
:class:`~repro.core.kernels.KernelStats` snapshot.  A chunk carries
``keys`` and ``values`` as ``int32`` ids while the dataset has fewer than
``2 ** 31`` points (:func:`wire_id_dtype`), and for a UNICOMP self-join a
``bool`` ``twice`` array: a flagged match also stands for its reverse
pair, so each mirrored pair crosses the wire once (9 bytes, not two int64
pairs' 32).
A request's ``deadline_ms`` budget runs the compute inside a
:func:`~repro.utils.cancellation.cancel_scope`, so a parent whose deadline
lapsed stops burning *remote* CPU within one cancellation checkpoint.  A
shard request that fails, its header included, is answered with a
``final: "error"`` end frame and counted in ``shards_failed``.

``store_root`` restricts which paths a worker will memory-map (the
``--store-root`` flag of the ``repro-worker`` CLI): attach requests naming
a store outside that directory are rejected before any file is touched.

Run standalone via ``repro-worker`` (:mod:`repro.distributed.__main__`) or
in-process via :class:`WorkerThread` (the test harness).
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

from repro.core.nativekernels import parse_kernel_spec
from repro.core.result import expanded_pairs
from repro.parallel.compute import ShardDataset, run_shard
from repro.service import protocol
from repro.service.framing import FrameServer, FrameServerThread
from repro.utils.cancellation import (
    CancellationToken,
    OperationCancelled,
    cancel_scope,
    check_cancelled,
)
from repro.utils.counters import Counters, snapshot

#: Default bound on compact result pairs per streamed ``chunk`` frame; at
#: 9 bytes a pair (int32 ids and a flag) this keeps one frame's payload
#: around 2.4 MB, far under the codec's payload bound.
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


def wire_id_dtype(n_ids: int) -> np.dtype:
    """The id dtype of a shard's result chunks: ``int32`` while every id
    (below ``n_ids``: dataset points, or a probe slice's rows) fits it,
    ``int64`` from ``2 ** 31`` ids on."""
    return np.dtype(np.int32 if n_ids < 2 ** 31 else np.int64)


@dataclass
class WorkerStats(Counters):
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


def _interruptible_sleep(seconds: float) -> None:
    """Sleep in checkpointed slices so a deadline interrupts it promptly."""
    end = time.monotonic() + float(seconds)
    while True:
        check_cancelled()
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(_SLEEP_CHECK_SECONDS, remaining))


class WorkerServer(FrameServer):
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
        super().__init__(host, port, max_payload=max_payload)
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
        self.stats = WorkerStats()
        self._datasets: Dict[str, ShardDataset] = {}
        self._lock = threading.Lock()   # guards _datasets
        self._executor = ThreadPoolExecutor(
            max_workers=int(compute_threads),
            thread_name_prefix="repro-worker")

    def _on_closed(self) -> None:
        self._executor.shutdown(wait=False)

    # ---------------------------------------------------------------- requests
    async def _dispatch(self, writer: asyncio.StreamWriter, header: dict,
                        payload: bytes) -> None:
        op = header.get("op")
        if op in ("selfjoin_shard", "probe_shard", "stream_shard"):
            frames = await self._loop.run_in_executor(
                self._executor, self._run_shard_op, header, payload)
            for fhead, fpayload in frames:
                await self._write(writer, fhead, fpayload)
        elif op == "attach":
            # Store opening / index-free array unpack is cheap but still
            # I/O: keep the event loop responsive.
            await self._write(writer, await self._loop.run_in_executor(
                self._executor, self._op_attach, header, payload))
        elif op == "stats":
            with self._lock:
                datasets = sorted(self._datasets)
            await self._write(writer, {"status": protocol.STATUS_OK,
                                       "stats": self.stats.snapshot(),
                                       "datasets": datasets})
        elif op == "detach":
            with self._lock:
                state = self._datasets.pop(str(header.get("dataset")), None)
            await self._write(writer, {"status": protocol.STATUS_OK,
                                       "detached": state is not None})
        else:
            await super()._dispatch(writer, header, payload)

    def _op_attach(self, header: dict, payload: bytes) -> dict:
        name = str(header.get("dataset"))
        try:
            kernel = parse_kernel_spec(header.get("kernel", "auto"))
        except ValueError as exc:
            return {"status": protocol.STATUS_ERROR,
                    "message": f"attach failed: {exc}"}
        with self._lock:
            state = self._datasets.get(name)
        if state is not None:
            # Idempotent by dataset name: a re-dispatching parent (or a
            # second backend instance over the same dataset) finds the
            # attachment already resident, on the tier it was attached with.
            if state.kernel != kernel:
                return {"status": protocol.STATUS_ERROR,
                        "message": f"dataset {name!r} is attached with "
                                   f"kernel {state.kernel!r}, not {kernel!r}"}
            return {"status": protocol.STATUS_OK, "dataset": name,
                    "n_points": int(state.points.shape[0]),
                    "n_dims": int(state.points.shape[1]),
                    "transport": "cached"}
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
                # Imported here: a worker that is shipped its points never
                # loads the store module (nor its json/hashlib imports).
                from repro.data.store import SpatialStore

                state = ShardDataset.from_store(SpatialStore.open(resolved),
                                                kernel)
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
                state = ShardDataset(points=points, kernel=kernel)
        except (OSError, ValueError, protocol.ProtocolError) as exc:
            return {"status": protocol.STATUS_ERROR,
                    "message": f"attach failed: {exc}"}
        mapped = state.store is not None
        with self._lock:
            self._datasets[name] = state
        self.stats.add(datasets_attached=1, **{
            "datasets_mapped" if mapped else "datasets_shipped": 1})
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
        try:
            token = (None if deadline_ms is None else
                     CancellationToken.with_timeout(float(deadline_ms) / 1e3))
            chunk_pairs = max(1, int(header.get("chunk_pairs",
                                                DEFAULT_CHUNK_PAIRS)))
            with cancel_scope(token):
                sleep_ms = max(float(header.get("debug_sleep_ms", 0) or 0),
                               self.debug_shard_sleep_ms)
                if sleep_ms > 0:
                    _interruptible_sleep(sleep_ms / 1000.0)
                arrays = protocol.unpack_arrays(header.get("arrays", []),
                                                payload)
                array = arrays.get(SHARD_ARRAYS.get(kind))
                keys, values, twice, stats = run_shard(state, kind, header,
                                                       array)
        except OperationCancelled as exc:
            self.stats.add(shards_cancelled=1)
            final = "timeout" if exc.is_deadline else "cancelled"
            return [({"status": protocol.STATUS_END, "final": final,
                      "shard": shard, "message": exc.reason}, b"")]
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            self.stats.add(shards_failed=1)
            return [({"status": protocol.STATUS_END, "final": "error",
                      "shard": shard,
                      "message": f"{type(exc).__name__}: {exc}"}, b"")]

        ids = wire_id_dtype(max(state.points.shape[0],
                                0 if array is None else array.shape[0]))
        keys = keys.astype(ids, copy=False)
        values = values.astype(ids, copy=False)
        frames: List[Tuple[dict, bytes]] = []
        for seq, lo in enumerate(range(0, keys.shape[0], chunk_pairs)):
            hi = lo + chunk_pairs
            chunk = [("keys", keys[lo:hi]), ("values", values[lo:hi])]
            if twice is not None:
                chunk.append(("twice", twice[lo:hi]))
            meta, chunk_payload = protocol.pack_arrays(chunk)
            frames.append(({"status": protocol.STATUS_CHUNK, "shard": shard,
                            "seq": seq, "arrays": meta}, chunk_payload))
        pairs = expanded_pairs(keys, values, twice)
        frames.append(({"status": protocol.STATUS_END, "final": "ok",
                        "shard": shard, "pairs": pairs,
                        "chunks": len(frames),
                        "stats": snapshot(stats)}, b""))
        self.stats.add(**{_SHARD_COUNTERS[kind]: 1}, pairs_returned=pairs,
                       chunks_sent=len(frames) - 1)
        return frames


class WorkerThread(FrameServerThread):
    """In-process worker harness: a :class:`WorkerServer` on its own loop.

    Parity tests spin several of these instead of subprocesses, so the full
    matrix stays fast while exercising the real sockets and frames.  Use as
    a context manager; :attr:`address` is valid once the context is entered.
    """

    def __init__(self, **server_kwargs) -> None:
        super().__init__(WorkerServer(**server_kwargs))
