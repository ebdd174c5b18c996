"""Admission scheduling and request fusion for the query service.

A burst of single-point range (or kNN) queries against the same
``(dataset, ε)`` — the signature workload of "many users, one resident
catalog" — is fused into **one** bipartite probe per scheduler tick, run
through the session backend's probe operator (a ``sharded`` or parallel
backend splits it into cost-balanced shards itself), and the CSR result is
de-multiplexed back into per-client slices.  The per-row answers are
bit-identical to running each query alone: the probe operator's pair set
for a row depends only on that row's point.

Everything here is synchronous and socket-free so the fusion and deadline
logic can be unit-tested in isolation; :mod:`repro.service.server` provides
the asyncio plumbing (admission queue, tick loop, response streaming)
around it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.knn import knn_search
from repro.core.result import PairFragments, expand_mirrored
from repro.engine.session import EngineSession
from repro.service import protocol
from repro.service.catalog import SessionCatalog
from repro.utils.cancellation import (
    CancellationToken,
    OperationCancelled,
    cancel_scope,
)

#: Result pairs per streamed response chunk (bounded frames, ~1 MiB each).
DEFAULT_CHUNK_PAIRS = 65536

#: Ops whose single-point instances the scheduler may fuse.
FUSABLE_OPS = frozenset({"range_query", "knn"})

#: Ops admitted through the scheduler queue (vs. control-plane ops the
#: connection handles inline).
QUERY_OPS = frozenset({"range_query", "knn", "self_join", "bipartite_join",
                       "_sleep"})

#: Ops whose results stream back as chunked CSR pair frames.
STREAMING_OPS = frozenset({"range_query", "self_join", "bipartite_join"})


@dataclass
class Outcome:
    """Terminal result of one request, ready to serialize.

    ``status`` is one of the protocol statuses; ``end`` holds JSON-safe
    fields for the terminal frame; ``arrays`` carries a single-frame array
    response (kNN) — streamed CSR chunks travel through the request's
    stream instead.
    """

    status: str
    end: Dict[str, Any] = field(default_factory=dict)
    arrays: Optional[List[Tuple[str, np.ndarray]]] = None
    message: str = ""


@dataclass
class PendingRequest:
    """One admitted query waiting for (or undergoing) execution."""

    op: str
    dataset: str
    eps: Optional[float] = None
    k: Optional[int] = None
    points: Optional[np.ndarray] = None
    unicomp: bool = True
    include_self: bool = True
    fuse: bool = True
    seconds: float = 0.0  # _sleep only
    token: CancellationToken = field(default_factory=CancellationToken)
    #: Duck-typed chunk stream (``post``/``abort`` attrs) for streaming ops.
    stream: Any = None
    #: Server-installed callback resolving this request with an Outcome.
    resolve: Callable[["PendingRequest", Outcome], None] = lambda req, out: None
    received: float = field(default_factory=time.monotonic)

    @property
    def fusable(self) -> bool:
        """Single-point instance of a fusable op (and fusion not opted out)."""
        return (self.fuse and self.op in FUSABLE_OPS
                and self.points is not None and self.points.shape[0] == 1)

    def fusion_key(self) -> Optional[tuple]:
        """Group key for fusion — same (op, dataset, parameter) fuse together."""
        if not self.fusable:
            return None
        if self.op == "range_query":
            return ("range_query", self.dataset, float(self.eps))
        return ("knn", self.dataset, int(self.k))


@dataclass
class WorkUnit:
    """One schedulable execution: a single request or a fused batch."""

    kind: str  # "single" | "fused_range" | "fused_knn"
    requests: List[PendingRequest]

    @property
    def fused(self) -> bool:
        return self.kind != "single"


def plan_tick(requests: Sequence[PendingRequest]) -> List[WorkUnit]:
    """Group one tick's admitted requests into work units.

    Fusable point queries sharing a fusion key become one fused unit (two
    or more members); everything else executes as a single unit.  Member
    order — and therefore the fused probe-row order — is admission order,
    so de-multiplexing is a row-range slice.
    """
    units: List[WorkUnit] = []
    groups: Dict[tuple, WorkUnit] = {}
    for req in requests:
        key = req.fusion_key()
        if key is None:
            units.append(WorkUnit(kind="single", requests=[req]))
            continue
        unit = groups.get(key)
        if unit is None:
            kind = "fused_range" if key[0] == "range_query" else "fused_knn"
            unit = WorkUnit(kind=kind, requests=[])
            groups[key] = unit
            units.append(unit)
        unit.requests.append(req)
    for unit in units:
        if unit.fused and len(unit.requests) == 1:
            unit.kind = "single"
    return units


# --------------------------------------------------------------------------
# streamed-result plumbing
# --------------------------------------------------------------------------
class ChunkForwardingSink(PairFragments):
    """A :class:`PairFragments` that forwards emissions instead of retaining.

    Drops straight into the per-shard sink path (``run_selfjoin_streamed``
    emits into it as each shard completes), coalescing fragments into
    bounded chunks handed to ``post(keys, values)`` — the server never holds
    more than one chunk of the result, which is what makes service-side
    self-joins as out-of-core as the engine-side ones.
    """

    def __init__(self, num_rows: int, post: Callable[[np.ndarray, np.ndarray], None],
                 chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
                 drop_self_pairs: bool = False) -> None:
        super().__init__(num_rows)
        self._post = post
        self._chunk_pairs = int(chunk_pairs)
        self._drop_self = bool(drop_self_pairs)
        self._buf_keys: List[np.ndarray] = []
        self._buf_values: List[np.ndarray] = []
        self._buffered = 0

    def emit(self, keys: np.ndarray, values: np.ndarray,
             twice: Optional[np.ndarray] = None) -> None:
        if keys.shape[0] != values.shape[0]:
            raise ValueError("keys and values must have the same length")
        # Chunks go out as the expanded stream.
        keys, values = expand_mirrored(keys, values, twice)
        if self._drop_self and keys.shape[0]:
            keep = keys != values
            keys, values = keys[keep], values[keep]
        if keys.shape[0] == 0:
            return
        self._buf_keys.append(keys)
        self._buf_values.append(values)
        self._buffered += int(keys.shape[0])
        self._num_pairs += int(keys.shape[0])
        if self._buffered >= self._chunk_pairs:
            self.flush()

    def extend(self, other: PairFragments) -> None:
        if other.num_rows != self.num_rows:
            raise ValueError("merged sinks must cover the same row space")
        for keys, values in other.parts():
            self.emit(keys, values)

    def flush(self) -> None:
        """Post the buffered fragments as one chunk (call once when done)."""
        if not self._buffered:
            return
        keys = np.concatenate(self._buf_keys).astype(np.int64, copy=False)
        values = np.concatenate(self._buf_values).astype(np.int64, copy=False)
        self._buf_keys.clear()
        self._buf_values.clear()
        self._buffered = 0
        self._post(keys, values)

    def concatenated(self):  # pragma: no cover - guard against misuse
        raise RuntimeError("a forwarding sink retains nothing; consume the "
                           "posted chunks instead")


def _post_pairs_chunked(post: Callable[[np.ndarray, np.ndarray], None],
                        keys: np.ndarray, values: np.ndarray,
                        chunk_pairs: int) -> None:
    """Ship an in-memory pair array as bounded chunk frames."""
    for lo in range(0, keys.shape[0], chunk_pairs):
        hi = lo + chunk_pairs
        post(keys[lo:hi], values[lo:hi])


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------
def execute_fused_range(session: EngineSession, reqs: Sequence[PendingRequest],
                        eps: float) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Run fused single-point range queries as one probe.

    Returns one ``(keys, values)`` pair-array slice per request (keys are
    local row ids, always 0 for single-point members).  Row ``i`` of the
    stacked probe array is request ``i``'s point, so de-multiplexing is a
    bincount-free boolean slice on the emitted keys.
    """
    stacked = np.concatenate([r.points for r in reqs]).astype(np.float64,
                                                              copy=False)
    sink = PairFragments(stacked.shape[0])
    session.backend.run_probe(stacked, session.index_for(eps), eps, sink)
    keys, values = sink.concatenated()
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = np.searchsorted(keys, np.arange(len(reqs) + 1, dtype=np.int64))
    out: List[Tuple[np.ndarray, np.ndarray]] = []
    for i in range(len(reqs)):
        sl = slice(starts[i], starts[i + 1])
        out.append((keys[sl] - i, values[sl]))
    return out


def execute_fused_knn(session: EngineSession, reqs: Sequence[PendingRequest],
                      k: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Run fused single-point kNN queries as one candidate-probe batch.

    Exactness makes fusion invisible: the candidate rows provably contain
    each query's true k nearest and the top-k selection breaks ties
    deterministically by id, so each slice is bit-identical to the query
    run alone.
    """
    stacked = np.concatenate([r.points for r in reqs]).astype(np.float64,
                                                              copy=False)
    result = knn_search(None, k, queries=stacked, session=session)
    return [(result.indices[i:i + 1], result.distances[i:i + 1])
            for i in range(len(reqs))]


def _run_streaming_single(req: PendingRequest, session: EngineSession,
                          chunk_pairs: int) -> Outcome:
    """Execute one CSR-result op, streaming chunks through ``req.stream``."""
    post = req.stream.post
    if req.op == "self_join":
        num_rows = session.source.n_points
        if session.streams_self_joins:
            # Straight off the per-shard sink path: each disk-streamed
            # shard's pairs leave the server as soon as the shard finishes.
            sink = ChunkForwardingSink(num_rows, post, chunk_pairs,
                                       drop_self_pairs=not req.include_self)
            session.backend.run_selfjoin_streamed(
                session.source, req.eps, sink, unicomp=req.unicomp)
            sink.flush()
            total = sink.num_pairs
        else:
            result = session.self_join(req.eps, unicomp=req.unicomp,
                                       include_self=req.include_self)
            keys, values = result.pairs()
            _post_pairs_chunked(post, keys, values, chunk_pairs)
            total = int(keys.shape[0])
    elif req.op == "range_query":
        result = session.range_query(req.points, req.eps)
        keys, values = result.pairs()
        _post_pairs_chunked(post, keys, values, chunk_pairs)
        num_rows, total = req.points.shape[0], int(keys.shape[0])
    elif req.op == "bipartite_join":
        result = session.bipartite_join(req.points, req.eps)
        keys, values = result.pairs()
        _post_pairs_chunked(post, keys, values, chunk_pairs)
        num_rows, total = req.points.shape[0], int(keys.shape[0])
    else:  # pragma: no cover - guarded by QUERY_OPS
        raise ValueError(f"not a streaming op: {req.op!r}")
    return Outcome(protocol.STATUS_OK,
                   end={"num_rows": int(num_rows), "total_pairs": int(total)})


def _run_single(req: PendingRequest, catalog: SessionCatalog,
                chunk_pairs: int) -> Outcome:
    if req.op == "_sleep":
        # Deterministic worker-occupancy knob for backpressure tests and the
        # load generator; sleeps in slices so deadlines still bite.
        deadline = time.monotonic() + req.seconds
        while time.monotonic() < deadline:
            req.token.check()
            time.sleep(min(0.01, max(0.0, deadline - time.monotonic())))
        return Outcome(protocol.STATUS_OK, end={"slept": req.seconds})
    session = catalog.get(req.dataset)
    if req.op == "knn":
        result = knn_search(None, req.k, queries=req.points, session=session)
        return Outcome(protocol.STATUS_OK,
                       end={"num_rows": int(req.points.shape[0]),
                            "k": int(req.k)},
                       arrays=[("indices", result.indices),
                               ("distances", result.distances)])
    return _run_streaming_single(req, session, chunk_pairs)


def _fused_end(req: PendingRequest, n_pairs: int, batch_size: int) -> dict:
    return {"num_rows": int(req.points.shape[0]), "total_pairs": int(n_pairs),
            "fused": True, "fused_batch_size": int(batch_size)}


def run_work_unit(unit: WorkUnit, catalog: SessionCatalog,
                  chunk_pairs: int = DEFAULT_CHUNK_PAIRS) -> None:
    """Execute one work unit on the calling (worker) thread.

    Resolves every member request through its ``resolve`` callback —
    expired members with a structured timeout before any work, the rest
    with their result, a timeout (cooperative cancellation actually stopped
    the shard loops), or an error.  Never raises: a worker thread must
    outlive any single bad request.
    """
    live: List[PendingRequest] = []
    for req in unit.requests:
        try:
            req.token.check()
        except OperationCancelled as exc:
            req.resolve(req, Outcome(protocol.STATUS_TIMEOUT,
                                     message=f"expired before execution "
                                             f"({exc.reason})"))
        else:
            live.append(req)
    if not live:
        return
    # One scope covers a fused batch: it trips only when every member is
    # past its deadline (the latest member deadline wins), so an early
    # deadline never cancels a co-fused request that still has time.
    deadlines = [r.token.deadline for r in live]
    scope = CancellationToken(
        deadline=None if any(d is None for d in deadlines) else max(deadlines))
    if unit.kind == "single":
        scope = live[0].token
    try:
        with cancel_scope(scope):
            if unit.kind == "single":
                outcome = _run_single(live[0], catalog, chunk_pairs)
                live[0].resolve(live[0], outcome)
            elif unit.kind == "fused_range":
                session = catalog.get(live[0].dataset)
                slices = execute_fused_range(session, live,
                                             float(live[0].eps))
                for req, (keys, values) in zip(live, slices):
                    _post_pairs_chunked(req.stream.post, keys, values,
                                        chunk_pairs)
                    req.resolve(req, Outcome(
                        protocol.STATUS_OK,
                        end=_fused_end(req, keys.shape[0], len(live))))
            elif unit.kind == "fused_knn":
                session = catalog.get(live[0].dataset)
                parts = execute_fused_knn(session, live, int(live[0].k))
                for req, (indices, distances) in zip(live, parts):
                    req.resolve(req, Outcome(
                        protocol.STATUS_OK,
                        end={"num_rows": 1, "k": int(live[0].k),
                             "fused": True, "fused_batch_size": len(live)},
                        arrays=[("indices", indices),
                                ("distances", distances)]))
            else:  # pragma: no cover
                raise ValueError(f"unknown work unit kind {unit.kind!r}")
    except OperationCancelled as exc:
        status = protocol.STATUS_TIMEOUT if exc.is_deadline \
            else protocol.STATUS_ERROR
        for req in live:
            req.resolve(req, Outcome(status,
                                     message=f"cancelled mid-execution "
                                             f"({exc.reason})"))
    except Exception as exc:  # noqa: BLE001 - converted to a wire error
        for req in live:
            req.resolve(req, Outcome(protocol.STATUS_ERROR,
                                     message=f"{type(exc).__name__}: {exc}"))
