"""In-memory span tracer that times the engine from the benchmark's side.

The engine has no spans of its own yet, so a traced run replaces public
functions and methods at module-attribute level with timing wrappers for
the length of the traced phase and puts the originals back afterwards.
Nothing under ``src/`` changes.  A span records its name, start, end, the
span that encloses it on the same thread, and the op id of the benchmark
operation it belongs to.  Spans stay in memory until the run writes them
out.

A layer's *self time* is its span's duration minus the time its direct
child spans cover.  Child spans always nest on one thread, so they never
overlap each other and the subtraction is exact.  Work that the engine
hands to another thread (the distributed backend's connection threads, the
service's worker pool) opens root spans on that thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np


class Span:
    """One timed call into a layer (``thread`` is the thread's ident)."""

    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread",
                 "attrs")

    def __init__(self, id: int, name: str, start: float,
                 parent: Optional[int], op: Optional[int], thread: int) -> None:
        self.id, self.name, self.start, self.end = id, name, start, start
        self.parent, self.op, self.thread = parent, op, thread
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans from wrapped functions (see the module docstring).

    ``op`` is the op id stamped on spans of threads that set none of their
    own with :meth:`set_thread_op`; sequential workloads set it once per op,
    so spans of helper threads the engine starts are attributed too.
    """

    def __init__(self) -> None:
        # list.append is atomic, so threads add spans without a lock.
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    def set_thread_op(self, op: Optional[int]) -> None:
        self._local.op = op

    # --------------------------------------------------------------- wrapping
    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a class (methods and classmethods) or a module.  A
        module function is also replaced in every ``repro`` module that
        imported it by name.  ``after(span, args, result)`` may add
        attributes from the call's arguments and result.
        """
        raw = owner.__dict__[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        local, spans, ids = self._local, self.spans, self._ids
        clock, get_ident = time.perf_counter, threading.get_ident

        # Written out rather than as a context manager: emit is called
        # thousands of times per op, and this keeps each span cheap.
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            op = local.__dict__.get("op")
            span = Span(next(ids), name, clock(),
                        stack[-1].id if stack else None,
                        self.op if op is None else op, get_ident())
            stack.append(span)
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            return result

        replacement = classmethod(traced) if isinstance(raw, classmethod) \
            else traced
        targets = [owner]
        if not isinstance(owner, type):
            targets += [module for mod_name, module in list(sys.modules.items())
                        if mod_name.startswith("repro") and module is not owner
                        and getattr(module, "__dict__", {}).get(attr) is raw]
        for target in targets:
            setattr(target, attr, replacement)
            self._patches.append((target, attr, raw))

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back (safe to call twice)."""
        while self._patches:
            target, attr, raw = self._patches.pop()
            setattr(target, attr, raw)

    # ---------------------------------------------------------------- output
    def write(self, path) -> None:
        """Write the spans as JSON (one object per span)."""
        rows = [span.as_dict() for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        # Engine counters may arrive as NumPy scalars.
        path.write_text(json.dumps({"spans": rows},
                                   default=lambda value: value.item()))


# --------------------------------------------------------------------------
# the engine's layer seams
# --------------------------------------------------------------------------
def _kernel_stats(span: Span, args, stats) -> None:
    span.attrs.update(cells_checked=stats.cells_checked,
                      cells_visited=stats.nonempty_cells_visited,
                      distance_calcs=stats.distance_calcs,
                      result_pairs=stats.result_pairs,
                      schedule=dict(stats.schedule_counts))


def _batch_plan(span: Span, args, plan) -> None:
    span.attrs.update(batches=plan.n_batches,
                      estimated_pairs=int(plan.estimated_total_pairs))


def _fragment(span: Span, args, result) -> None:
    span.attrs["pairs"] = int(args[1].shape[0])


def _frame_bytes(span: Span, args, frame) -> None:
    if frame is not None:
        header, payload = frame
        span.attrs["bytes"] = 16 + len(json.dumps(header)) + len(payload)


def _queue_wait(span: Span, args, result) -> None:
    unit = args[0]
    # PendingRequest.received is a time.monotonic() stamp; move the span's
    # perf_counter start onto that clock.
    began = time.monotonic() - (time.perf_counter() - span.start)
    span.attrs["requests"] = len(unit.requests)
    span.attrs["queue_wait"] = sum(began - req.received for req in unit.requests)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public functions at every layer seam the benchmark names.

    Kernel spans wrap ``run_selfjoin``/``run_probe`` of every backend class
    the workloads run (the sampled estimation kernel calls them too; those
    calls sit under a ``batch_estimate`` span and are told apart later).
    """
    from repro.core.batching import BatchPlanner
    from repro.core.gridindex import GridIndex
    from repro.core.result import NeighborTable, PairFragments
    from repro.distributed.backend import DistributedBackend
    from repro.engine import executor, planner
    from repro.engine.backends import VectorizedBackend
    from repro.service import protocol, scheduler

    tracer.wrap(GridIndex, "build", "index.build")
    tracer.wrap(planner.QueryPlanner, "plan", "plan")
    tracer.wrap(BatchPlanner, "plan", "batch_estimate", after=_batch_plan)
    for backend in (VectorizedBackend, DistributedBackend):
        tracer.wrap(backend, "run_selfjoin", "kernel", after=_kernel_stats)
        tracer.wrap(backend, "run_probe", "kernel", after=_kernel_stats)
    tracer.wrap(PairFragments, "emit", "emit", after=_fragment)
    tracer.wrap(PairFragments, "extend", "merge")
    tracer.wrap(executor.EngineResult, "pairs", "merge")
    tracer.wrap(NeighborTable, "from_pairs", "csr.finalize")
    tracer.wrap(executor, "execute", "executor")
    tracer.wrap(protocol, "encode_frame", "codec.encode")
    tracer.wrap(protocol, "pack_arrays", "codec.encode")
    tracer.wrap(protocol, "unpack_arrays", "codec.decode")
    tracer.wrap(protocol, "read_frame_sock", "wire.wait", after=_frame_bytes)
    tracer.wrap(scheduler, "run_work_unit", "service.execute",
                after=_queue_wait)


def layer_metrics(spans: List[Span], n_ops: int) -> Dict[str, float]:
    """Per-op layer metrics from the spans of ``n_ops`` traced operations."""
    by_id = {span.id: span for span in spans}
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration

    def self_time(span: Span) -> float:
        return span.duration - covered.get(span.id, 0.0)

    def under_estimate(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor.name == "batch_estimate":
                return True
            parent = ancestor.parent
        return False

    named: Dict[str, List[Span]] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)
    kernels = [s for s in named.get("kernel", []) if not under_estimate(s)]
    estimates = named.get("batch_estimate", [])
    service_units = named.get("service.execute", [])
    per_op = 1.0 / max(n_ops, 1)

    def total(name: str, attr: Optional[str] = None,
              pool: Optional[List[Span]] = None) -> float:
        chosen = named.get(name, []) if pool is None else pool
        if attr is None:
            return sum(s.duration for s in chosen)
        return sum(s.attrs.get(attr, 0) for s in chosen)

    def self_total(name: str, pool: Optional[List[Span]] = None) -> float:
        chosen = named.get(name, []) if pool is None else pool
        return sum(self_time(s) for s in chosen)

    # The estimate's accuracy is judged against the pairs the executor's
    # kernels then emitted for the same ops.
    estimated_ops = {s.op for s in estimates}
    emitted = sum(s.attrs.get("result_pairs", 0) for s in kernels
                  if s.op in estimated_ops)
    distance_calcs = total("kernel", "distance_calcs", kernels)
    schedules = [s.attrs.get("schedule", {}) for s in kernels]
    ratios = [sched["cost_ratio_pct"] / 100.0 for sched in schedules
              if "cost_ratio_pct" in sched]
    requests = total("service.execute", "requests", service_units)

    def sched(counter: str) -> float:
        return sum(s.get(counter, 0) for s in schedules) * per_op

    return {
        "index.build_s": total("index.build") * per_op,
        "index.builds": len(named.get("index.build", [])) * per_op,
        "plan.s": self_total("plan") * per_op,
        "batch_estimate.s": total("batch_estimate") * per_op,
        "batch_estimate.batches": total("batch_estimate", "batches") * per_op,
        "batch_estimate.ratio": (total("batch_estimate", "estimated_pairs")
                                 / emitted if emitted else 0.0),
        "kernel.s": self_total("kernel", kernels) * per_op,
        "kernel.calls": len(kernels) * per_op,
        "kernel.cells_checked": total("kernel", "cells_checked", kernels) * per_op,
        "kernel.cells_visited": total("kernel", "cells_visited", kernels) * per_op,
        "kernel.distance_calcs": distance_calcs * per_op,
        "kernel.useful_frac": (total("kernel", "result_pairs", kernels)
                               / distance_calcs if distance_calcs else 0.0),
        "emit.s": self_total("emit") * per_op,
        "emit.fragments": sum(1 for s in named.get("emit", [])
                              if s.attrs.get("pairs")) * per_op,
        "merge.s": self_total("merge") * per_op,
        "csr.finalize_s": self_total("csr.finalize") * per_op,
        "executor.other_s": self_total("executor") * per_op,
        "codec.encode_s": self_total("codec.encode") * per_op,
        "codec.decode_s": self_total("codec.decode") * per_op,
        "wire.wait_s": self_total("wire.wait") * per_op,
        "wire.bytes": total("wire.wait", "bytes") * per_op,
        "sched.shards": sched("shards"),
        "sched.steals": sched("steals"),
        "sched.resplits": sched("resplits"),
        "sched.hedges": sched("hedges"),
        "sched.duplicates_dropped": sched("duplicates_dropped"),
        "sched.cost_ratio": float(np.mean(ratios)) if ratios else 0.0,
        "service.queue_wait_s": (total("service.execute", "queue_wait",
                                       service_units) / requests
                                 if requests else 0.0),
        "service.execute_s": (total("service.execute") / requests
                              if requests else 0.0),
    }
