"""Sharded execution: run any inner backend shard-by-shard and merge.

:class:`ShardedBackend` is the serial half of the parallel subsystem: it
decomposes the work with :class:`~repro.parallel.shards.ShardPlanner`
(self-joins: cost-balanced cell shards; probes: cost-balanced row groups),
runs an *inner* backend per shard into a private
:class:`~repro.core.result.PairFragments` sink and merges the sinks.  The
result is pair-identical to the inner backend run unsharded — the shard
merge path this backend exercises is exactly what
:class:`repro.parallel.mp.MultiprocessBackend` executes concurrently.

It is also the **out-of-core** backend: for a self-join over an on-disk
:class:`~repro.data.store.SpatialStore` it implements
:meth:`run_selfjoin_streamed` — the store's non-empty layout cells are
partitioned into contiguous B-order ranges balanced by point count, and
each shard reads *only its own slice plus its ε-halo cells* from disk (a
few contiguous reads), builds a shard-local
:class:`~repro.core.gridindex.SubsetIndex` and probes its owned points
against it.  Every owned point's full ε-neighborhood is inside the halo
(Chebyshev ``ceil(eps / cell_width)`` layout cells), and every point is
owned by exactly one shard, so the merged fragments are dedup-free and
identical as a pair set to the in-memory join — at peak memory
O(largest shard + halo) instead of O(n).

Registered as ``sharded``; parameterized lookups configure it:
``sharded(7)`` uses seven shards, ``sharded(4, cellwise)`` runs the
cellwise reference under a four-shard decomposition, and
``sharded(4, vectorized, 11)`` pins the cost-sampling seed so shard plans
are reproducible from one knob.  ``sharded(4, kernel=numba)`` forces the
inner backend's kernel tier (see :mod:`repro.core.nativekernels`); with
the default ``kernel=auto`` the tiered inner backend picks the dense or
sparse kernel *per shard* from that shard's cell populations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.batching import (
    estimate_probe_row_costs,
    split_by_cost,
)
from repro.core.gridindex import SubsetIndex
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats
from repro.core.result import PairFragments
from repro.core.nativekernels import parse_kernel_spec
from repro.engine.backends import (
    ExecutionBackend,
    compose_kernel_spec,
    get_backend,
    register_backend,
    _probe_rows,
)
from repro.parallel.shards import ShardPlanner, default_worker_count, merge_fragments
from repro.utils.cancellation import check_cancelled


@register_backend
class ShardedBackend(ExecutionBackend):
    """Shard-decomposed execution of an inner backend (serial merge path)."""

    name = "sharded"
    supports_cell_subset = True
    owns_decomposition = True
    supports_streaming = True

    def __init__(self, n_shards: Optional[int] = None,
                 inner: str = "vectorized", seed: int = 0,
                 kernel: str = "auto") -> None:
        if n_shards is not None and int(n_shards) < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards) if n_shards is not None else None
        self.kernel_spec = str(kernel)
        parse_kernel_spec(self.kernel_spec)  # fail fast on typos
        self.inner_name = compose_kernel_spec(str(inner), self.kernel_spec)
        self.seed = int(seed)

    @property
    def inner(self) -> ExecutionBackend:
        """The backend executed per shard."""
        return get_backend(self.inner_name)

    @property
    def supports_unicomp(self) -> bool:  # type: ignore[override]
        return self.inner.supports_unicomp

    def kernel_tier(self) -> str:
        """The inner backend's resolved kernel tier (what each shard runs)."""
        return self.inner.kernel_tier()

    def _resolved_shards(self) -> int:
        return self.n_shards or default_worker_count()

    # ------------------------------------------------------------- operators
    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        inner = self.inner
        plan = ShardPlanner(n_shards=self._resolved_shards(),
                            seed=self.seed).plan(index, cells)
        stats = KernelStats()
        parts = []
        for shard in plan.shards:
            # Cancellation checkpoint: a deadline-cancelled request stops
            # within one shard's worth of work.
            check_cancelled()
            part = PairFragments(index.num_points)
            stats.merge(inner.run_selfjoin(
                index, eps, shard, part, unicomp=unicomp,
                max_candidate_pairs=max_candidate_pairs))
            parts.append(part)
        sink.extend(merge_fragments(index.num_points, parts))
        # Serial execution of the plan: shards ran in order, nothing was
        # stolen or resplit — the zeroed counters make that explicit next
        # to the concurrent backends' reports.
        stats.schedule_counts = {"shards": len(plan.shards), "steals": 0,
                                 "resplits": 0, "hedges": 0}
        return stats

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        inner = self.inner
        rows = _probe_rows(queries, rows)
        stats = KernelStats()
        if rows.shape[0] == 0:
            return stats
        costs = estimate_probe_row_costs(queries[rows], index, seed=self.seed)
        parts = []
        for group in split_by_cost(costs, self._resolved_shards()):
            check_cancelled()
            part = PairFragments(sink.num_rows)
            stats.merge(inner.run_probe(
                queries, index, eps, part, rows=rows[group],
                max_candidate_pairs=max_candidate_pairs))
            parts.append(part)
        sink.extend(merge_fragments(sink.num_rows, parts))
        return stats

    # ------------------------------------------------------- streamed operator
    def run_selfjoin_streamed(self, source, eps, sink, *, unicomp=False,
                              max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS,
                              ) -> KernelStats:
        """Self-join an on-disk store shard-at-a-time (see module docstring).

        ``unicomp`` is accepted for interface uniformity but does not change
        the executed work: the streamed path computes each owned point's
        full neighborhood via the probe operator (which is what makes the
        shard outputs disjoint), so the result is identical either way.

        Each shard's pairs are emitted into ``sink`` as soon as the shard
        completes — nothing result-sized is buffered here, so a sink that
        forwards its fragments elsewhere (spills to disk, folds into a
        digest) keeps even the *result* out of core, exactly the
        batch-at-a-time result handling the paper's Section V-A batching
        exists for.  Shards own disjoint point ranges, so the emissions
        need no deduplication.
        """
        inner = self.inner
        # Contiguous B-order directory ranges balanced by stored point
        # count — the per-cell population is already in the directory, so
        # no sampling pass over the file is needed.
        slices = split_by_cost(source.cell_counts.astype(np.float64),
                               self._resolved_shards())
        radius = source.halo_radius(eps)
        stats = KernelStats()
        for cells in slices:
            # Cancellation checkpoint: stops a streamed join between disk
            # shards (nothing result-sized to unwind past one shard).
            check_cancelled()
            if cells.shape[0] == 0:
                continue
            lo, hi = int(cells[0]), int(cells[-1]) + 1
            owned_pts, owned_ids = source.read_cell_range(lo, hi)
            halo_pts, halo_ids = source.read_cell_positions(
                source.halo_positions(lo, hi, radius))
            if halo_pts.shape[0]:
                local_pts = np.concatenate([owned_pts, halo_pts])
                local_ids = np.concatenate([owned_ids, halo_ids])
            else:
                local_pts, local_ids = owned_pts, owned_ids
            sub = SubsetIndex.build(local_pts, local_ids, eps)
            local_sink = PairFragments(owned_pts.shape[0])
            stats.merge(inner.run_probe(
                owned_pts, sub.index, eps, local_sink,
                max_candidate_pairs=max_candidate_pairs))
            keys, values = local_sink.concatenated()
            # Owned points occupy local rows [0, n_owned), so their global
            # ids come straight off the slice's id map.
            sink.emit(owned_ids[keys], sub.to_global(values))
        return stats
