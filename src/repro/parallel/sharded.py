"""Sharded execution: the shard executor with one inline worker.

:class:`ShardedBackend` runs the cost-balanced shard decomposition of
:mod:`repro.parallel.shards` through the one executor loop
(:func:`repro.parallel.executor.run_tasks`) over the *inline* transport: a
single worker that computes each shard in the caller's thread.  It is the
same dispatch and merge path ``multiprocess`` and ``distributed`` run,
without concurrency, and its pair stream is identical to the
``vectorized`` backend run unsharded.

It is also the **out-of-core** backend: for a self-join over an on-disk
:class:`~repro.data.store.SpatialStore` it implements
:meth:`run_selfjoin_streamed`.  Each shard is a contiguous range of the
store's directory that reads only its own slice plus its ε-halo cells from
disk (:func:`repro.parallel.compute.stream_shard`).  With one worker the
executor dispatches in root order and flushes each shard as it completes,
so peak memory is O(largest shard + halo) instead of O(n).

Registered as ``sharded``; parameterized lookups configure it:
``sharded(7)`` uses seven shards and ``sharded(4, kernel=numba)`` forces
the shards' kernel tier (see :mod:`repro.core.nativekernels`).  On the
numba tier each shard picks the dense or sparse compiled kernel from its
cell populations; the NumPy tier runs its one route on every shard.
"""

from __future__ import annotations

from typing import Optional

from repro.core.kernels import selfjoin_cell_costs
from repro.engine.backends import register_backend
from repro.parallel.compute import ShardDataset
from repro.parallel.executor import InlineTransport, ShardExecutionBackend
from repro.parallel.shards import default_worker_count


@register_backend
class ShardedBackend(ShardExecutionBackend):
    """Shard-decomposed ``vectorized`` execution in the caller's thread."""

    name = "sharded"
    supports_streaming = True

    def __init__(self, n_shards: Optional[int] = None,
                 kernel: str = "auto") -> None:
        super().__init__(kernel, n_shards)

    def _shard_count(self) -> int:
        return self.n_shards or default_worker_count()

    def _cell_costs(self, index, unicomp):
        # The inline shards emit from the caller's index (``for_index``
        # below), so the cost query fills the adjacency they read back.
        return selfjoin_cell_costs(index, unicomp)

    def _transport(self, handle, index=None, source=None):
        if source is not None:
            return InlineTransport(
                ShardDataset(points=None, kernel=self.tier, store=source))
        return InlineTransport(ShardDataset.for_index(index, self.tier))
