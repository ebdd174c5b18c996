"""Sharded execution: the shard executor with one inline worker.

:class:`ShardedBackend` runs the cost-balanced shard decomposition of
:mod:`repro.parallel.shards` through the one executor loop
(:func:`repro.parallel.executor.run_tasks`) over the *inline* transport: a
single worker that computes each shard in the caller's thread.  It is the
same dispatch and merge path ``multiprocess`` and ``distributed`` run,
without concurrency, and its pair stream is identical to the inner backend
run unsharded.

It is also the **out-of-core** backend: for a self-join over an on-disk
:class:`~repro.data.store.SpatialStore` it implements
:meth:`run_selfjoin_streamed`.  Each shard is a contiguous range of the
store's directory that reads only its own slice plus its ε-halo cells from
disk (:func:`repro.parallel.executor.stream_shard`).  With one worker the
executor dispatches in root order and flushes each shard as it completes,
so peak memory is O(largest shard + halo) instead of O(n).

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

from contextlib import contextmanager
from typing import Optional

from repro.engine.backends import register_backend
from repro.parallel.executor import (
    InlineTransport,
    ShardDataset,
    ShardExecutionBackend,
)
from repro.parallel.shards import default_worker_count


@register_backend
class ShardedBackend(ShardExecutionBackend):
    """Shard-decomposed execution of an inner backend in the caller's thread."""

    name = "sharded"
    supports_streaming = True

    def __init__(self, n_shards: Optional[int] = None,
                 inner: str = "vectorized", seed: int = 0,
                 kernel: str = "auto") -> None:
        super().__init__(inner, kernel, n_shards, seed)

    def _shard_count(self) -> int:
        return self.n_shards or default_worker_count()

    @contextmanager
    def _transport(self, n_tasks, index=None, source=None):
        if source is not None:
            dataset = ShardDataset(points=None, inner=self.inner_name,
                                   store=source)
        else:
            dataset = ShardDataset.for_index(index, self.inner_name)
        yield InlineTransport(dataset)
