"""Distributed shard execution: the shard executor over TCP workers.

The paper's scaling story — decompose the ε-self-join into independent,
cost-estimated units of work and keep the expensive index/data resident
across batches — is process-agnostic; this package carries it across
machine boundaries.  Two halves:

:class:`~repro.distributed.worker.WorkerServer`
    A stdlib-asyncio TCP server, one per process, speaking the query
    service's frame protocol (:mod:`repro.service.protocol`).  A dataset is
    attached once, as a :class:`~repro.data.store.SpatialStore` path or as
    arrays, after which the worker computes self-join, probe and
    disk-streamed shards with the shard body every transport shares.
    Started via the ``repro-worker`` CLI or in-process via
    :class:`~repro.distributed.worker.WorkerThread`.

:class:`~repro.distributed.backend.DistributedBackend`
    The ``distributed(...)`` backend: the TCP transport of the one shard
    executor (:mod:`repro.parallel.executor`) that ``sharded`` and
    ``multiprocess`` run too, with all-or-nothing attach, re-dispatch off
    dead workers and deadlines threaded into each shard request.
    :class:`~repro.distributed.backend.LocalWorkerPool` spawns localhost
    ``repro-worker`` subprocesses (the CI harness); pointing the same
    backend at remote addresses is the multi-node story.

The names below resolve lazily (:mod:`repro.utils.lazy`), so the
``repro-worker`` entry point imports the worker and the shard path, never
the driver backend, the planner or the session.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backend": ["DistributedBackend", "LocalWorkerPool", "WorkerTaskFailed",
                 "worker_request"],
    ".worker": ["WorkerServer", "WorkerThread"],
})
