"""The query service: an asyncio front door over the session engine.

The paper's setting is a hybrid CPU/GPU engine kept *resident* — dataset on
the device, index built, pipeline warm — precisely so that many queries can
amortize those one-time costs.  This package is the serving half of that
story: a stdlib-only asyncio TCP server (:mod:`repro.service.server`) owns
a catalog of named :class:`~repro.engine.session.EngineSession`s
(:mod:`repro.service.catalog`), admits concurrent range / kNN / self-join /
bipartite requests over a length-prefixed JSON + binary frame protocol
(:mod:`repro.service.protocol`), and schedules them per tick
(:mod:`repro.service.scheduler`):

* bursts of single-point range/kNN queries against the same (dataset, ε)
  **fuse** into one bipartite probe, which the parallel backends split
  into shards by each row's exact candidate count;
* per-request **deadlines** cancel cooperatively, actually stopping shard
  loops (:mod:`repro.utils.cancellation`), and a bounded admission queue
  rejects overload with a structured response instead of melting down;
* CSR results **stream** back in bounded chunk frames straight off the
  per-shard sink path, so the server never materializes a full pair set.

:class:`ServiceClient` (:mod:`repro.service.client`) is the synchronous
client; ``python -m repro.service`` (or the ``repro-serve`` console script)
runs a standalone server.

The names below resolve lazily (:mod:`repro.utils.lazy`): a distributed
worker imports the frame protocol without the server, client or catalog.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".catalog": ["DatasetNotRegistered", "SessionCatalog"],
    ".protocol": ["ProtocolError", "STATUS_CHUNK", "STATUS_END",
                  "STATUS_ERROR", "STATUS_OK", "STATUS_REJECTED",
                  "STATUS_TIMEOUT"],
    ".server": ["QueryService", "ServerThread", "ServiceStats"],
    ".client": ["ServiceClient", "ServiceError", "ServiceRejected",
                "ServiceTimeout"],
})
