"""The worker side of the shard executor: the resident dataset and one
compute function per shard kind.

Every transport computes its shards here: the inline transport of
``sharded`` in the caller's thread, the process-pool workers of
``multiprocess`` and the TCP ``repro-worker`` processes of
``distributed``.  :func:`run_shard` computes one shard of any kind against
a :class:`ShardDataset`, the worker-resident dataset with its per-ε index
LRU.  The parent side, which plans, dispatches and merges the shards, is
:mod:`repro.parallel.executor`; a worker process imports this module
without it, its scheduler or its shard planner.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.gridindex import GridIndex, SubsetIndex
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS
from repro.core.result import PairFragments
from repro.engine.backends import VectorizedBackend
from repro.utils.buildonce import KeyedBuilds

#: LRU bound on a worker's per-ε index cache (the kNN radius-doubling loop
#: asks for one index per doubled ε).
INDEX_CACHE_SIZE = 8


@dataclass
class ShardDataset:
    """A worker's resident dataset plus its index LRU, keyed by (ε, dims).

    ``points`` is in stored (``B``) order for a store attachment, whose
    ``ids`` directory maps emitted rows back to original dataset ids; a
    streamed join needs only ``store`` (``points`` may stay ``None``).
    Every shard runs the ``vectorized`` backend on the ``kernel`` tier
    (``auto``, ``numpy`` or ``numba``).
    """

    points: Optional[np.ndarray]
    kernel: str
    ids: Optional[np.ndarray] = None
    store: Optional[object] = None
    indexes: "OrderedDict[tuple, GridIndex]" = field(default_factory=OrderedDict)
    #: Builds each index once and guards ``indexes``: a worker may run two
    #: shards at once.
    _builds: KeyedBuilds = field(default_factory=KeyedBuilds,
                                 repr=False, compare=False)

    @classmethod
    def from_store(cls, store, kernel: str) -> "ShardDataset":
        return cls(points=store.stored_points(), kernel=kernel,
                   ids=np.asarray(store.stored_ids()), store=store)

    @classmethod
    def for_index(cls, index: GridIndex, kernel: str) -> "ShardDataset":
        """A dataset whose cache already holds the caller's index."""
        return cls(points=index.points, kernel=kernel,
                   indexes=OrderedDict([((float(index.eps), index.dims),
                                         index)]))

    def index_for(self, index_eps: float,
                  dims: Optional[Sequence[int]] = None) -> GridIndex:
        """The index at ``index_eps`` over ``dims`` (all when ``None``),
        built once and LRU-cached.

        The parent sends the dims its planner chose, so a worker builds
        the parent's grid exactly: same ``B``, same cell indices, same
        stream.  Shards that miss one key together wait for one build;
        lookups of other keys do not wait for it.
        """
        if dims is None:
            dims = range(self.points.shape[1])
        key = (float(index_eps), tuple(sorted(int(j) for j in dims)))
        with self._builds.lock:
            index = self.indexes.get(key)
            if index is not None:
                self.indexes.move_to_end(key)
                return index
        index = self._builds.get(
            self.indexes, key,
            lambda: GridIndex.build(self.points, key[0], dims=key[1]))
        with self._builds.lock:
            while len(self.indexes) > INDEX_CACHE_SIZE:
                self.indexes.popitem(last=False)
        return index


def _chunk_bound(params: dict) -> int:
    return int(params.get("max_candidate_pairs", DEFAULT_MAX_CANDIDATE_PAIRS))


def selfjoin_shard(dataset: ShardDataset, params: dict, cells):
    """Self-join one cell shard; ids come back in original dataset ids,
    mirrored UNICOMP matches once with their flag
    (:meth:`~repro.core.result.PairFragments.compact`)."""
    index = dataset.index_for(params["index_eps"], params.get("index_dims"))
    sink = PairFragments(index.num_points)
    stats = VectorizedBackend(dataset.kernel).run_selfjoin(
        index, float(params["eps"]), np.asarray(cells, dtype=np.int64), sink,
        unicomp=bool(params.get("unicomp", False)),
        max_candidate_pairs=_chunk_bound(params))
    keys, values, twice = sink.compact()
    if dataset.ids is not None:
        keys, values = dataset.ids[keys], dataset.ids[values]
    return keys, values, twice, stats


def probe_shard(dataset: ShardDataset, params: dict, queries):
    """Probe a query slice; keys are rows of the slice."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    index = dataset.index_for(params["index_eps"], params.get("index_dims"))
    sink = PairFragments(queries.shape[0])
    stats = VectorizedBackend(dataset.kernel).run_probe(
        queries, index, float(params["eps"]), sink,
        max_candidate_pairs=_chunk_bound(params))
    keys, values = sink.concatenated()
    if dataset.ids is not None:
        values = dataset.ids[values]
    return keys, values, None, stats


def stream_shard(dataset: ShardDataset, params: dict, _array=None):
    """Self-join the store directory range ``[lo, hi)`` read from disk.

    Reads the owned cells plus their ε-halo as a few contiguous slices,
    probes the owned points against a shard-local
    :class:`~repro.core.gridindex.SubsetIndex` and returns pairs in original
    ids.  Every owned point's neighbourhood lies inside the halo and every
    point has one owner, so the shards' outputs are disjoint.
    """
    store = dataset.store
    if store is None:
        raise ValueError("stream_shard requires a store-attached dataset")
    eps = float(params["eps"])
    lo, hi = int(params["lo"]), int(params["hi"])
    owned_pts, owned_ids = store.read_cell_range(lo, hi)
    halo_pts, halo_ids = store.read_cell_positions(
        store.halo_positions(lo, hi, store.halo_radius(eps)))
    if halo_pts.shape[0]:
        local_pts = np.concatenate([owned_pts, halo_pts])
        local_ids = np.concatenate([owned_ids, halo_ids])
    else:
        local_pts, local_ids = owned_pts, owned_ids
    sub = SubsetIndex.build(local_pts, local_ids, eps)
    sink = PairFragments(owned_pts.shape[0])
    stats = VectorizedBackend(dataset.kernel).run_probe(
        owned_pts, sub.index, eps, sink,
        max_candidate_pairs=_chunk_bound(params))
    keys, values = sink.concatenated()
    # Owned points are the local rows [0, n_owned).
    return owned_ids[keys], sub.to_global(values), None, stats


SHARD_KINDS: Dict[str, Callable] = {
    "selfjoin": selfjoin_shard, "probe": probe_shard, "stream": stream_shard}


def run_shard(dataset: ShardDataset, kind: str, params: dict,
              array: Optional[np.ndarray] = None):
    """Compute one shard: ``(keys, values, twice, KernelStats)``.

    ``twice`` flags the mirrored UNICOMP matches that also stand for their
    reverse pair (``None`` when none is flagged, and always for probes).
    """
    return SHARD_KINDS[kind](dataset, params, array)
