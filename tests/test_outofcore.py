"""Out-of-core execution semantics: parity, streaming laziness, memory cap.

The acceptance properties of the out-of-core dataset layer:

* a self-join over a :class:`~repro.data.store.SpatialStore` is
  **bit-identical** (as a canonically sorted pair list) to the same join
  over the array it was written from — across dims 2–6, ±UNICOMP, and the
  ``vectorized`` (materializing), ``sharded`` (streamed) and
  ``multiprocess`` (worker-memmapped) backends, including an ε whose halo
  spans multiple shards;
* a streamed session never materializes the dataset;
* a streamed join over a store **larger than a ``resource.RLIMIT_AS``
  budget** completes under that cap — in the same capped subprocess where
  the in-memory pipeline dies of ``MemoryError`` — and reproduces the
  uncapped in-memory pair multiset exactly.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.batching import split_by_cost
from repro.data.store import ArraySource, SpatialStore
from repro.data.synthetic import uniform_dataset
from repro.engine import EngineSession, Query, run_query
from repro.experiments.outofcore import pair_multiset_digest

ALL_DIMS = [2, 3, 4, 5, 6]
POINTS_BY_DIM = {2: 140, 3: 120, 4: 90, 5: 70, 6: 50}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _dataset(dims: int, seed: int = 7, n: int | None = None) -> np.ndarray:
    return uniform_dataset(n or POINTS_BY_DIM[dims], dims, seed=seed,
                           low=0.0, high=4.0)


def _store_for(points: np.ndarray, tmp_path, eps: float,
               halo_cells: int = 3) -> SpatialStore:
    """Write a store whose layout makes the ε-halo ``halo_cells`` wide."""
    return SpatialStore.write(points, tmp_path / "store",
                              cell_width=eps / (halo_cells - 0.5))


def _canonical(result):
    rs = result.result_set.sort()
    return rs.keys, rs.values


class TestStoreParity:
    """SpatialStore results vs ArraySource results, bit for bit."""

    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("backend", ["vectorized", "sharded(3)"])
    def test_selfjoin_parity_across_dims(self, dims, unicomp, backend,
                                         tmp_path):
        points = _dataset(dims, seed=50 + dims)
        eps = EPS_BY_DIM[dims]
        store = _store_for(points, tmp_path, eps)
        assert store.halo_radius(eps) >= 2  # halo wider than one cell layer
        ref = run_query(Query.self_join(points, eps, unicomp=unicomp),
                        backend=backend)
        got = run_query(Query.self_join(store, eps, unicomp=unicomp),
                        backend=backend)
        rk, rv = _canonical(ref)
        gk, gv = _canonical(got)
        assert np.array_equal(rk, gk) and np.array_equal(rv, gv), \
            (dims, unicomp, backend)

    @pytest.mark.parametrize("dims", [2, 4, 6])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_selfjoin_parity_multiprocess(self, dims, unicomp, tmp_path):
        from repro.parallel.mp import MultiprocessBackend

        points = _dataset(dims, seed=60 + dims)
        eps = EPS_BY_DIM[dims]
        store = _store_for(points, tmp_path, eps)
        ref = run_query(Query.self_join(points, eps, unicomp=unicomp))
        backend = MultiprocessBackend(n_workers=2)
        with EngineSession(store, backend=backend) as session:
            got = session.self_join(eps, unicomp=unicomp)
        backend.shutdown()
        # Workers memory-mapped the store; the dataset never entered shared
        # memory or a pickle.
        assert backend.stats.datasets_mapped == 1
        assert backend.stats.shm_segments_created == 0
        assert backend.stats.datasets_shipped == 0
        rk, rv = _canonical(ref)
        gk, gv = _canonical(got)
        assert np.array_equal(rk, gk) and np.array_equal(rv, gv), \
            (dims, unicomp)

    def test_halo_spans_multiple_shards(self, tmp_path):
        # An ε several layout cells wide, on a decomposition fine enough
        # that the halo of a middle shard reaches cells owned by at least
        # two other shards — parity must hold regardless.
        points = _dataset(2, seed=71, n=400)
        eps = 1.1
        store = SpatialStore.write(points, tmp_path / "store",
                                   cell_width=eps / 4)
        radius = store.halo_radius(eps)
        assert radius >= 4
        n_shards = 8
        slices = split_by_cost(store.cell_counts.astype(np.float64), n_shards)
        assert len(slices) == n_shards
        middle = slices[n_shards // 2]
        lo, hi = int(middle[0]), int(middle[-1]) + 1
        halo = store.halo_positions(lo, hi, radius)
        touched = {i for i, s in enumerate(slices)
                   if np.intersect1d(halo, s).shape[0]}
        assert len(touched) >= 2, "halo stayed within one neighboring shard"
        ref = run_query(Query.self_join(points, eps))
        got = run_query(Query.self_join(store, eps),
                        backend=f"sharded({n_shards})")
        rk, rv = _canonical(ref)
        gk, gv = _canonical(got)
        assert np.array_equal(rk, gk) and np.array_equal(rv, gv)

    def test_probe_paths_match_over_store_sessions(self, tmp_path):
        # Range queries / kNN on a store session materialize (only
        # self-joins stream) but must agree with the array path.
        points = _dataset(3, seed=80)
        queries = uniform_dataset(60, 3, seed=81, low=0.0, high=4.0)
        eps = EPS_BY_DIM[3]
        store = _store_for(points, tmp_path, eps)
        ref = run_query(Query.range_query(points, queries, eps))
        with EngineSession(store) as session:
            got = session.range_query(queries, eps)
            knn = session.knn_candidates(4)
        assert got.neighbor_table.same_contents_as(ref.neighbor_table)
        assert np.all(knn.neighbor_table.counts() >= 4)


class TestStreamedSession:
    def test_streamed_selfjoin_never_materializes(self, tmp_path):
        points = _dataset(2, seed=90, n=300)
        eps = 0.7
        store = _store_for(points, tmp_path, eps)
        with EngineSession(store, backend="sharded(4)") as session:
            assert session.streams_self_joins
            result = session.self_join(eps)
            assert session._points is None, \
                "streamed self-join materialized the dataset"
            assert session.cached_eps == ()  # no global index was built
        ref = run_query(Query.self_join(points, eps))
        rk, rv = _canonical(ref)
        gk, gv = _canonical(result)
        assert np.array_equal(rk, gk) and np.array_equal(rv, gv)

    def test_array_sessions_do_not_stream(self):
        points = _dataset(2, seed=91)
        with EngineSession(points, backend="sharded(4)") as session:
            assert not session.streams_self_joins  # in-memory source
        with EngineSession(points) as session:
            assert not session.streams_self_joins  # non-streaming backend

    def test_non_streaming_backend_materializes_lazily(self, tmp_path):
        points = _dataset(2, seed=92)
        store = _store_for(points, tmp_path, 0.9)
        session = EngineSession(store)  # vectorized
        assert session._points is None  # opening/identity stays lazy
        result = session.self_join(0.9)
        assert session._points is not None
        assert np.array_equal(session.points, points)
        session.close()
        assert result.num_pairs > 0

    def test_foreign_source_rejected(self, tmp_path):
        points = _dataset(2, seed=93)
        mine = _store_for(points, tmp_path / "a", 0.9)
        other = SpatialStore.write(points, tmp_path / "b", cell_width=0.5)
        session = EngineSession(mine, backend="sharded(2)")
        with pytest.raises(ValueError, match="session"):
            session.run(Query.self_join(other, 0.9))
        session.close()

    def test_run_query_streams_without_a_session(self, tmp_path):
        points = _dataset(2, seed=94)
        store = _store_for(points, tmp_path, 0.9)
        got = run_query(Query.self_join(store, 0.9), backend="sharded(3)")
        ref = run_query(Query.self_join(points, 0.9))
        rk, rv = _canonical(ref)
        gk, gv = _canonical(got)
        assert np.array_equal(rk, gk) and np.array_equal(rv, gv)

    def test_non_streaming_backend_rejects_direct_streamed_call(self, tmp_path):
        from repro.engine import get_backend

        store = _store_for(_dataset(2, seed=95), tmp_path, 0.9)
        from repro.core.result import PairFragments

        with pytest.raises(NotImplementedError, match="cannot stream"):
            get_backend("vectorized").run_selfjoin_streamed(
                store, 0.9, PairFragments(store.n_points))


#: Address-space headroom granted to the capped subprocess above its
#: post-import baseline — deliberately smaller than the store it joins.
#: The streamed join's working set is O(shard slice + halo); the result
#: pairs stream into a digesting sink as each shard completes (the paper's
#: batch-at-a-time result handling), so not even the output accumulates.
_AS_BUDGET_BYTES = 7_500_000
_CAP_N_POINTS = 450_000        # stored points+ids+directory ≈ 11.0 MB
_CAP_DIMS = 2
_CAP_EPS = 0.02                # ~self-pairs only: result stays O(n)

_CAPPED_SCRIPT = """\
import os, resource, sys
import numpy as np
from repro.core.result import PairFragments
from repro.data.store import SpatialStore
from repro.engine import get_backend
from repro.experiments.outofcore import StreamingPairDigest

store_path, budget, eps, mode = (
    sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4])
store = SpatialStore.open(store_path)

page = os.sysconf("SC_PAGESIZE")
baseline = int(open("/proc/self/statm").read().split()[0]) * page
resource.setrlimit(resource.RLIMIT_AS,
                   (baseline + budget, resource.RLIM_INFINITY))


class DigestSink(PairFragments):
    # Folds every emitted fragment into the multiset digest and retains
    # nothing: the result streams out of the join shard by shard.
    def __init__(self, num_rows):
        super().__init__(num_rows)
        self.digest = StreamingPairDigest()

    def emit(self, keys, values):
        self.digest.update(keys, values)
        self._num_pairs += int(keys.shape[0])


if mode == "streamed":
    sink = DigestSink(store.n_points)
    # Small kernel chunk bound: the default (4M candidate pairs) sizes
    # per-chunk temporaries for machines with memory to spare.
    get_backend("sharded(64)").run_selfjoin_streamed(
        store, eps, sink, max_candidate_pairs=10_000)
    print("STREAMED", sink.num_pairs, sink.digest.hexdigest())
else:
    try:
        from repro.engine import Query, run_query
        result = run_query(Query.self_join(store.as_array(), eps),
                           max_candidate_pairs=10_000)
        print("INMEMORY completed", result.fragments.num_pairs)
    except MemoryError:
        print("INMEMORY MemoryError")
"""


class TestAddressSpaceCap:
    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        points = uniform_dataset(_CAP_N_POINTS, _CAP_DIMS, seed=5)
        path = tmp_path_factory.mktemp("outofcore") / "big"
        store = SpatialStore.write(points, path)
        # ε giving ~only self-pairs, so the result set (which any join must
        # hold) stays well under the budget while the dataset exceeds it.
        ref = run_query(Query.self_join(points, _CAP_EPS),
                        max_candidate_pairs=10_000)
        return store, _CAP_EPS, pair_multiset_digest(ref.fragments), \
            ref.fragments.num_pairs

    def _run(self, store, eps, mode):
        return subprocess.run(
            [sys.executable, "-c", _CAPPED_SCRIPT, str(store.path),
             str(_AS_BUDGET_BYTES), str(eps), mode],
            capture_output=True, text=True, timeout=300,
            # The small mmap threshold returns the per-shard transients to
            # the OS promptly, keeping allocator slack (not the algorithm)
            # from dominating the footprint under the cap.
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin",
                 "MALLOC_MMAP_THRESHOLD_": "16384",
                 "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

    def test_store_exceeds_the_budget(self, big_store):
        store, _, _, _ = big_store
        stored_bytes = sum(f.stat().st_size
                           for f in store.path.rglob("*") if f.is_file())
        assert stored_bytes > _AS_BUDGET_BYTES, \
            "the fixture dataset must be larger than the memory budget"

    def test_streamed_join_completes_under_the_cap(self, big_store):
        store, eps, ref_digest, ref_pairs = big_store
        proc = self._run(store, eps, "streamed")
        assert proc.returncode == 0, proc.stderr
        line = [l for l in proc.stdout.splitlines()
                if l.startswith("STREAMED")][0]
        _, pairs, digest = line.split()
        # Bit-identical pair multiset vs the uncapped in-memory reference.
        assert int(pairs) == ref_pairs
        assert digest == ref_digest

    def test_in_memory_join_dies_under_the_same_cap(self, big_store):
        store, eps, _, _ = big_store
        proc = self._run(store, eps, "inmemory")
        # Either a caught MemoryError or a hard allocation failure — never
        # a completed join.
        assert "INMEMORY completed" not in proc.stdout, proc.stdout
        if proc.returncode == 0:
            assert "INMEMORY MemoryError" in proc.stdout, proc.stdout


class TestStorePoolLifecycle:
    def test_sessions_over_one_store_share_its_pool(self, tmp_path):
        # Each session over the store materializes its own array after
        # attach; joins of either must still find the one attached pool
        # rather than open a pool of their own.
        from repro.parallel.mp import MultiprocessBackend

        points = _dataset(2, seed=96, n=250)
        store = _store_for(points, tmp_path, 0.9)
        backend = MultiprocessBackend(n_workers=2)
        with EngineSession(store, backend=backend) as first, \
                EngineSession(SpatialStore.open(store.path),
                              backend=backend) as second:
            assert first.identity == second.identity
            got = [session.self_join(0.9) for session in (first, second)]
            assert backend.worker_pids(second) == backend.worker_pids(first)
        assert backend.stats.datasets_opened == 1
        assert backend.stats.datasets_closed == 1
        assert backend.stats.datasets_mapped == 1
        ref = _canonical(run_query(Query.self_join(points, 0.9)))
        for result in got:
            keys, values = _canonical(result)
            assert np.array_equal(keys, ref[0])
            assert np.array_equal(values, ref[1])
