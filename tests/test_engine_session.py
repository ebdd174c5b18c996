"""Session lifecycle semantics: index caching, persistent pools, shared memory.

The acceptance properties of the session-based engine lifecycle:

* the per-ε grid-index cache hits across repeated queries and misses across
  ε changes (including the kNN radius-doubling rounds);
* a warm ``multiprocess`` session query performs **no pool creation and no
  dataset re-shipping** (pool identity + lifecycle counters);
* shared-memory segments are released on ``detach()`` and at interpreter
  exit without ``resource_tracker`` warnings;
* session-path results are **bit-identical** to the one-shot path across
  every registered available backend, dims 2–6, with and without UNICOMP.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.synthetic import uniform_dataset
from repro.engine import (
    EngineSession,
    Query,
    QueryPlanner,
    available_backends,
    run_query,
)
from repro.parallel.mp import MultiprocessBackend

ALL_DIMS = [2, 3, 4, 5, 6]
POINTS_BY_DIM = {2: 120, 3: 100, 4: 80, 5: 60, 6: 40}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _dataset(dims=2, seed=7, n=None):
    return uniform_dataset(n or POINTS_BY_DIM[dims], dims, seed=seed,
                           low=0.0, high=4.0)


def _bit_identical(a, b) -> bool:
    """Pair streams equal element-for-element (order included)."""
    ka, va = a.pairs()
    kb, vb = b.pairs()
    return np.array_equal(ka, kb) and np.array_equal(va, vb)


class TestLifecycle:
    def test_context_manager_opens_and_closes(self):
        session = EngineSession(_dataset())
        assert not session.is_open
        with session as s:
            assert s is session
            assert s.is_open
        assert not session.is_open

    def test_run_auto_opens(self):
        session = EngineSession(_dataset())
        result = session.self_join(0.9)
        assert session.is_open
        assert result.num_pairs > 0
        session.close()
        assert not session.is_open
        assert session.cached_eps == ()

    def test_close_is_idempotent_and_session_reopens(self):
        session = EngineSession(_dataset())
        session.open()
        session.close()
        session.close()
        result = session.self_join(0.9)  # reopens with cold caches
        assert result.num_pairs > 0
        session.close()

    def test_foreign_query_rejected(self):
        session = EngineSession(_dataset(seed=1))
        other = _dataset(seed=2)
        with pytest.raises(ValueError, match="session.points"):
            session.run(Query.self_join(other, 0.9))
        session.close()

    def test_session_and_planner_kwargs_are_exclusive(self):
        with pytest.raises(ValueError):
            EngineSession(_dataset(), planner=QueryPlanner(),
                          validate_index=True)
        with pytest.raises(ValueError):
            # A conflicting explicit backend must not be silently ignored.
            EngineSession(_dataset(), backend="cellwise",
                          planner=QueryPlanner())

    def test_run_query_accepts_session(self):
        points = _dataset()
        with EngineSession(points) as session:
            via_session = run_query(Query.self_join(points, 0.9),
                                    session=session)
            assert session.stats.queries_run == 1
            assert via_session.num_pairs > 0
            with pytest.raises(ValueError):
                run_query(Query.self_join(points, 0.9), session=session,
                          backend="cellwise")


class TestIndexCache:
    def test_hit_and_miss_across_eps_changes(self):
        with EngineSession(_dataset()) as session:
            session.self_join(0.9)
            assert (session.stats.index_misses,
                    session.stats.index_hits) == (1, 0)
            session.self_join(0.9)   # same ε: hit
            assert (session.stats.index_misses,
                    session.stats.index_hits) == (1, 1)
            session.self_join(0.5)   # new ε: miss
            assert (session.stats.index_misses,
                    session.stats.index_hits) == (2, 1)
            session.self_join(0.9)   # still cached
            assert session.stats.index_hits == 2
            assert set(session.cached_eps) == {0.9, 0.5}

    def test_cache_hit_plans_with_zero_build_time(self):
        with EngineSession(_dataset()) as session:
            session.self_join(0.9)
            plan = session.planner.plan(
                Query.self_join(session.points, 0.9), session=session)
            assert plan.index is session.index_for(0.9)
            assert plan.session is session

    def test_knn_radius_doubling_reuses_cached_indexes(self):
        # Sparse points at a tiny cell width force doubling rounds; the
        # second identical query must resolve every round from cache.
        points = _dataset(n=60, seed=11)
        with EngineSession(points) as session:
            session.knn_candidates(5, cell_width=0.05)
            misses_after_first = session.stats.index_misses
            assert misses_after_first >= 2  # initial ε plus ≥1 doubling
            hits_before = session.stats.index_hits
            session.knn_candidates(5, cell_width=0.05)
            assert session.stats.index_misses == misses_after_first
            assert session.stats.index_hits \
                >= hits_before + misses_after_first

    def test_lru_eviction_bounds_the_cache(self):
        with EngineSession(_dataset(), max_cached_indexes=2) as session:
            for eps in (0.5, 0.7, 0.9):
                session.self_join(eps)
            assert len(session.cached_eps) == 2
            assert set(session.cached_eps) == {0.7, 0.9}


class TestSessionParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_selfjoin_bit_identical_to_one_shot(self, dims, unicomp):
        points = _dataset(dims, seed=40 + dims)
        eps = EPS_BY_DIM[dims]
        one_shot = run_query(Query.self_join(points, eps, unicomp=unicomp))
        with EngineSession(points) as session:
            in_session = session.self_join(eps, unicomp=unicomp)
            again = session.self_join(eps, unicomp=unicomp)  # warm index
        assert _bit_identical(one_shot, in_session), (dims, unicomp)
        assert _bit_identical(one_shot, again), (dims, unicomp)

    def test_all_available_backends_bit_identical(self):
        points = _dataset(3, seed=23)
        eps = EPS_BY_DIM[3]
        for backend in available_backends():
            one_shot = run_query(Query.self_join(points, eps, unicomp=False),
                                 backend=backend)
            with EngineSession(points, backend=backend) as session:
                in_session = session.self_join(eps, unicomp=False)
                warm = session.self_join(eps, unicomp=False)
            assert _bit_identical(one_shot, in_session), backend
            assert _bit_identical(one_shot, warm), backend

    def test_probe_queries_match_one_shot(self):
        points = _dataset(3, seed=5)
        queries = uniform_dataset(50, 3, seed=6, low=0.0, high=4.0)
        eps = 1.0
        ref_range = run_query(Query.range_query(points, queries, eps))
        ref_bip = run_query(Query.bipartite_join(queries, points, eps))
        with EngineSession(points) as session:
            got_range = session.range_query(queries, eps)
            got_bip = session.bipartite_join(queries, eps)
        assert got_range.neighbor_table.same_contents_as(
            ref_range.neighbor_table)
        assert got_bip.neighbor_table.same_contents_as(ref_bip.neighbor_table)

    def test_knn_candidates_cover_the_exact_neighbors(self):
        points = _dataset(2, seed=9)
        with EngineSession(points) as session:
            result = session.knn_candidates(4)
        assert np.all(result.neighbor_table.counts() >= 4)


class TestPersistentPool:
    def test_warm_query_reuses_pool_and_never_reships(self):
        points = _dataset(seed=31)
        backend = MultiprocessBackend(n_workers=2)
        with EngineSession(points, backend=backend) as session:
            session.self_join(0.9)
            pids = backend.worker_pids(session)
            assert len(pids) == 2
            assert backend.stats.pools_created == 1
            session.self_join(0.9)              # warm: same ε
            session.self_join(0.5)              # warm: new ε, worker reindexes
            session.knn_candidates(3)           # warm: radius doubling rounds
            assert backend.worker_pids(session) == pids
            assert backend.stats.pools_created == 1
            # Zero-copy: the dataset entered a shared-memory segment once and
            # never an initializer pickle.
            assert backend.stats.shm_segments_created == 1
            assert backend.stats.datasets_shipped == 0
        backend.shutdown()

    def test_detach_parks_pool_and_reattach_revives_it(self):
        points = _dataset(seed=32)
        backend = MultiprocessBackend(n_workers=2, max_idle=1)
        with EngineSession(points, backend=backend) as session:
            session.self_join(0.9)
            pids = backend.worker_pids(session)
        assert backend.has_idle_pool_for(session)
        with EngineSession(points, backend=backend) as revived:
            revived.self_join(0.9)
            assert backend.worker_pids(revived) == pids
        assert backend.stats.pools_created == 1
        assert backend.stats.pools_revived == 1
        backend.shutdown()

    def test_mutated_dataset_never_revives_a_stale_pool(self):
        # In-place mutation between sessions must not resurrect the parked
        # pool's shared-memory snapshot: revival is guarded by a
        # full-content digest taken at park time, so the second session gets
        # a fresh pool and correct results.  n=600 makes the sampled
        # identity fingerprint stride 2, so mutating odd row 1 keeps the
        # DatasetIdentity (and hence the pool key) unchanged — the digest
        # branch is the only thing standing between us and stale results.
        points = _dataset(seed=41, n=600)
        eps = 0.5
        backend = MultiprocessBackend(n_workers=2, max_idle=1)
        with EngineSession(points, backend=backend) as session:
            session.self_join(eps)
        assert backend.has_idle_pool_for(session)
        points[1] = [0.05, 0.05]  # unsampled row: identity/pool key unchanged
        with EngineSession(points, backend=backend) as session2:
            assert session2.identity == session.identity  # same pool key
            got = session2.self_join(eps)
        backend.shutdown()
        assert backend.stats.pools_revived == 0  # digest refused the revival
        assert backend.stats.pools_created == 2  # stale pool was NOT revived
        ref = run_query(Query.self_join(points, eps))
        assert got.neighbor_table.same_contents_as(ref.neighbor_table)

    def test_ephemeral_session_re_parks_a_revived_pool(self):
        # A keep_warm=False one-shot riding on another owner's parked pool
        # must return it to the idle list, not destroy it.
        from repro.apps.knn import knn_search

        points = _dataset(seed=42)
        backend = MultiprocessBackend(n_workers=2, max_idle=1)
        with EngineSession(points, backend=backend) as owner:
            owner.self_join(0.9)
            pids = backend.worker_pids(owner)
        assert backend.has_idle_pool_for(owner)
        knn_search(points, 3, backend=backend)  # ephemeral keep_warm=False
        assert backend.has_idle_pool_for(owner)
        with EngineSession(points, backend=backend) as again:
            again.self_join(0.9)
            assert backend.worker_pids(again) == pids
        assert backend.stats.pools_created == 1
        backend.shutdown()

    def test_any_warm_keeping_attacher_wins_park_decision(self):
        # A co-attached ephemeral session detaching last must not destroy a
        # pool a warm-keeping session expects to find parked.
        points = _dataset(seed=43)
        backend = MultiprocessBackend(n_workers=2, max_idle=1)
        warm = EngineSession(points, backend=backend).open()
        ephemeral = EngineSession(points, backend=backend,
                                  keep_warm=False).open()
        warm.self_join(0.9)
        warm.close()                      # ephemeral still attached
        ephemeral.close()                 # last out: must park, not destroy
        assert backend.has_idle_pool_for(warm)
        with EngineSession(points, backend=backend) as again:
            again.self_join(0.9)
        assert backend.stats.pools_created == 1
        backend.shutdown()

    def test_parked_pool_does_not_pin_the_dataset(self):
        # Parking releases the parent-side array reference (the content
        # digest guards revival), so dropping the caller's references frees
        # the dataset even while the pool idles.
        import gc
        import weakref

        points = _dataset(seed=44)
        ref = weakref.ref(points)
        backend = MultiprocessBackend(n_workers=2, max_idle=1)
        session = EngineSession(points, backend=backend)
        session.self_join(0.9)
        session.close()
        assert backend.has_idle_pool_for(session)
        del session, points
        gc.collect()
        assert ref() is None              # idle pool holds no array pin
        backend.shutdown()

    def test_collected_backend_tears_down_its_parked_pools(self):
        # A throwaway backend instance dropped with pools parked must not
        # orphan worker processes or shared memory: the finalizer tears
        # them down at collection (and would at interpreter exit).
        import gc
        from multiprocessing import shared_memory

        points = _dataset(seed=45)
        backend = MultiprocessBackend(n_workers=2)
        with EngineSession(points, backend=backend) as session:
            session.self_join(0.9)
        state = next(iter(backend._idle.values()))
        assert state.shm is not None
        shm_name = state.shm.name
        del backend, session, state
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shm_name)

    def test_worker_shared_view_is_read_only(self):
        # Workers map one shared segment; in-place writes there must fail
        # loudly instead of corrupting the dataset under every worker.
        from repro.parallel.mp import _attach_shared_view
        from multiprocessing import shared_memory

        data = np.arange(12, dtype=np.float64).reshape(4, 3)
        shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
        try:
            staging = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
            staging[:] = data
            attached, view = _attach_shared_view(shm.name, data.shape,
                                                 str(data.dtype))
            assert np.array_equal(view, data)
            with pytest.raises(ValueError):
                view[0, 0] = -1.0
            attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_shutdown_lets_running_copies_finish(self):
        # A join that raised or was cancelled leaves its other shards
        # running.  Shutting the pool down must wait for them: killing a
        # worker mid-way through writing its result would leave the pool's
        # result reader (and so the shutdown) blocked.
        import time

        points = _dataset(seed=46)
        backend = MultiprocessBackend(n_workers=1, max_idle=0)
        returned = []
        with EngineSession(points, backend=backend) as session:
            session.self_join(0.9)
            state = backend._session_pool_for(session.points)
            state.apply(time.sleep, (0.3,), returned.append, returned.append)
        assert backend.stats.pools_shut_down == 1
        assert returned == [None]

    def test_max_idle_zero_shuts_down_on_detach(self):
        points = _dataset(seed=33)
        backend = MultiprocessBackend(n_workers=2, max_idle=0)
        with EngineSession(points, backend=backend) as session:
            session.self_join(0.9)
        assert not backend.has_idle_pool_for(session)
        assert backend.stats.pools_shut_down == 1
        assert backend.stats.shm_segments_released == \
            backend.stats.shm_segments_created

    def test_shared_memory_released_on_shutdown(self):
        points = _dataset(seed=34)
        backend = MultiprocessBackend(n_workers=2)
        session = EngineSession(points, backend=backend)
        session.self_join(0.9)
        state = backend._active[backend._pool_key(session)]
        assert state.shm is not None
        shm_name = state.shm.name
        session.close()
        backend.shutdown()
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shm_name)

    def test_external_probe_slices_rebase_to_global_rows(self):
        # External query sets ship as per-task slices with locally keyed
        # results re-based in the parent; the CSR table must be identical
        # to the one-shot path's globally keyed emission.
        points = _dataset(3, seed=36)
        queries = uniform_dataset(70, 3, seed=37, low=0.0, high=4.0)
        eps = EPS_BY_DIM[3]
        ref = run_query(Query.range_query(points, queries, eps))
        backend = MultiprocessBackend(n_workers=2)
        with EngineSession(points, backend=backend) as session:
            got = session.range_query(queries, eps)
            got_bip = session.bipartite_join(queries, eps)
        backend.shutdown()
        assert got.neighbor_table.same_contents_as(ref.neighbor_table)
        assert got_bip.neighbor_table.same_contents_as(
            run_query(Query.bipartite_join(queries, points, eps)).neighbor_table)

    def test_one_shot_knn_wrapper_leaves_no_warm_pool(self):
        # knn_search without a session wraps an ephemeral keep_warm=False
        # session: after the call, its backend must hold neither an active
        # nor an idle pool (no processes, no shared memory, no dataset ref).
        from repro.apps.knn import knn_search

        points = _dataset(seed=38)
        backend = MultiprocessBackend(n_workers=2)
        result = knn_search(points, 3, backend=backend)
        assert result.indices.shape == (points.shape[0], 3)
        assert backend._active == {} and len(backend._idle) == 0
        assert backend.stats.pools_shut_down == backend.stats.pools_created

    def test_sessions_results_match_one_shot_multiprocess(self):
        points = _dataset(seed=35)
        eps = EPS_BY_DIM[2]
        one_shot = run_query(Query.self_join(points, eps),
                             backend="multiprocess(2)")
        backend = MultiprocessBackend(n_workers=2)
        with EngineSession(points, backend=backend) as session:
            warm1 = session.self_join(eps)
            warm2 = session.self_join(eps)
        backend.shutdown()
        assert _bit_identical(one_shot, warm1)
        assert _bit_identical(one_shot, warm2)


class TestSharedMemoryExit:
    def test_interpreter_exit_leaves_no_tracker_warnings(self):
        # A session left open at interpreter exit must be torn down by the
        # atexit hook: no resource_tracker "leaked shared_memory" noise, no
        # orphaned segment.
        script = (
            "import numpy as np\n"
            "from repro.engine import EngineSession\n"
            "from repro.parallel.mp import MultiprocessBackend\n"
            "pts = np.random.default_rng(0).uniform(0, 4, (120, 2))\n"
            "be = MultiprocessBackend(n_workers=2)\n"
            "session = EngineSession(pts, backend=be)\n"
            "print('pairs', session.self_join(0.9).num_pairs)\n"
            "# no close(): interpreter exit must clean up\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "pairs" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr

    def test_detach_then_exit_is_clean_too(self):
        script = (
            "import numpy as np\n"
            "from repro.engine import EngineSession\n"
            "from repro.parallel.mp import MultiprocessBackend\n"
            "pts = np.random.default_rng(0).uniform(0, 4, (120, 2))\n"
            "be = MultiprocessBackend(n_workers=2, max_idle=0)\n"
            "with EngineSession(pts, backend=be) as session:\n"
            "    session.self_join(0.9)\n"
            "print('released', be.stats.shm_segments_released)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "released 1" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr


class TestSessionThreadSafety:
    """One session hammered from many threads (the query service's pattern)."""

    def test_concurrent_queries_and_index_cache_access(self):
        import threading

        rng = np.random.default_rng(5)
        pts = rng.random((600, 3))
        eps_values = [0.05, 0.08, 0.11, 0.14]
        ref = {eps: run_query(Query.self_join(pts, eps)).num_pairs
               for eps in eps_values}
        errors = []
        with EngineSession(pts, max_cached_indexes=2) as session:
            barrier = threading.Barrier(8)

            def hammer(worker):
                try:
                    barrier.wait()
                    for i in range(12):
                        eps = eps_values[(worker + i) % len(eps_values)]
                        if i % 3 == 0:
                            got = session.self_join(eps).num_pairs
                            assert got == ref[eps], (eps, got)
                        elif i % 3 == 1:
                            session.index_for(eps)
                        else:
                            table = session.range_query(
                                pts[worker:worker + 2], eps).neighbor_table
                            assert table.num_points == 2
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(w,))
                       for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors
            # The LRU bound must hold even under concurrent misses.
            assert len(session.cached_eps) <= 2
            stats = session.stats
            assert stats.queries_run == 8 * 8  # 12 iterations, 8 run queries
