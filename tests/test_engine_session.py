"""Session lifecycle semantics: index caching, persistent pools, shared memory.

The acceptance properties of the session-based engine lifecycle:

* the per-ε grid-index cache hits across repeated queries and misses across
  ε changes (including the kNN radius-doubling rounds);
* a warm ``multiprocess`` session query performs **no pool creation and no
  dataset re-shipping** (pool identity + lifecycle counters);
* a pool lives exactly while some session holds its dataset: the last
  ``detach()`` shuts it down, and repeated sessions over fresh arrays (ε
  sweeps, catalog register/evict rounds) leave no pool, worker process or
  shared-memory segment behind;
* shared-memory segments are released on ``detach()`` and at interpreter
  exit without ``resource_tracker`` warnings;
* session-path results are **bit-identical** to the one-shot path across
  every registered available backend, dims 2–6, with and without UNICOMP.
"""

from __future__ import annotations

import multiprocessing
import os
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
from repro.parallel.mp import START_METHOD_ENV_VAR, MultiprocessBackend

ALL_DIMS = [2, 3, 4, 5, 6]
POINTS_BY_DIM = {2: 120, 3: 100, 4: 80, 5: 60, 6: 40}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: Environment of the interpreter-exit subprocesses: the package, plus the
#: pool start method when one is set.
CHILD_ENV = {"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin",
             **{key: os.environ[key] for key in (START_METHOD_ENV_VAR,)
                if key in os.environ}}


def _dataset(dims=2, seed=7, n=None):
    return uniform_dataset(n or POINTS_BY_DIM[dims], dims, seed=seed,
                           low=0.0, high=4.0)


def _live_children() -> set:
    """PIDs of this process's live ``multiprocessing`` children."""
    return {proc.pid for proc in multiprocessing.active_children()}


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
            EngineSession(_dataset(), backend="bruteforce",
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
                          backend="bruteforce")


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


class TestDatasetValidatedOnce:
    """The session validates its dataset once: an array when the session
    is created, a store when it is materialized; its range and kNN queries
    validate only their own points."""

    def test_queries_do_not_rescan_the_dataset(self, monkeypatch):
        from repro.apps.knn import knn_search
        from repro.engine import query as query_module

        points = uniform_dataset(300, 2, seed=4, low=0.0, high=1.0)
        seen = []
        check = query_module.ensure_2d_float64

        def spy(array, *args, **kwargs):
            seen.append(array)
            return check(array, *args, **kwargs)

        monkeypatch.setattr(query_module, "ensure_2d_float64", spy)
        with EngineSession(points) as session:
            probe = points[:3] + 0.01
            session.range_query(probe, 0.1)
            knn_search(None, 2, queries=probe, session=session)
            session.knn_candidates(2)
            assert seen and not any(a is session.points for a in seen)
            for bad in (np.array([[np.nan, 0.0]]), np.array([[np.inf, 0.0]])):
                with pytest.raises(ValueError, match="finite"):
                    session.range_query(bad, 0.1)
                with pytest.raises(ValueError, match="finite"):
                    knn_search(None, 2, queries=bad, session=session)

    def test_the_dataset_is_validated_at_creation(self):
        with pytest.raises(ValueError, match="finite"):
            EngineSession(np.array([[0.0, 1.0], [np.nan, 0.0]]))

    def test_a_store_is_validated_when_materialized(self, tmp_path):
        """An on-disk store's points are checked once, when the session
        first reads them as an array, since its queries do not re-scan
        them."""
        from repro.apps.knn import knn_search
        from repro.data.store import SpatialStore

        points = uniform_dataset(50, 2, seed=5, low=0.0, high=1.0)
        SpatialStore.write(points, tmp_path / "store")
        stored = np.load(tmp_path / "store" / "points.npy")
        stored[7, 1] = np.nan
        np.save(tmp_path / "store" / "points.npy", stored)
        for query in (lambda session: session.range_query(points[:2], 0.1),
                      lambda session: knn_search(None, 2, queries=points[:2],
                                                 session=session)):
            with EngineSession(SpatialStore.open(tmp_path / "store")) as session:
                with pytest.raises(ValueError, match="points must be finite"):
                    query(session)


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
            assert backend.stats.datasets_opened == 1
            session.self_join(0.9)              # warm: same ε
            session.self_join(0.5)              # warm: new ε, worker reindexes
            session.knn_candidates(3)           # warm: radius doubling rounds
            assert backend.worker_pids(session) == pids
            assert backend.stats.datasets_opened == 1
            # Zero-copy: the dataset entered a shared-memory segment once and
            # never an initializer pickle.
            assert backend.stats.shm_segments_created == 1
            assert backend.stats.datasets_shipped == 0
        backend.shutdown()

    def test_detach_shuts_the_pool_down(self):
        points = _dataset(seed=33)
        backend = MultiprocessBackend(n_workers=2)
        with EngineSession(points, backend=backend) as session:
            session.self_join(0.9)
            pids = backend.worker_pids(session)
        assert backend.worker_pids(session) == ()
        assert backend.stats.datasets_closed == 1
        assert backend.stats.datasets_opened == 1
        assert backend.stats.shm_segments_released == \
            backend.stats.shm_segments_created == 1
        assert not set(pids) & _live_children()

    def test_pool_lives_while_any_session_holds_it(self):
        points = _dataset(seed=43)
        backend = MultiprocessBackend(n_workers=2)
        first = EngineSession(points, backend=backend).open()
        second = EngineSession(points, backend=backend).open()
        pids = backend.worker_pids(first)
        first.close()
        second.self_join(0.9)             # still on the shared pool
        assert backend.worker_pids(second) == pids
        assert backend.stats.datasets_closed == 0
        second.close()
        assert backend.stats.datasets_opened == 1
        assert backend.stats.datasets_closed == 1

    def test_session_over_a_mutated_array_gets_a_fresh_pool(self):
        # n=600 makes the sampled identity fingerprint stride 2, so mutating
        # odd row 1 keeps the DatasetIdentity unchanged: only the pool's
        # shutdown at the first session's close keeps its stale snapshot
        # from serving the second session.
        points = _dataset(seed=41, n=600)
        eps = 0.5
        backend = MultiprocessBackend(n_workers=2)
        with EngineSession(points, backend=backend) as session:
            session.self_join(eps)
        points[1] = [0.05, 0.05]  # unsampled row: identity unchanged
        with EngineSession(points, backend=backend) as session2:
            assert session2.identity == session.identity
            got = session2.self_join(eps)
        assert backend.stats.datasets_opened == 2
        ref = run_query(Query.self_join(points, eps))
        assert _bit_identical(got, ref)

    def test_collected_backend_tears_down_an_attached_pool(self):
        # A throwaway backend dropped while a session is still attached
        # must not orphan worker processes or shared memory: the finalizer
        # tears them down at collection (and would at interpreter exit).
        # The session plans on the default backend and stays alive, so
        # nothing detaches it: only the finalizer can clean up.
        import gc
        from multiprocessing import shared_memory

        points = _dataset(seed=45)
        session = EngineSession(points)
        backend = MultiprocessBackend(n_workers=2)
        backend.attach(session)
        pids = backend.worker_pids(session)
        assert len(pids) == 2 and set(pids) <= _live_children()
        shm_name = backend._attached[session.identity].handle.shm.name
        del backend
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shm_name)
        assert not set(pids) & _live_children()
        assert session.self_join(0.9).num_pairs > 0   # still usable

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
        backend = MultiprocessBackend(n_workers=1)
        returned = []
        with EngineSession(points, backend=backend) as session:
            session.self_join(0.9)
            state = backend._attached[session.identity].handle
            state.apply(time.sleep, (0.3,), returned.append, returned.append)
        assert backend.stats.datasets_closed == 1
        assert returned == [None]

    def test_shared_memory_released_on_shutdown(self):
        points = _dataset(seed=34)
        backend = MultiprocessBackend(n_workers=2)
        session = EngineSession(points, backend=backend)
        session.self_join(0.9)
        state = backend._attached[session.identity].handle
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
        # knn_search without a session wraps a private session: after the
        # call, its backend holds no pool (no processes, no shared memory,
        # no dataset reference).
        from repro.apps.knn import knn_search

        points = _dataset(seed=38)
        backend = MultiprocessBackend(n_workers=2)
        result = knn_search(points, 3, backend=backend)
        assert result.indices.shape == (points.shape[0], 3)
        assert backend._attached == {}
        assert backend.stats.datasets_closed == backend.stats.datasets_opened

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


class TestNoPoolLeaks:
    """Sessions over fresh arrays leave no pool, worker or segment behind."""

    @staticmethod
    def _assert_released(backend, children_before) -> None:
        stats = backend.stats
        assert stats.datasets_closed == stats.datasets_opened
        assert stats.shm_segments_released == stats.shm_segments_created
        assert not _live_children() - children_before

    def test_engine_sweeps_over_fresh_arrays(self):
        from repro.engine.backends import get_backend
        from repro.experiments.runner import run_algorithm_sweep

        children = _live_children()
        for seed in (51, 52, 53):
            run_algorithm_sweep("Engine[multiprocess(2)]",
                                _dataset(seed=seed), [0.9])
        backend = get_backend("multiprocess(2)")
        assert backend.stats.datasets_opened >= 3
        self._assert_released(backend, children)

    def test_catalog_register_query_evict_rounds(self):
        from repro.engine.backends import get_backend
        from repro.service.catalog import SessionCatalog

        catalog = SessionCatalog(default_backend="multiprocess(1)")
        children = _live_children()
        for seed in (61, 62, 63):
            catalog.register("points", _dataset(seed=seed))
            assert catalog.get("points").self_join(0.9).num_pairs > 0
            catalog.evict("points")
        backend = get_backend("multiprocess(1)")
        assert backend.stats.datasets_opened >= 3
        self._assert_released(backend, children)


class TestSharedMemoryExit:
    def test_interpreter_exit_leaves_no_tracker_warnings(self):
        # A session left open at interpreter exit must be torn down by the
        # backend's finalizer: no resource_tracker "leaked shared_memory"
        # noise, no orphaned segment.
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
            env=CHILD_ENV,
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
            "be = MultiprocessBackend(n_workers=2)\n"
            "with EngineSession(pts, backend=be) as session:\n"
            "    session.self_join(0.9)\n"
            "print('released', be.stats.shm_segments_released)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env=CHILD_ENV,
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
