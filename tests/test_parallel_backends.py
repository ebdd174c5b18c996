"""Parity and registry tests for the parallel execution subsystem.

The ``sharded`` and ``multiprocess`` backends must be pair-identical to the
``vectorized`` backend and to brute force on every query kind, across
dimensionalities, with and without UNICOMP, and for shard counts that
exercise the degenerate (1), even (2) and uneven (7) decompositions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_selfjoin
from repro.core.batching import BatchPlanner
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.engine import (
    BackendUnavailableError,
    Query,
    QueryPlanner,
    available_backends,
    backend_availability,
    execute,
    get_backend,
    list_backends,
    register_lazy_backend,
    run_query,
)
from repro.engine.backends import BACKENDS, _INSTANCES
from repro.parallel import MultiprocessBackend, ShardedBackend

ALL_DIMS = [2, 3, 4, 5, 6]
POINTS_BY_DIM = {2: 120, 3: 100, 4: 80, 5: 60, 6: 40}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}


def _dataset(dims, seed_base=40):
    return uniform_dataset(POINTS_BY_DIM[dims], dims, seed=seed_base + dims,
                           low=0.0, high=4.0)


def _table(points, eps, backend, unicomp):
    planner = QueryPlanner(backend=backend)
    query = Query.self_join(points, eps, unicomp=unicomp)
    return execute(planner.plan(query)).neighbor_table


class TestShardedParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_selfjoin_matches_vectorized_and_bruteforce(self, dims, unicomp,
                                                        n_shards):
        points = _dataset(dims)
        eps = EPS_BY_DIM[dims]
        reference = _table(points, eps, "vectorized", unicomp)
        brute = bruteforce_selfjoin(points, eps).result.to_neighbor_table()
        assert reference.same_contents_as(brute)
        table = _table(points, eps, f"sharded({n_shards})", unicomp)
        assert table.same_contents_as(reference), (dims, unicomp, n_shards)

    def test_sharded_inner_backend_parameter(self):
        points = _dataset(3)
        eps = EPS_BY_DIM[3]
        reference = _table(points, eps, "vectorized", False)
        table = _table(points, eps, "sharded(3, cellwise)", False)
        assert table.same_contents_as(reference)

    def test_bipartite_and_range_parity(self):
        left = uniform_dataset(90, 3, seed=81, low=0.0, high=4.0)
        right = uniform_dataset(130, 3, seed=91, low=0.0, high=4.0)
        ref = run_query(Query.bipartite_join(left, right, 1.0)).neighbor_table
        assert run_query(Query.bipartite_join(left, right, 1.0),
                         backend="sharded(7)").neighbor_table \
            .same_contents_as(ref)
        ref_range = run_query(Query.range_query(right, left, 1.0)).neighbor_table
        assert run_query(Query.range_query(right, left, 1.0),
                         backend="sharded(2)").neighbor_table \
            .same_contents_as(ref_range)


class TestMultiprocessParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_selfjoin_matches_vectorized_and_bruteforce(self, dims, unicomp):
        points = _dataset(dims, seed_base=50)
        eps = EPS_BY_DIM[dims]
        reference = _table(points, eps, "vectorized", unicomp)
        brute = bruteforce_selfjoin(points, eps).result.to_neighbor_table()
        assert reference.same_contents_as(brute)
        table = _table(points, eps, "multiprocess(2)", unicomp)
        assert table.same_contents_as(reference), (dims, unicomp)

    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_shard_counts(self, n_shards):
        points = _dataset(2)
        eps = EPS_BY_DIM[2]
        reference = _table(points, eps, "vectorized", True)
        backend = MultiprocessBackend(n_workers=2, n_shards=n_shards)
        sink = PairFragments(points.shape[0])
        from repro.core.gridindex import GridIndex
        index = GridIndex.build(points, eps)
        backend.run_selfjoin(index, eps, None, sink, unicomp=True)
        assert sink.to_neighbor_table().same_contents_as(reference)

    def test_bipartite_range_and_knn_parity(self):
        left = uniform_dataset(80, 3, seed=18, low=0.0, high=4.0)
        right = uniform_dataset(120, 3, seed=19, low=0.0, high=4.0)
        ref = run_query(Query.bipartite_join(left, right, 1.0)).neighbor_table
        assert run_query(Query.bipartite_join(left, right, 1.0),
                         backend="multiprocess(2)").neighbor_table \
            .same_contents_as(ref)
        ref_range = run_query(Query.range_query(right, left, 1.0)).neighbor_table
        assert run_query(Query.range_query(right, left, 1.0),
                         backend="multiprocess(2)").neighbor_table \
            .same_contents_as(ref_range)
        ref_knn = run_query(Query.knn_candidates(right, 4),
                            backend="vectorized")
        mp_knn = run_query(Query.knn_candidates(right, 4),
                           backend="multiprocess(2)")
        assert np.all(mp_knn.neighbor_table.counts() >= 4)
        assert np.all(ref_knn.neighbor_table.counts() >= 4)

    def test_stats_survive_the_pool(self):
        points = _dataset(2)
        result = run_query(Query.self_join(points, EPS_BY_DIM[2]),
                           backend="multiprocess(2)")
        serial = run_query(Query.self_join(points, EPS_BY_DIM[2]),
                           backend="vectorized")
        assert result.stats.result_pairs == serial.stats.result_pairs
        assert result.stats.distance_calcs == serial.stats.distance_calcs

    def test_engine_runner_label(self):
        from repro.experiments.runner import run_algorithm

        points = _dataset(2)
        mean, _std, pairs = run_algorithm("Engine[multiprocess(2)]", points,
                                          EPS_BY_DIM[2])
        _mean, _std, ref_pairs = run_algorithm("Engine[vectorized]", points,
                                               EPS_BY_DIM[2])
        assert pairs == ref_pairs
        assert mean > 0


class TestRegistry:
    def test_parameterized_lookup(self):
        backend = get_backend("multiprocess(3)")
        assert isinstance(backend, MultiprocessBackend)
        assert backend.n_workers == 3
        assert get_backend("multiprocess(3)") is backend  # cached
        sharded = get_backend("sharded(4, cellwise)")
        assert isinstance(sharded, ShardedBackend)
        assert sharded.n_shards == 4 and sharded.inner_name == "cellwise"

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(KeyError, match="vectorized"):
            get_backend("quantum")

    def test_malformed_name_rejected(self):
        with pytest.raises(KeyError):
            get_backend("multi process")

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            get_backend("vectorized(3, 4, 5)")

    def test_lazy_backends_listed_and_available(self):
        names = list_backends()
        assert {"sharded", "multiprocess"} <= set(names)
        assert {"sharded", "multiprocess"} <= set(available_backends())
        status = backend_availability()
        assert status["sharded"] is None
        assert status["multiprocess"] is None

    def test_missing_module_backend_listed_but_unavailable(self):
        # A lazily registered backend whose module cannot be imported stays
        # *listed*, and the availability report and the lookup error both
        # name the failed import instead of an unknown-backend KeyError.
        saved = dict(BACKENDS)
        register_lazy_backend("needsdep", "repro_no_such_module_xyz")
        try:
            assert "needsdep" in list_backends()
            assert "needsdep" not in available_backends()
            reason = backend_availability()["needsdep"]
            assert reason is not None and "repro_no_such_module_xyz" in reason
            with pytest.raises(BackendUnavailableError,
                               match="repro_no_such_module_xyz"):
                get_backend("needsdep")
            # Still a KeyError for callers using the old contract.
            with pytest.raises(KeyError):
                QueryPlanner(backend="needsdep")
        finally:
            BACKENDS.clear()
            BACKENDS.update(saved)
            _INSTANCES.pop("needsdep", None)

    def test_planner_skips_device_batching_for_owning_backends(self):
        points = uniform_dataset(300, 2, seed=3, low=0.0, high=10.0)
        plan = QueryPlanner(backend="sharded").plan(Query.self_join(points, 0.8))
        assert plan.batch_plan is None
        plan = QueryPlanner(backend="vectorized",
                            batch_planner=BatchPlanner(min_batches=3)).plan(
            Query.self_join(points, 0.8))
        assert plan.batch_plan is not None


class TestPlanSeedKnob:
    """One explicit seed drives every sampled cost estimate of a backend.

    Both `default_rng(seed)` sites in ``core/batching.py`` —
    ``estimate_cell_costs`` behind the shard split and
    ``estimate_probe_row_costs`` behind the probe-row split — resolve from
    the backend's single ``seed`` parameter, reachable through the registry
    spec, so shard plans are reproducible from one knob.
    """

    def test_seed_exposed_in_registry_specs(self):
        from repro.engine.backends import _INSTANCES

        try:
            sharded = get_backend("sharded(4, vectorized, 11)")
            assert (sharded.n_shards, sharded.inner_name, sharded.seed) \
                == (4, "vectorized", 11)
            mp = get_backend("multiprocess(2, vectorized, 4, 2, 9)")
            assert (mp.n_workers, mp.n_shards, mp.seed) == (2, 4, 9)
        finally:
            _INSTANCES.pop("sharded(4, vectorized, 11)", None)
            _INSTANCES.pop("multiprocess(2, vectorized, 4, 2, 9)", None)

    def test_same_seed_reproduces_the_shard_plan(self):
        from repro.core.gridindex import GridIndex
        from repro.parallel.shards import ShardPlanner

        points = uniform_dataset(400, 2, seed=21, low=0.0, high=10.0)
        index = GridIndex.build(points, 0.6)
        plans = [ShardPlanner(n_shards=5, seed=13).plan(index)
                 for _ in range(2)]
        for a, b in zip(plans[0].shards, plans[1].shards):
            assert np.array_equal(a, b)

    def test_seeded_backends_remain_pair_identical(self):
        points = uniform_dataset(250, 2, seed=22, low=0.0, high=8.0)
        ref = run_query(Query.self_join(points, 0.7))
        for spec in ("sharded(3, vectorized, 1)", "sharded(3, vectorized, 2)"):
            got = run_query(Query.self_join(points, 0.7), backend=spec)
            assert got.result_set.sort().same_pairs_as(ref.result_set.sort()), spec
