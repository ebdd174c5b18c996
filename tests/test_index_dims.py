"""Grid indexes over fewer dimensions than the points.

:meth:`GridIndex.build` can grid any ``k`` of the ``n`` point dimensions;
:func:`repro.engine.planner.choose_index_dims` picks ``k`` wherever the
engine indexes a whole dataset.  Whatever the dims, every query must
return the table of the all-dims index, and every parallel backend must
build the parent's grid, so its stream and counters match ``vectorized``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.bruteforce import bruteforce_join, bruteforce_selfjoin
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_probe, run_selfjoin
from repro.core.result import NeighborTable, PairFragments
from repro.data.synthetic import exponential_dataset, uniform_dataset
from repro.engine import EngineSession, Query, run_query
from repro.engine.backends import get_backend
from repro.engine.planner import QueryPlanner, choose_index_dims

#: The 6-D input on which the planner indexes five dims.
HIGHDIM = dict(n=2000, dims=6, eps=0.25)


def _highdim(seed=1):
    return uniform_dataset(HIGHDIM["n"], HIGHDIM["dims"], seed=seed,
                           low=0.0, high=1.0)


def _tables(index, queries, k_nn):
    """CSR tables of GLOBAL, UNICOMP, a probe and kNN candidates."""
    backend = get_backend("vectorized")
    tables = {}
    for name in ("global", "unicomp", "probe"):
        rows = queries.shape[0] if name == "probe" else index.num_points
        sink = PairFragments(rows)
        if name == "probe":
            backend.run_probe(queries, index, index.eps, sink)
        else:
            backend.run_selfjoin(index, index.eps, None, sink,
                                 unicomp=name == "unicomp")
        tables[name] = NeighborTable.from_pairs(*sink.concatenated(), rows)
    tables["knn"] = run_query(
        Query.knn_candidates(index.points, k_nn, queries=queries),
        index=index).neighbor_table
    return {name: (t.offsets.tobytes(), t.neighbors.tobytes())
            for name, t in tables.items()}


@st.composite
def reduced_cases(draw):
    n_dims = draw(st.integers(2, 6))
    n_points = draw(st.integers(1, 60))
    coords = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    points = draw(hnp.arrays(np.float64, (n_points, n_dims), elements=coords))
    queries = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), n_dims),
                              elements=st.floats(-1.0, 5.0)))
    eps = draw(st.floats(0.2, 3.0))
    order = draw(st.permutations(range(n_dims)))
    k_nn = draw(st.integers(1, 4))
    return points, queries, eps, order, k_nn


class TestReducedIndexTables:
    @settings(max_examples=40, deadline=None)
    @given(reduced_cases())
    def test_every_k_gives_the_all_dims_tables(self, case):
        points, queries, eps, order, k_nn = case
        reference = _tables(GridIndex.build(points, eps), queries, k_nn)
        for k in range(1, points.shape[1] + 1):
            index = GridIndex.build(points, eps, dims=order[:k])
            index.validate()
            assert index.num_grid_dims == k
            assert _tables(index, queries, k_nn) == reference, order[:k]

    def test_default_indexes_every_dim(self):
        index = GridIndex.build(_highdim(), HIGHDIM["eps"])
        assert index.dims == tuple(range(6))
        assert index.num_dims == index.num_grid_dims == 6

    def test_grid_side_is_k_dimensional(self):
        index = GridIndex.build(_highdim(), HIGHDIM["eps"], dims=(4, 1))
        assert index.dims == (1, 4)
        assert index.num_dims == 6 and index.num_grid_dims == 2
        assert index.cell_coords.shape[1] == len(index.masks) == 2
        assert index.stats().num_grid_dims == 2
        assert np.array_equal(index.cell_coords_of(index.points),
                              index.point_cell_coords)

    @pytest.mark.parametrize("dims", [(), (6,), (-1, 0)])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="dims"):
            GridIndex.build(_highdim(), HIGHDIM["eps"], dims=dims)

    def test_probe_shape_check_reads_point_width(self):
        points = _highdim()
        index = QueryPlanner().index_dataset(points, HIGHDIM["eps"])
        assert index.num_grid_dims < index.num_dims
        # The supplied index matches the 6-D dataset it was built over.
        got = run_query(Query.range_query(points, points[:5], 0.25),
                        index=index)
        assert got.num_pairs > 0
        with pytest.raises(ValueError, match="does not match"):
            run_query(Query.range_query(points[:, :5], points[:5, :5], 0.25),
                      index=index)


@st.composite
def boundary_cases(draw):
    """Points with partners exactly ε, or one ulp either side of it, away
    along one non-indexed dim, and the same distance along no other."""
    n_dims = draw(st.integers(3, 6))
    dims = draw(st.permutations(range(n_dims)))[:draw(st.integers(1, n_dims - 1))]
    free = [j for j in range(n_dims) if j not in dims]
    eps = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.1, 2.0))
    n_base = draw(st.integers(1, 30))
    base = draw(hnp.arrays(np.float64, (n_base, n_dims),
                           elements=st.floats(0.0, 4.0)))
    partners = base.copy()
    for i in range(n_base):
        j = draw(st.sampled_from(free))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        at = base[i, j] + sign * eps
        ulps = draw(st.sampled_from([-1, 0, 1]))
        partners[i, j] = at if ulps == 0 else np.nextafter(at, ulps * np.inf)
    return base, partners, eps, dims


def _boundary_tables(index, queries):
    """Byte tables of a GLOBAL and a UNICOMP self-join on ``index`` and of
    a probe of ``queries`` against it."""
    backend = get_backend("vectorized")
    tables = []
    for name in ("global", "unicomp", "probe"):
        rows = queries.shape[0] if name == "probe" else index.num_points
        sink = PairFragments(rows)
        if name == "probe":
            backend.run_probe(queries, index, index.eps, sink)
        else:
            backend.run_selfjoin(index, index.eps, None, sink,
                                 unicomp=name == "unicomp")
        table = NeighborTable.from_pairs(*sink.concatenated(), rows)
        tables.append((table.offsets.tobytes(), table.neighbors.tobytes()))
    return tables


def _bruteforce_tables(points, queries, eps):
    """The same three tables from the all-pairs oracle."""
    join = run_query(Query.self_join(points, eps),
                     backend="bruteforce").neighbor_table
    probe = run_query(Query.range_query(points, queries, eps),
                      backend="bruteforce").neighbor_table
    return [(t.offsets.tobytes(), t.neighbors.tobytes())
            for t in (join, join, probe)]


class TestPreFilterBoundary:
    """The emitter drops a candidate on one non-indexed dim alone when
    ``d * d > eps2``.  At exactly ε, and one ulp either side, it must keep
    what the full distance keeps: the tables equal the all-pairs oracle's,
    which computes the same full distance with no grid."""

    @settings(max_examples=60, deadline=None)
    @given(boundary_cases())
    def test_tables_at_eps_on_a_non_indexed_dim(self, case):
        # Each partner differs from its point on a non-indexed dim only, so
        # the reduced grid puts both in one cell and only the distance
        # decides.  The all-dims grid is not the reference here: it grids
        # that dim and can put a pair one ulp past ε two cells apart
        # (test_all_dims_grid_bins_a_pair_one_ulp_past_eps).
        base, partners, eps, dims = case
        points = np.concatenate([base, partners])
        index = GridIndex.build(points, eps, dims=dims)
        assert index.num_grid_dims < index.num_dims
        assert _boundary_tables(index, partners) \
            == _bruteforce_tables(points, partners, eps)

    @pytest.mark.parametrize("far", [False, True])
    def test_only_the_boundary_decides(self, far):
        # Exactly ε apart on the non-indexed dim 2 is a hit, one ulp more
        # is not; the all-dims index, whose cells hold both points
        # exactly, agrees.
        eps = 0.25
        partner = np.nextafter(1.25, np.inf) if far else 1.25
        points = np.array([[0.5, 0.5, 1.0], [0.5, 0.5, partner],
                           [0.5, 0.75, 1.0]])
        queries = points[:2]
        reduced = GridIndex.build(points, eps, dims=(0, 1))
        got = _boundary_tables(reduced, queries)
        assert got == _boundary_tables(GridIndex.build(points, eps), queries)
        assert got == _bruteforce_tables(points, queries, eps)
        table = run_query(Query.range_query(points, queries, eps),
                          index=reduced).neighbor_table
        assert table.neighbors_of(0).tolist() == ([0, 2] if far
                                                  else [0, 1, 2])

    @pytest.mark.xfail(strict=True, reason=(
        "the grid bins by floor((x - gmin) / eps): a pair one ulp past ε "
        "whose difference rounds to ε can land two cells apart, while the "
        "distance calls it a hit (a defect of every grid, before and "
        "after the pre-filter)"))
    def test_all_dims_grid_bins_a_pair_one_ulp_past_eps(self):
        points = np.array([[0.125, 0.125, 0.125],
                           [0.125, 0.125, np.nextafter(-0.125, -np.inf)]])
        index = GridIndex.build(points, 0.25)
        assert _boundary_tables(index, points) \
            == _bruteforce_tables(points, points, 0.25)


class TestFarUnindexedCoordinates:
    """Coordinates far out on a dim the grid does not index: the
    pre-filter's square passes the float range, which drops the candidate
    as it should, and warns nothing."""

    EPS = 0.1

    def test_probe_is_silent_and_exact(self):
        index = GridIndex.build(uniform_dataset(200, 3, seed=5, low=0.0,
                                                high=1.0), self.EPS)
        index = index.project((0, 1))
        queries = np.array([[0.5, 0.5, 1e300], [0.5, 0.5, -1e300],
                            [0.2, 0.7, 0.4], [0.9, 0.1, 1e300]])
        sink = PairFragments(queries.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_probe(queries, index, self.EPS, sink, tier="numpy")
        with np.errstate(over="ignore"):
            expected = bruteforce_join(queries, index.points, self.EPS).result
        table = sink.to_neighbor_table()
        assert table.same_contents_as(NeighborTable.from_pairs(
            expected.keys, expected.values, queries.shape[0]))
        assert table.neighbors_of(2).shape[0] > 0

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_selfjoin_is_silent_and_exact(self, unicomp):
        points = uniform_dataset(200, 3, seed=5, low=0.0, high=1.0)
        points[:3, 2] = [1e300, -1e300, 1e300]
        points[2, :2] = points[0, :2]   # far apart, one cell
        index = GridIndex.build(points, self.EPS, dims=(0, 1))
        sink = PairFragments(index.num_points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_selfjoin(index, self.EPS, sink, unicomp=unicomp, tier="numpy")
        with np.errstate(over="ignore"):
            expected = bruteforce_selfjoin(points, self.EPS).result
        assert sink.to_neighbor_table().same_contents_as(
            NeighborTable.from_pairs(expected.keys, expected.values,
                                     index.num_points))


class TestChooser:
    """The chooser's picks on the benchmark inputs (no timing)."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_highdim_indexes_five_dims(self, seed):
        index = GridIndex.build(_highdim(seed), HIGHDIM["eps"])
        assert choose_index_dims(index) == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("make,eps,expected", [
        (lambda: uniform_dataset(100_000, 3, seed=1, low=0.0, high=1.0),
         0.025, (0, 1, 2)),
        (lambda: exponential_dataset(100_000, 3, scale=10, seed=1),
         0.5, (0, 1, 2)),
        (lambda: uniform_dataset(20_000, 3, seed=1, low=0.0, high=1.0),
         0.08, (0, 1, 2)),
        (lambda: uniform_dataset(20_000, 6, seed=1, low=0.0, high=1.0),
         0.1, (0, 1, 2, 3)),
    ], ids=["lowdim", "distributed", "service", "6d-20k"])
    def test_planned_index_is_the_built_one(self, make, eps, expected):
        # The planner derives its pick from the all-dims index; the result
        # must be the index a build over the picked dims gives.
        points = make()
        assert choose_index_dims(GridIndex.build(points, eps)) == expected
        planned = QueryPlanner().index_dataset(points, eps)
        assert planned.dims == expected
        built = GridIndex.build(points, eps, dims=expected)
        for field in dataclasses.fields(GridIndex):
            if not field.compare:
                continue
            got, want = getattr(planned, field.name), getattr(built, field.name)
            if field.name == "masks":
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
            elif isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want), field.name
            else:
                assert got == want, field.name
        # An all-dims pick is the all-dims index itself, not a copy.
        if expected == tuple(range(points.shape[1])):
            assert planned.project(expected) is planned

    def test_project_rejects_dims_outside_the_index(self):
        index = GridIndex.build(_highdim(), HIGHDIM["eps"], dims=(0, 1, 2))
        with pytest.raises(ValueError, match="dims"):
            index.project((2, 3))
        with pytest.raises(ValueError, match="dims"):
            index.project(())

    def test_one_dim_and_one_cell_keep_the_index(self):
        line = GridIndex.build(np.linspace(0, 1, 50)[:, None], 0.1)
        assert choose_index_dims(line) == (0,)
        same = GridIndex.build(np.zeros((10, 4)), 1.0)
        assert choose_index_dims(same) == (0, 1, 2, 3)

    def test_widest_dims_are_kept(self):
        # Dim 2 spans 4x the cells of the others, so it is never dropped.
        points = _highdim() * np.array([1, 1, 4, 1, 1, 1])
        dims = choose_index_dims(GridIndex.build(points, HIGHDIM["eps"]))
        assert 2 in dims and len(dims) < 6

    def test_session_and_planner_agree(self):
        points = _highdim()
        with EngineSession(points) as session:
            assert session.index_for(0.25).dims == (0, 1, 2, 3, 4)
        assert QueryPlanner("simulated").index_dataset(points, 0.25).dims \
            == tuple(range(6))


class TestUnindexedColumnCache:
    """What the pre-filter reads on an index, and who counts it: the one
    column-major copy of the points, whatever dims the grid indexes."""

    def test_reduced_index_keeps_and_counts_its_columns(self):
        from repro.core.batching import data_bytes

        index = QueryPlanner().index_dataset(_highdim(), HIGHDIM["eps"])
        assert index.unindexed_dims == (5,)
        before_cached = index.cached_nbytes()
        before_data = data_bytes(index)
        columns = index.cell_ordered_columns()
        assert columns.shape == (6, index.num_points)
        assert columns.flags.c_contiguous and not columns.flags.writeable
        assert np.array_equal(columns[5], index.points[index.A, 5])
        assert index.cell_ordered_columns() is columns
        # One copy of the points: the non-indexed dims are rows of it.
        assert columns.nbytes == index.points.nbytes
        assert index.cached_nbytes() == before_cached + columns.nbytes
        assert data_bytes(index) == before_data + columns.nbytes

    @pytest.mark.parametrize("n_dims, eps, grid_dims", [
        (3, 0.08, (0, 1, 2)), (6, HIGHDIM["eps"], (0, 1, 2, 3, 4))])
    def test_joins_keep_the_columns_and_the_adjacency_only(
            self, n_dims, eps, grid_dims):
        points = _highdim() if n_dims == 6 \
            else uniform_dataset(2000, 3, seed=1, low=0.0, high=1.0)
        index = QueryPlanner().index_dataset(points, eps)
        assert index.dims == grid_dims
        run_query(Query.self_join(points, eps), index=index)
        run_query(Query.range_query(points, points[:20], eps), index=index)
        assert set(index._derived) == {"cell_ordered_columns",
                                       ("cell_pairs", True)}


class TestKnnRebuildKeepsThePlansDims:
    def test_one_shot_rebuild_grids_the_planned_dims(self, monkeypatch):
        points = _highdim()
        # Far outside the data: the first radii find too few candidates,
        # so the executor doubles the radius and rebuilds the index.
        queries = np.full((3, 6), 3.0)
        query = Query.knn_candidates(points, 4, queries=queries)
        builds = []
        real_build = GridIndex.build.__func__

        def spy(cls, pts, eps, dims=None):
            index = real_build(cls, pts, eps, dims)
            builds.append(index)
            return index

        monkeypatch.setattr(GridIndex, "build", classmethod(spy))
        got = run_query(query)
        planned = got.plan.index
        assert planned.num_grid_dims < planned.num_dims
        rebuilt = [index for index in builds if index.eps > planned.eps]
        assert rebuilt and all(index.dims == planned.dims
                               for index in rebuilt)
        monkeypatch.undo()
        # The rows an all-dims plan (the rebuild before the fix) gives.
        reference = run_query(query, index=GridIndex.build(points,
                                                           planned.eps))
        assert got.neighbor_table.same_contents_as(reference.neighbor_table)


def _stream(result):
    keys, values = result.fragments.concatenated()
    digest = hashlib.sha256(keys.astype("<i8").tobytes()
                            + values.astype("<i8").tobytes()).hexdigest()
    stats = result.stats
    return digest, (stats.cells_checked, stats.nonempty_cells_visited,
                    stats.distance_calcs, stats.result_pairs)


@pytest.fixture(scope="module")
def parallel_backends():
    """``sharded(6)``, ``multiprocess(2)`` and ``distributed(2)`` on the
    NumPy tier (the numba tier sums distances in another order)."""
    from repro.distributed import DistributedBackend
    from repro.parallel import MultiprocessBackend, ShardedBackend

    backends = {"sharded": ShardedBackend(6, kernel="numpy"),
                "multiprocess": MultiprocessBackend(2, kernel="numpy"),
                "distributed": DistributedBackend(2, kernel="numpy")}
    yield backends
    backends["multiprocess"].shutdown()
    backends["distributed"].shutdown()


class TestParallelBackendsBuildTheParentsGrid:
    @pytest.mark.parametrize("name", ["sharded", "multiprocess",
                                      "distributed"])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_one_shot_stream_and_counters(self, parallel_backends, name,
                                          unicomp):
        points = _highdim()
        query = Query.self_join(points, HIGHDIM["eps"], unicomp=unicomp)
        reference = run_query(query, backend="vectorized(kernel=numpy)")
        assert reference.plan.index.dims == (0, 1, 2, 3, 4)
        got = run_query(query, backend=parallel_backends[name])
        assert got.plan.index.dims == reference.plan.index.dims
        assert _stream(got) == _stream(reference)

    @pytest.mark.parametrize("name", ["sharded", "multiprocess",
                                      "distributed"])
    def test_warm_session_stream_counters_and_probe(self, parallel_backends,
                                                    name):
        points = _highdim(seed=2)
        queries = np.random.default_rng(3).uniform(0, 1, (200, 6))
        with EngineSession(points, backend="vectorized(kernel=numpy)") as ref:
            expected = _stream(ref.self_join(HIGHDIM["eps"]))
            expected_probe = ref.range_query(queries, HIGHDIM["eps"])
        with EngineSession(points, backend=parallel_backends[name]) as session:
            cold = _stream(session.self_join(HIGHDIM["eps"]))
            warm = _stream(session.self_join(HIGHDIM["eps"]))
            probe = session.range_query(queries, HIGHDIM["eps"])
            assert session.stats.index_hits >= 2
            assert session.index_for(HIGHDIM["eps"]).dims == (0, 1, 2, 3, 4)
        assert cold == warm == expected
        assert probe.neighbor_table.same_contents_as(
            expected_probe.neighbor_table)
