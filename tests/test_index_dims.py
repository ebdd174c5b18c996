"""Grid indexes over fewer dimensions than the points.

:meth:`GridIndex.build` can grid any ``k`` of the ``n`` point dimensions;
:func:`repro.engine.planner.choose_index_dims` picks ``k`` wherever the
engine indexes a whole dataset.  Whatever the dims, every query must
return the table of the all-dims index, and every parallel backend must
build the parent's grid, so its stream and counters match ``vectorized``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.gridindex import GridIndex
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


class TestChooser:
    """The chooser's picks on the benchmark inputs (no timing)."""

    @pytest.mark.parametrize("points,eps", [
        (uniform_dataset(100_000, 3, seed=1, low=0.0, high=1.0), 0.025),
        (uniform_dataset(20_000, 3, seed=1, low=0.0, high=1.0), 0.08),
        (exponential_dataset(100_000, 3, scale=10, seed=1), 0.5),
    ], ids=["lowdim", "service", "distributed"])
    def test_three_dims_keep_every_dim(self, points, eps):
        index = GridIndex.build(points, eps)
        assert choose_index_dims(index) == (0, 1, 2)
        assert QueryPlanner().index_dataset(points, eps).dims == (0, 1, 2)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_highdim_indexes_five_dims(self, seed):
        index = GridIndex.build(_highdim(seed), HIGHDIM["eps"])
        assert choose_index_dims(index) == (0, 1, 2, 3, 4)

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
