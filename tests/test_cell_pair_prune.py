"""The self-join adjacency keeps only cell pairs whose point boxes lie within ε.

While an index's cell pairs are walked, each pair whose point bounding
boxes are farther than ε apart (beyond a rounding margin) is dropped
(:func:`repro.core.kernels._near_pairs`); the per-cell work of the walk
before the drop is kept, so the :class:`~repro.core.kernels.KernelStats`
counters still count Algorithm 1/2's lookups, cell pairs and candidates.
These tests put pairs exactly ε apart, and one ulp either side, along one
dim and along diagonals, on grids over every dim and over fewer, under
GLOBAL and UNICOMP, and check that the emitted stream and all four
counters equal the unpruned walk's, that the tables equal the brute-force
oracle's, and that no home pair is dropped.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import kernels as K
from repro.core import nativekernels as nk
from repro.core.gridindex import GridIndex
from repro.core.result import NeighborTable, PairFragments
from repro.data.synthetic import uniform_dataset
from repro.engine import Query, QueryPlanner, run_query

#: The emitter's routes: the NumPy tier and the numba tier's two pair
#: kernels (compiled where numba is installed, plain Python otherwise).
#: The compiled kernels sum a distance in their own order, so each route
#: is compared with its own unpruned run.
ROUTES = {"numpy": None, **nk.native_pair_kernels()}


def digest(sink: PairFragments) -> str:
    keys, values = sink.concatenated()
    return hashlib.sha256(keys.astype("<i8").tobytes()
                          + values.astype("<i8").tobytes()).hexdigest()


def fresh(index: GridIndex) -> GridIndex:
    return GridIndex.build(index.points, index.eps, dims=index.dims)


def unpruned_run(index, unicomp, native=None):
    """Stream, counters and sink of the plain walk: every walked cell pair
    expanded, nothing dropped or kept."""
    sink = PairFragments(index.num_points)
    side = K._index_side(index, native)
    counters = [0, 0, 0]
    for src, tgt, checked in K._walk_cell_pairs(
            index, index.cell_coords, unicomp):
        counters[0] += int(checked.sum())
        counters[1] += int(src.shape[0])
        counters[2] += K._emit_pairs(sink, side, src, side, tgt,
                                     index.eps * index.eps,
                                     K.DEFAULT_MAX_CANDIDATE_PAIRS,
                                     mirror=tgt != src if unicomp else None,
                                     native_kernel=native)
    return digest(sink), (*counters, sink.num_pairs), sink


@contextmanager
def pair_kernel(impl):
    """Run the operators with the pair kernel ``impl`` whatever tier they
    ask for; ``None`` changes nothing."""
    if impl is None:
        yield
        return
    with mock.patch.object(nk, "resolve_kernel_tier", lambda tier: "numba"), \
            mock.patch.object(nk, "native_pair_kernels",
                              lambda: {"dense": impl, "sparse": impl}):
        yield


def pruned_run(index, unicomp, native=None):
    """Stream and counters of the production self-join, which emits from
    the pruned cell pairs (kept on the index, or walked per call past the
    byte bound)."""
    sink = PairFragments(index.num_points)
    with pair_kernel(native):
        stats = K.run_selfjoin(index, index.eps, sink, unicomp=unicomp,
                               tier="numpy")
    return digest(sink), (stats.cells_checked, stats.nonempty_cells_visited,
                          stats.distance_calcs, stats.result_pairs)


def stream(result):
    """Stream digest and counters of an engine run."""
    keys, values = result.fragments.concatenated()
    stats = result.stats
    return (hashlib.sha256(keys.astype("<i8").tobytes()
                           + values.astype("<i8").tobytes()).hexdigest(),
            (stats.cells_checked, stats.nonempty_cells_visited,
             stats.distance_calcs, stats.result_pairs))


def pair_set(sink: PairFragments, n_points: int):
    table = NeighborTable.from_pairs(*sink.concatenated(), n_points)
    return {(i, int(j)) for i in range(n_points)
            for j in table.neighbors_of(i)}


def assert_matches_oracle(index, got):
    """The grid's pairs are the brute-force oracle's, except a pair the
    grid bins two cells apart in some indexed dim, which no walk visits
    (the grid defect pinned by test_index_dims.py's strict xfail)."""
    oracle = run_query(Query.self_join(index.points, index.eps),
                       backend="bruteforce").neighbor_table
    want = {(i, int(j)) for i in range(index.num_points)
            for j in oracle.neighbors_of(i)}
    assert got <= want
    coords = index.point_cell_coords
    for i, j in want - got:
        assert (np.abs(coords[i] - coords[j]) > 1).any(), (i, j)


def assert_home_pairs_kept(index, unicomp):
    adjacency = index.cached(("cell_pairs", unicomp),
                             lambda: pytest.fail("no adjacency was built"))
    for h in range(index.num_nonempty_cells):
        assert h in adjacency.targets[adjacency.starts[h]:adjacency.starts[h + 1]]


@st.composite
def boundary_cases(draw):
    """Base points, and for each a partner exactly ε away, or one ulp
    either side, along one dim or along a diagonal of several dims."""
    n_dims = draw(st.integers(2, 5))
    eps = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.1, 2.0))
    n_base = draw(st.integers(1, 25))
    base = draw(hnp.arrays(np.float64, (n_base, n_dims),
                           elements=st.floats(0.0, 4.0)))
    partners = base.copy()
    for i in range(n_base):
        along = draw(st.lists(st.integers(0, n_dims - 1), min_size=1,
                              max_size=n_dims, unique=True))
        signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in along])
        # Equal steps along the chosen dims, so the partner lies ε away
        # (to rounding) on the diagonal; one coordinate then moves by an
        # ulp, or not.
        partners[i, along] = base[i, along] + signs * (eps / np.sqrt(len(along)))
        ulps = draw(st.sampled_from([-1, 0, 1]))
        if ulps:
            j = along[0]
            partners[i, j] = np.nextafter(partners[i, j], ulps * np.inf)
    points = np.concatenate([base, partners])
    grid_dims = None if draw(st.booleans()) else draw(
        st.sets(st.integers(0, n_dims - 1), min_size=1, max_size=n_dims - 1))
    return points, eps, grid_dims


class TestPruneIsExact:
    @settings(max_examples=80, deadline=None)
    @given(case=boundary_cases(), unicomp=st.booleans())
    def test_streams_counters_and_tables(self, case, unicomp):
        points, eps, grid_dims = case
        index = GridIndex.build(points, eps, dims=grid_dims)
        for route, native in ROUTES.items():
            want = unpruned_run(fresh(index), unicomp, native)[:2]
            kept = fresh(index)
            assert pruned_run(kept, unicomp, native) == want, route
            assert_home_pairs_kept(kept, unicomp)
        want_digest, want_counters, sink = unpruned_run(index, unicomp)
        with pytest.MonkeyPatch.context() as patch:
            # Past the byte bound every call walks and prunes its cells.
            patch.setattr(K, "_ADJACENCY_BYTES_PER_POINT_BYTE", 0)
            uncached = fresh(index)
            assert pruned_run(uncached, unicomp) \
                == (want_digest, want_counters)
            assert uncached.cached(("cell_pairs", unicomp),
                                   lambda: "unused") is None
        assert_matches_oracle(index, pair_set(sink, index.num_points))


class TestPruneDrops:
    """Deterministic pairs on both sides of the box bound."""

    @staticmethod
    def kept_pairs(points, eps, unicomp=True, dims=None):
        index = GridIndex.build(points, eps, dims=dims)
        return index, K._adjacency(index, unicomp)

    @pytest.mark.parametrize("far", [False, True])
    def test_exactly_eps_along_one_dim_is_kept(self, far):
        # Two points in neighbouring cells, exactly ε apart: a hit, and
        # the boxes' gap is exactly ε, so the pair stays.  One ulp more is
        # no hit, and the margin still keeps the pair.
        eps = 0.25
        partner = np.nextafter(0.375, np.inf) if far else 0.375
        points = np.array([[0.125, 0.1], [partner, 0.1]])
        index, adjacency = self.kept_pairs(points, eps, unicomp=False)
        assert adjacency.targets.shape[0] == 4
        table = run_query(Query.self_join(points, eps),
                          index=index).neighbor_table
        assert table.neighbors_of(0).tolist() == ([0] if far else [0, 1])

    def test_diagonal_neighbours_apart_are_dropped(self):
        # Diagonal neighbour cells whose boxes are 0.2 apart in each dim:
        # every dim's gap is under ε, their sum of squares is not.
        eps = 0.25
        points = np.array([[0.0, 0.0], [0.2, 0.2], [0.4, 0.4]])
        index, adjacency = self.kept_pairs(points, eps, unicomp=False)
        assert index.cell_counts.tolist() == [2, 1]
        assert adjacency.visited.sum() == 4
        assert adjacency.targets.shape[0] == 2
        assert_home_pairs_kept(index, False)
        digest_, counters, _ = unpruned_run(fresh(index), False)
        assert pruned_run(index, False) == (digest_, counters)

    def test_a_non_indexed_dim_drops_a_pair(self):
        # A grid over dim 0 only: two neighbouring cells, of two points
        # and one, 0.1 apart on dim 0 but 2ε apart on dim 1.
        eps = 0.25
        points = np.array([[0.0, 0.0], [0.2, 0.0], [0.3, 0.5]])
        index, adjacency = self.kept_pairs(points, eps, dims=(0,))
        assert index.cell_counts.tolist() == [2, 1]
        assert adjacency.visited.sum() == 3
        assert adjacency.targets.shape[0] == 2
        # Homes 2 * 2 and 1 * 1, and the dropped pair's 2 * 1, still count.
        assert adjacency.costs.sum() == 7

    def test_home_pairs_of_far_spread_cells_are_kept(self):
        # A cell's own box is its home pair's: gap 0 in every dim.
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 1.0, (400, 3))
        for unicomp in (False, True):
            index, adjacency = self.kept_pairs(points, 0.1, unicomp)
            assert adjacency.targets.shape[0] < adjacency.visited.sum()
            assert_home_pairs_kept(index, unicomp)

    def test_nan_gaps_keep_the_pair(self):
        boxes = (np.array([[np.nan, 0.0], [1.0, -2.0]]),
                 np.array([[0.0, np.nan], [-2.0, 1.0]]))
        kept = K._near_pairs(boxes, np.array([0, 1]), np.array([1, 0]), 0.01)
        assert kept.tolist() == [0, 1]

    def test_margin_covers_every_summation_order(self):
        # m = 2 (2n + 2) u is above the 2 γ_n + u a sum of n rounded
        # squares needs on each side, at every n the engine supports.
        u = np.finfo(np.float64).eps / 2
        for n in range(1, 33):
            gamma = n * u / (1 - n * u)
            m = K._box_limit(1.0, n) - 1.0
            assert m >= 2 * gamma + u


def pruned_kept_candidates(index):
    """Candidates of the index's kept UNICOMP pairs (fewer than walked)."""
    adjacency = K._adjacency(index, True)
    counts = index.cell_counts
    src = np.arange(index.num_nonempty_cells).repeat(np.diff(adjacency.starts))
    return int((counts.take(src) * counts.take(adjacency.targets)).sum())


@pytest.fixture(scope="module")
def parallel_backends():
    """``sharded(4)``, ``multiprocess(2)`` and ``distributed(2)`` on the
    NumPy tier; each builds and prunes its own index per process."""
    from repro.distributed import DistributedBackend
    from repro.parallel import MultiprocessBackend, ShardedBackend

    backends = {"sharded": ShardedBackend(4, kernel="numpy"),
                "multiprocess": MultiprocessBackend(2, kernel="numpy"),
                "distributed": DistributedBackend(2, kernel="numpy")}
    yield backends
    backends["multiprocess"].shutdown()
    backends["distributed"].shutdown()


class TestParallelBackendsEmitTheKeptPairs:
    """Shards cost and emit from their index's pruned adjacency: the
    stream and counters are the unpruned walk's on the planned index."""

    @pytest.mark.parametrize("name", ["sharded", "multiprocess",
                                      "distributed"])
    @pytest.mark.parametrize("n_dims,eps", [(3, 0.08), (6, 0.3)])
    def test_stream_and_counters(self, parallel_backends, name, n_dims, eps):
        points = uniform_dataset(1500, n_dims, seed=4, low=0.0, high=1.0)
        index = QueryPlanner().index_dataset(points, eps)
        want = unpruned_run(index, True)[:2]
        assert want[1][2] > pruned_kept_candidates(index)
        got = run_query(Query.self_join(points, eps),
                        backend=parallel_backends[name])
        assert got.plan.index.dims == index.dims
        assert stream(got) == want

