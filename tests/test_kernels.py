"""Unit tests for the grid join operators (GLOBAL and UNICOMP self-joins,
the probe) and the per-cell oracle they are checked against."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.cellwise import probe_cellwise, selfjoin_cellwise
from repro.baselines.kdtree_ref import kdtree_selfjoin
from repro.core.gridindex import GridIndex
from repro.core import kernels as K
from repro.core import nativekernels as nk
from repro.core.result import NeighborTable, PairFragments
from repro.core.unicomp import unicomp_evaluates
from repro.data.synthetic import exponential_dataset, uniform_dataset
from repro.engine.backends import VectorizedBackend
from repro.utils.cancellation import (
    CancellationToken,
    OperationCancelled,
    cancel_scope,
)


def selfjoin(index, eps=None, **options):
    """The NumPy-tier self-join operator into a fresh sink: its result and
    work counters."""
    sink = PairFragments(index.num_points)
    stats = K.run_selfjoin(index, index.eps if eps is None else eps, sink,
                           tier="numpy", **options)
    return sink.to_result_set(), stats


def joined(operator, index):
    """The result of a self-join ``operator(index, sink)``."""
    sink = PairFragments(index.num_points)
    operator(index, sink)
    return sink.to_result_set()


ALL_KERNELS = [
    ("cellwise-global", selfjoin_cellwise),
    ("cellwise-unicomp",
     lambda index, sink: selfjoin_cellwise(index, sink, unicomp=True)),
    ("vectorized-global",
     lambda index, sink: K.run_selfjoin(index, index.eps, sink, tier="numpy")),
    ("vectorized-unicomp",
     lambda index, sink: K.run_selfjoin(index, index.eps, sink, unicomp=True,
                                        tier="numpy")),
]


@contextmanager
def pair_kernel(impl):
    """Run the operators with the pair kernel ``impl`` (a kernel body,
    uncompiled) whatever tier they ask for; ``None`` changes nothing."""
    if impl is None:
        yield
        return
    with mock.patch.object(nk, "resolve_kernel_tier", lambda tier: "numba"), \
            mock.patch.object(nk, "native_pair_kernels",
                              lambda: {"dense": impl, "sparse": impl}):
        yield


def greedy_chunk_boundaries(pair_counts, max_candidate_pairs):
    """Reference for ``_chunk_boundaries``: the one-pass greedy split loop."""
    boundaries = []
    lo = 0
    running = 0
    n = int(pair_counts.shape[0])
    for i in range(n):
        count = int(pair_counts[i])
        if running and running + count > max_candidate_pairs:
            boundaries.append((lo, i))
            lo = i
            running = 0
        running += count
    boundaries.append((lo, n))
    return boundaries


class TestKernelCorrectness:
    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_matches_kdtree_2d(self, name, kernel, uniform_2d, eps_2d, reference_pairs_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        result = joined(kernel, index)
        assert np.array_equal(result.canonical_pairs(), reference_pairs_2d), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_matches_kdtree_3d(self, name, kernel, uniform_3d, eps_3d, reference_pairs_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        result = joined(kernel, index)
        assert np.array_equal(result.canonical_pairs(), reference_pairs_3d), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_matches_kdtree_5d(self, name, kernel, uniform_5d):
        eps = 1.2
        index = GridIndex.build(uniform_5d, eps)
        expected = kdtree_selfjoin(uniform_5d, eps).canonical_pairs()
        result = joined(kernel, index)
        assert np.array_equal(result.canonical_pairs(), expected), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_clustered_data(self, name, kernel, clustered_2d):
        eps = 1.0
        index = GridIndex.build(clustered_2d, eps)
        expected = kdtree_selfjoin(clustered_2d, eps).canonical_pairs()
        result = joined(kernel, index)
        assert np.array_equal(result.canonical_pairs(), expected), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_no_duplicate_emissions(self, name, kernel, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        result = joined(kernel, index)
        # The raw pair list must already be duplicate-free (each ordered pair once).
        assert result.num_pairs == result.canonical_pairs().shape[0], name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_result_symmetric_and_contains_self(self, name, kernel, uniform_3d, eps_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        result = joined(kernel, index)
        assert result.is_symmetric()
        assert result.contains_all_self_pairs()

    def test_eps_smaller_than_cell(self, uniform_2d):
        # The search distance may be smaller than the grid cell length.
        index = GridIndex.build(uniform_2d, 1.0)
        eps = 0.4
        expected = kdtree_selfjoin(uniform_2d, eps).canonical_pairs()
        result, _ = selfjoin(index, eps)
        assert np.array_equal(result.canonical_pairs(), expected)

    def test_single_point(self):
        index = GridIndex.build(np.array([[1.0, 1.0]]), 0.5)
        result, _ = selfjoin(index, unicomp=True)
        assert result.keys.tolist() == [0]
        assert result.values.tolist() == [0]

    def test_all_points_identical(self):
        pts = np.tile(np.array([[3.0, 3.0, 3.0]]), (20, 1))
        index = GridIndex.build(pts, 1.0)
        result, _ = selfjoin(index, unicomp=True)
        assert result.num_pairs == 20 * 20

    def test_no_pairs_when_far_apart(self):
        pts = np.array([[0.0, 0.0], [100.0, 100.0], [200.0, 0.0]])
        index = GridIndex.build(pts, 1.0)
        result, _ = selfjoin(index)
        # Only the self-pairs remain.
        assert result.num_pairs == 3
        assert result.contains_all_self_pairs()


class TestUnicompWorkReduction:
    def test_unicomp_halves_cells_and_distances(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        full, full_stats = selfjoin(index)
        uni, uni_stats = selfjoin(index, unicomp=True)
        assert uni_stats.cells_checked < 0.75 * full_stats.cells_checked
        assert uni_stats.distance_calcs < 0.75 * full_stats.distance_calcs
        # Same results despite the reduced work.
        assert uni.same_pairs_as(full)

    def test_unicomp_reduction_grows_with_dimension(self, uniform_5d):
        index = GridIndex.build(uniform_5d, 1.2)
        _, full_stats = selfjoin(index)
        _, uni_stats = selfjoin(index, unicomp=True)
        ratio = uni_stats.distance_calcs / full_stats.distance_calcs
        assert 0.35 < ratio < 0.75

    def test_stats_result_pairs_match(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        result, stats = selfjoin(index, unicomp=True)
        assert stats.result_pairs == result.num_pairs


class TestSourceCellSubsets:
    def test_union_of_cell_batches_equals_full_result(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        full, _ = selfjoin(index)
        n = index.num_nonempty_cells
        thirds = np.array_split(np.arange(n), 3)
        parts = [selfjoin(index, cells=part)[0] for part in thirds]
        from repro.core.result import ResultSet
        merged = ResultSet.merge(parts)
        assert merged.same_pairs_as(full)

    def test_unicomp_cell_batches_union(self, uniform_3d, eps_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        full, _ = selfjoin(index, unicomp=True)
        n = index.num_nonempty_cells
        parts = [selfjoin(index, cells=part, unicomp=True)[0]
                 for part in np.array_split(np.arange(n), 4)]
        from repro.core.result import ResultSet
        merged = ResultSet.merge(parts)
        assert merged.same_pairs_as(full)

    def test_empty_cell_subset(self, index_2d):
        result, _ = selfjoin(index_2d, cells=np.empty(0, dtype=np.int64))
        assert result.num_pairs == 0


class TestChunking:
    def test_small_chunk_limit_gives_same_result(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        big, big_stats = selfjoin(index, unicomp=True,
                                  max_candidate_pairs=10 ** 9)
        small, small_stats = selfjoin(index, unicomp=True, max_candidate_pairs=64)
        assert big.same_pairs_as(small)
        assert big_stats.distance_calcs == small_stats.distance_calcs

    def test_chunk_boundaries_cover_everything(self):
        counts = np.array([5, 10, 3, 50, 2, 2])
        bounds = K._chunk_boundaries(counts, max_candidate_pairs=12)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == counts.shape[0]
        covered = []
        for lo, hi in bounds:
            covered.extend(range(lo, hi))
        assert covered == list(range(counts.shape[0]))

    def test_chunk_single_giant_pair(self):
        counts = np.array([1000])
        bounds = K._chunk_boundaries(counts, max_candidate_pairs=10)
        assert bounds == [(0, 1)]

    @given(counts=st.lists(st.one_of(st.just(0), st.integers(1, 20),
                                     st.integers(100, 10 ** 6)),
                           max_size=60),
           max_candidate_pairs=st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    @example(counts=[0, 0, 50, 0, 3, 4, 0, 60, 0, 0], max_candidate_pairs=10)
    def test_chunk_boundaries_equal_greedy_loop(self, counts,
                                                max_candidate_pairs):
        counts = np.asarray(counts, dtype=np.int64)
        assert K._chunk_boundaries(counts, max_candidate_pairs) \
            == greedy_chunk_boundaries(counts, max_candidate_pairs)


class TestKernelStats:
    def test_merge_accumulates(self):
        a = K.KernelStats(cells_checked=2, nonempty_cells_visited=1,
                          distance_calcs=10, result_pairs=4)
        b = K.KernelStats(cells_checked=3, nonempty_cells_visited=2,
                          distance_calcs=5, result_pairs=1)
        a.merge(b)
        assert a.cells_checked == 5
        assert a.nonempty_cells_visited == 3
        assert a.distance_calcs == 15
        assert a.result_pairs == 5


def grid_point_sets():
    """(n_points, n_dims) arrays over a few unit cells, dims 2-6."""
    return st.integers(2, 6).flatmap(
        lambda dims: hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 40), st.just(dims)),
            elements=st.floats(0.0, 4.0, allow_nan=False, width=64)))


def walked_pairs(index, unicomp):
    """The walk's (source, target) pairs over all cells, in order."""
    return [(int(s), int(t))
            for src, tgt, _ in K._walk_cell_pairs(
                index, index.cell_coords, unicomp)
            for s, t in zip(src, tgt)]


def adjacent_pairs(index):
    """Brute force: all non-empty cell pairs at Chebyshev distance <= 1."""
    coords = index.cell_coords
    return {(a, b) for a in range(coords.shape[0]) for b in range(coords.shape[0])
            if np.abs(coords[a] - coords[b]).max() <= 1}


def every_cell_table(index, n_rows):
    """A dense cell table whatever the grid's size (the walker's own
    builder declines large grids)."""
    table = np.full(index.total_cells, -1, dtype=np.int32)
    table[index.B] = np.arange(index.num_nonempty_cells, dtype=np.int32)
    return table


def walk_groups(index, coords, unicomp, cell_table):
    """The walker's groups, as lists, with ``K._dense_cell_table`` replaced
    by ``cell_table`` (``None`` leaves the walker's own choice)."""
    with (nullcontext() if cell_table is None
          else mock.patch.object(K, "_dense_cell_table", cell_table)):
        return [(src.tolist(), tgt.tolist(), checked.tolist())
                for src, tgt, checked in K._walk_cell_pairs(
                    index, coords, unicomp)]


class TestCellPairWalker:
    @given(points=grid_point_sets())
    @settings(max_examples=60, deadline=None)
    def test_global_walk_is_every_adjacent_pair_once(self, points):
        index = GridIndex.build(points, 1.0)
        walked = walked_pairs(index, unicomp=False)
        assert len(walked) == len(set(walked))
        assert set(walked) == adjacent_pairs(index)

    @given(points=grid_point_sets())
    @settings(max_examples=60, deadline=None)
    def test_unicomp_walk_is_algorithm_2(self, points):
        index = GridIndex.build(points, 1.0)
        coords = index.cell_coords
        walked = walked_pairs(index, unicomp=True)
        pairs = set(walked)
        assert len(walked) == len(pairs)
        assert pairs == {(a, b) for a, b in adjacent_pairs(index)
                         if unicomp_evaluates(coords[a], coords[b] - coords[a])}
        # Each unordered non-home pair is walked from exactly one side.
        for a, b in adjacent_pairs(index):
            if a != b:
                assert ((a, b) in pairs) != ((b, a) in pairs)

    @given(points=grid_point_sets(), unicomp=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_walk_is_source_cell_major(self, points, unicomp):
        index = GridIndex.build(points, 1.0)
        sources = [s for s, _ in walked_pairs(index, unicomp)]
        assert sources == sorted(sources)

    @pytest.mark.parametrize("native", [None, "dense", "sparse"])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_split_halves_emit_the_whole_stream(self, unicomp, native):
        """A shard split at a B-order boundary emits, half after half, the
        whole shard's pair stream (what ordered shard merging relies on)."""
        index = GridIndex.build(uniform_dataset(300, 4, seed=3, low=0, high=1), 0.3)
        kernel = {None: None, "dense": nk._pairs_dense_impl,
                  "sparse": nk._pairs_sparse_impl}[native]
        cells = np.arange(index.num_nonempty_cells)

        def stream(part, max_candidate_pairs=K.DEFAULT_MAX_CANDIDATE_PAIRS):
            sink = PairFragments(index.num_points)
            with pair_kernel(kernel):
                K.run_selfjoin(index, index.eps, sink, cells=part,
                               unicomp=unicomp, tier="numpy",
                               max_candidate_pairs=max_candidate_pairs)
            keys, values = sink.concatenated()
            return keys.tolist(), values.tolist()

        whole = stream(cells)
        for mid in (1, cells.shape[0] // 3, cells.shape[0] - 1):
            first, second = stream(cells[:mid], 50), stream(cells[mid:], 200)
            assert (first[0] + second[0], first[1] + second[1]) == whole

    @pytest.mark.parametrize("walk_rows", [1, 10 ** 9])
    def test_row_bound_changes_nothing(self, monkeypatch, walk_rows):
        points = uniform_dataset(500, 6, seed=1, low=0, high=1)
        queries = np.random.default_rng(7).uniform(0, 1, (300, 6))
        index = GridIndex.build(points, 0.25)
        reference = run_pinned(index, queries)
        monkeypatch.setattr(K, "_WALK_ROWS", walk_rows)
        # A fresh index: the first one keeps its walked cell pairs, and a
        # self-join on it would read them back instead of walking.
        assert run_pinned(GridIndex.build(points, 0.25), queries) == reference

    @given(dims=st.integers(2, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_and_search_lookups_walk_alike(self, dims, data):
        """The dense cell table and the binary search of ``B`` resolve the
        same cell pairs, group by group, for any source coordinates."""
        points = data.draw(hnp.arrays(
            np.float64, st.tuples(st.integers(1, 60), st.just(dims)),
            elements=st.floats(0.0, 4.0, allow_nan=False, width=64)))
        grid_dims = None if data.draw(st.booleans()) else data.draw(
            st.sets(st.integers(0, dims - 1), min_size=1, max_size=dims))
        index = GridIndex.build(points, 0.7, dims=grid_dims)
        unicomp = data.draw(st.booleans())
        k = index.num_grid_dims
        if data.draw(st.booleans()):
            coords = index.cell_coords
        else:
            # Arbitrary cells in and around the grid, with its two corners.
            drawn = data.draw(hnp.arrays(
                np.int64, st.tuples(st.integers(0, 30), st.just(k)),
                elements=st.integers(-2, int(index.num_cells.max()) + 1)))
            coords = np.concatenate([drawn, np.zeros((1, k), np.int64),
                                     index.num_cells[None, :] - 1])
        searched = walk_groups(index, coords, unicomp, lambda *_: None)
        assert walk_groups(index, coords, unicomp, every_cell_table) == searched
        assert walk_groups(index, coords, unicomp, None) == searched

    def test_table_is_taken_only_for_small_grids(self):
        lowdim = GridIndex.build(uniform_dataset(5000, 3, seed=1, low=0, high=1),
                                 0.07)
        whole = lowdim.num_nonempty_cells * 27
        table = K._dense_cell_table(lowdim, whole)
        assert table is not None and table.dtype == np.int32
        assert table.shape == (lowdim.total_cells,)
        assert table[lowdim.B].tolist() == list(range(lowdim.num_nonempty_cells))
        assert np.count_nonzero(table >= 0) == lowdim.num_nonempty_cells
        # A single-point probe broadcasts 27 rows: fewer than the grid's cells.
        assert K._dense_cell_table(lowdim, 27) is None
        # A skewed grid of many more cells than the points' bytes allow.
        sparse = GridIndex.build(exponential_dataset(2000, 3, seed=1), 0.5)
        assert sparse.total_cells * 4 > sparse.points.nbytes
        assert K._dense_cell_table(sparse, sparse.total_cells) is None

    @pytest.mark.parametrize("k", range(1, 7))
    def test_parity_table_is_the_per_cell_mask(self, k):
        """Row ``c`` of the per-parity table is the offset mask a source
        cell of parity class ``c`` computed for itself."""
        _, top = K._neighbor_offsets(k)
        selected = K._parity_offsets(k)
        assert selected.shape == (2 ** k, 3 ** k)
        for c in range(2 ** k):
            coords = (c >> np.arange(k)) & 1
            evaluates = np.ones(k + 1, dtype=bool)
            evaluates[:-1] = coords % 2 == 1
            assert np.array_equal(selected[c], evaluates.take(top))


def run_pinned(index, queries):
    """Counters, stream digest and CSR table of GLOBAL, UNICOMP and a probe.

    NumPy tier.  The digest is a sha256 over the sink's concatenated keys
    then values (little-endian ``int64``): the emitted stream's order, which
    ordered shard merging depends on and the finalized table hides.
    """
    backend = VectorizedBackend("numpy")
    runs = {}
    for name in ("global", "unicomp", "probe"):
        rows = queries.shape[0] if name == "probe" else index.num_points
        sink = PairFragments(rows)
        if name == "probe":
            stats = backend.run_probe(queries, index, index.eps, sink)
        else:
            stats = backend.run_selfjoin(index, index.eps, None, sink,
                                         unicomp=name == "unicomp")
        keys, values = sink.concatenated()
        digest = hashlib.sha256(keys.astype("<i8").tobytes()
                                + values.astype("<i8").tobytes()).hexdigest()
        table = NeighborTable.from_pairs(keys, values, rows)
        runs[name] = ((stats.cells_checked, stats.nonempty_cells_visited,
                       stats.distance_calcs, stats.result_pairs), digest,
                      table.offsets.tobytes(), table.neighbors.tobytes())
    return runs


#: sha256 of each pinned run's emitted stream (see :func:`run_pinned`).
PINNED_STREAMS = {
    (500, 6): {
        "global": "c10906ea17339a962cce6599264dbc1e095f09e4c52361be9f4aec125a5516d6",
        "unicomp": "f71909bfb9909a06b44123dcfcb9698185c4b74010a243ce42b2efb47e0b61df",
        "probe": "fd2bd776c9d54c883c610505a5719a232e4dad7567ed0d148ffbc068a55235c2"},
    (2000, 3): {
        "global": "ec5981a9d97b80f82aeaeca5f845c1a9b2e04802a90a06e634e1abf11783a9cf",
        "unicomp": "152176fa8388d6d11c799f045ea65627345a7dcc88f3ffe1f79f03d05fc68e34",
        "probe": "63a622ac4dd187dcdd7d3c17571024ffc0ea50bcb3a4a86f1aae51a833a8a722"},
}


class TestPinnedCounters:
    """The four work counters and the emitted stream on fixed inputs: the
    walk and the emitter must not change them."""

    @pytest.mark.parametrize("n,dims,eps,expected", [
        (500, 6, 0.25, {"global": (113300, 13501, 15304, 704),
                        "unicomp": (57926, 6986, 7932, 704),
                        "probe": (73051, 8241, 8885, 127)}),
        (2000, 3, 0.05, {"global": (42830, 10648, 14102, 4058),
                         "unicomp": (22527, 6203, 8317, 4058),
                         "probe": (7326, 1589, 1825, 286)}),
    ])
    def test_counters(self, n, dims, eps, expected):
        index = GridIndex.build(uniform_dataset(n, dims, seed=1, low=0, high=1), eps)
        queries = np.random.default_rng(7).uniform(0, 1, (300, dims))
        runs = run_pinned(index, queries)
        assert {name: run[0] for name, run in runs.items()} == expected
        assert {name: run[1] for name, run in runs.items()} == \
            PINNED_STREAMS[(n, dims)]
        # UNICOMP emits the GLOBAL table exactly.
        assert runs["unicomp"][2:] == runs["global"][2:]


class TestPinnedChooserIndex:
    """The same four counters and stream on the index the planner builds
    for 6-D 2,000 points at ε=0.25, which grids only dims 0-4: fewer cells
    checked, more distance calcs, the same tables as the all-dims index."""

    def test_counters(self):
        from repro.engine.planner import QueryPlanner

        points = uniform_dataset(2000, 6, seed=1, low=0, high=1)
        index = QueryPlanner().index_dataset(points, 0.25)
        assert index.dims == (0, 1, 2, 3, 4)
        queries = np.random.default_rng(7).uniform(0, 1, (300, 6))
        runs = run_pinned(index, queries)
        assert {name: run[0] for name, run in runs.items()} == {
            "global": (85357, 72981, 383476, 5198),
            "unicomp": (44084, 36926, 194750, 5198),
            "probe": (26206, 22407, 58073, 488)}
        assert {name: run[1] for name, run in runs.items()} == {
            "global": "705144e4fddf4c6ce4e66c87a26af4b8703f2e0b43105e9aa1f2e63bd47d1528",
            "unicomp": "dafdf400b3e994a0c0a7b0061afcf239d64e5ffe79dc5d4d28febaeff4fb545f",
            "probe": "2f0db01fb166b8ccf068637cad2f4e8124f0fefbce29ac2287c72fc9b3f12002"}
        full = run_pinned(GridIndex.build(points, 0.25), queries)
        assert {name: run[2:] for name, run in runs.items()} == \
            {name: run[2:] for name, run in full.items()}


class TestCellwiseOracle:
    """The per-cell oracle counts Algorithm 1/2's work as the production
    kernels do and finds the same tables, on all-dims and reduced grids."""

    @pytest.mark.parametrize("n,dims,eps,grid_dims", [
        (300, 2, 0.05, None), (400, 3, 0.1, None),
        (300, 5, 0.3, None), (300, 5, 0.3, (0, 1, 2))])
    def test_counters_and_tables_match_the_production_kernels(
            self, n, dims, eps, grid_dims):
        points = uniform_dataset(n, dims, seed=2, low=0, high=1)
        index = GridIndex.build(points, eps, dims=grid_dims)
        queries = np.random.default_rng(3).uniform(-0.1, 1.1, (120, dims))
        runs = run_pinned(index, queries)
        sinks = {"global": PairFragments(index.num_points),
                 "unicomp": PairFragments(index.num_points),
                 "probe": PairFragments(queries.shape[0])}
        oracle = {"global": selfjoin_cellwise(index, sinks["global"]),
                  "unicomp": selfjoin_cellwise(index, sinks["unicomp"],
                                               unicomp=True),
                  "probe": probe_cellwise(queries, index, sinks["probe"])}
        for name, stats in oracle.items():
            result = sinks[name].to_result_set()
            table = NeighborTable.from_pairs(result.keys, result.values,
                                             result.num_points)
            assert ((stats.cells_checked, stats.nonempty_cells_visited,
                     stats.distance_calcs, stats.result_pairs),
                    table.offsets.tobytes(), table.neighbors.tobytes()) == \
                (runs[name][0], *runs[name][2:]), name


class TestProbeIsTheSelfJoin:
    """The self-join is the join of a point set with itself (Section II):
    probing the indexed points against their own index gives the GLOBAL
    self-join's CSR table and its four work counters, on any kernel tier."""

    @pytest.mark.parametrize("grid_dims", [None, (0, 2, 3)],
                             ids=["all-dims", "reduced-dims"])
    def test_probe_of_the_indexed_points(self, grid_dims):
        points = uniform_dataset(800, 4, seed=6, low=0, high=1)
        index = GridIndex.build(points, 0.15)
        if grid_dims is not None:
            index = index.project(grid_dims)
            assert index.num_grid_dims < index.num_dims
        runs = {}
        for name in ("probe", "selfjoin"):
            sink = PairFragments(index.num_points)
            if name == "probe":
                stats = K.run_probe(points, index, index.eps, sink)
            else:
                stats = K.run_selfjoin(index, index.eps, sink)
            table = sink.to_neighbor_table()
            runs[name] = ((stats.cells_checked, stats.nonempty_cells_visited,
                           stats.distance_calcs, stats.result_pairs),
                          table.offsets.tobytes(), table.neighbors.tobytes())
        assert runs["probe"][0][3] > index.num_points
        assert runs["probe"] == runs["selfjoin"]


class TestCancellation:
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_expired_deadline_stops_selfjoin_before_emitting(self, unicomp):
        index = GridIndex.build(uniform_dataset(500, 6, seed=1, low=0, high=1), 0.25)
        sink = PairFragments(index.num_points)
        with pytest.raises(OperationCancelled) as err:
            with cancel_scope(CancellationToken.with_timeout(0)):
                VectorizedBackend().run_selfjoin(index, index.eps, None, sink,
                                                 unicomp=unicomp)
        assert err.value.is_deadline
        assert sink.num_pairs == 0
