"""Kernel-tier tests: native-kernel parity, fallback, and adaptive selection.

The native kernel bodies of :mod:`repro.core.nativekernels` are written in
the Numba nopython subset but remain callable uncompiled, so their *logic*
is property-tested against the NumPy tier on every host; the
``@pytest.mark.skipif``-gated classes additionally run the compiled tier
end-to-end (the vectorized and parallel backends, the streamed store
path) where numba is installed.  A forced-fallback test monkeypatches
numba away and asserts the ``numpy`` tier is selected with a clear
availability message.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.cellwise import selfjoin_cellwise
from repro.core import nativekernels as nk
from repro.core.gridindex import GridIndex
from repro.core.kernels import KernelStats, run_probe, run_selfjoin
from repro.core.result import NeighborTable, PairFragments
from repro.core.selfjoin import GPUSelfJoin, SelfJoinConfig
from repro.data.synthetic import uniform_dataset
from repro.engine import EngineSession, Query, run_query
from repro.engine.backends import _parse_backend_name, get_backend
from repro.experiments.runner import engine_backend_of

HAS_NUMBA = nk.numba_availability() is None

coordinate = st.floats(min_value=-20.0, max_value=20.0,
                       allow_nan=False, allow_infinity=False, width=64)


def point_sets(min_points=1, max_points=40, min_dims=2, max_dims=6):
    """Strategy producing (n_points, n_dims) float64 arrays."""
    return st.integers(min_dims, max_dims).flatmap(
        lambda dims: hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(min_points, max_points), st.just(dims)),
            elements=coordinate,
        )
    )


def _assert_bit_identical(num_rows, got, ref) -> None:
    """Same pairs AND same CSR arrays after the canonical sort."""
    gk, gv = got
    rk, rv = ref
    t_got = NeighborTable.from_pairs(np.asarray(gk, dtype=np.int64),
                                     np.asarray(gv, dtype=np.int64), num_rows)
    t_ref = NeighborTable.from_pairs(np.asarray(rk, dtype=np.int64),
                                     np.asarray(rv, dtype=np.int64), num_rows)
    np.testing.assert_array_equal(t_got.offsets, t_ref.offsets)
    np.testing.assert_array_equal(t_got.neighbors, t_ref.neighbors)


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


def selfjoin_pairs(index, eps, impl=None, **options):
    """Keys, values and stats of a NumPy-tier self-join, or of one with the
    pair kernel ``impl``."""
    sink = PairFragments(index.num_points)
    with pair_kernel(impl):
        stats = run_selfjoin(index, eps, sink, tier="numpy", **options)
    return sink.concatenated(), stats


def mixed_density_points(seed: int = 3) -> np.ndarray:
    """A tight dense cluster plus a sparse uniform field (2-D).

    With ``eps = 1`` the cluster's cells hold dozens of points (dense
    regime) while the field's cells hold about one (sparse regime), so a
    sharded numba-tier run over the whole dataset must route shards to
    both compiled kernels.
    """
    rng = np.random.default_rng(seed)
    cluster = rng.normal(50.0, 0.6, size=(600, 2))
    field = rng.uniform(0.0, 100.0, size=(300, 2))
    return np.concatenate([cluster, field])


# --------------------------------------------------------------------------
# native kernel bodies vs the NumPy tier (pure Python, runs without numba)
# --------------------------------------------------------------------------
class TestNativeKernelBodyParity:
    """The uncompiled kernel bodies emit exactly the NumPy tier's pairs."""

    @pytest.mark.parametrize("choice", ["dense", "sparse"])
    @pytest.mark.parametrize("unicomp", [False, True])
    @given(points=point_sets(), eps=st.floats(min_value=0.3, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_selfjoin_parity(self, points, eps, unicomp, choice):
        index = GridIndex.build(points, eps)
        impl = {"dense": nk._pairs_dense_impl,
                "sparse": nk._pairs_sparse_impl}[choice]
        ref, ref_stats = selfjoin_pairs(index, eps, unicomp=unicomp)
        got, got_stats = selfjoin_pairs(index, eps, impl, unicomp=unicomp)
        assert got_stats.result_pairs == ref_stats.result_pairs
        assert got_stats.distance_calcs == ref_stats.distance_calcs
        _assert_bit_identical(index.num_points, got, ref)

    @pytest.mark.parametrize("choice", ["dense", "sparse"])
    @pytest.mark.parametrize("dims", [2, 3, 4, 5, 6])
    def test_probe_parity(self, dims, choice):
        rng = np.random.default_rng(40 + dims)
        data = rng.uniform(0, 6.0, (150, dims))
        queries = rng.uniform(0, 6.0, (80, dims))
        eps = 1.1
        index = GridIndex.build(data, eps)
        ref_sink = PairFragments(queries.shape[0])
        run_probe(queries, index, eps, ref_sink, tier="numpy")
        impl = {"dense": nk._pairs_dense_impl,
                "sparse": nk._pairs_sparse_impl}[choice]
        sink = PairFragments(queries.shape[0])
        with pair_kernel(impl):
            run_probe(queries, index, eps, sink, tier="numpy")
        _assert_bit_identical(queries.shape[0], sink.concatenated(),
                              ref_sink.concatenated())

    def test_small_chunk_bound_still_identical(self):
        """Tiny max_candidate_pairs exercises the per-chunk buffer path."""
        points = uniform_dataset(300, 2, seed=9, low=0.0, high=8.0)
        eps = 1.0
        index = GridIndex.build(points, eps)
        ref, _ = selfjoin_pairs(index, eps)
        for choice, impl in (("dense", nk._pairs_dense_impl),
                             ("sparse", nk._pairs_sparse_impl)):
            got, _ = selfjoin_pairs(index, eps, impl, max_candidate_pairs=64)
            _assert_bit_identical(index.num_points, got, ref)

    def test_dense_tile_boundary(self):
        """Cells larger than one tile exercise the dense kernel's tiling."""
        rng = np.random.default_rng(11)
        # ~200 points per cell: several DENSE_TILE_ROWS-sized tiles.
        points = rng.uniform(0, 2.0, (800, 2))
        eps = 1.0
        index = GridIndex.build(points, eps)
        assert int(index.cell_counts.max()) > nk.DENSE_TILE_ROWS
        ref, _ = selfjoin_pairs(index, eps)
        got, _ = selfjoin_pairs(index, eps, nk._pairs_dense_impl)
        _assert_bit_identical(index.num_points, got, ref)


class TestTieredDispatch:
    """The operators run the one NumPy route and stamp its tier."""

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_numpy_tier_routes_match_vectorized(self, unicomp):
        points = uniform_dataset(400, 3, seed=5, low=0.0, high=6.0)
        eps = 1.0
        index = GridIndex.build(points, eps)
        ref = PairFragments(index.num_points)
        run_selfjoin(GridIndex.build(points, eps), eps, ref, unicomp=unicomp,
                     tier="numpy")
        sink = PairFragments(index.num_points)
        stats = run_selfjoin(index, eps, sink, unicomp=unicomp, tier="numpy")
        assert stats.tier == "numpy"
        assert stats.kernel_counts == {}
        _assert_bit_identical(index.num_points, sink.concatenated(),
                              ref.concatenated())

    def test_tier_stamped_on_probe(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 5.0, (200, 2))
        queries = rng.uniform(0, 5.0, (60, 2))
        sink = PairFragments(queries.shape[0])
        stats = run_probe(queries, GridIndex.build(data, 1.0), 1.0, sink,
                          tier="numpy")
        assert stats.tier == "numpy"
        assert stats.kernel_counts == {}


# --------------------------------------------------------------------------
# tier registry and forced fallback
# --------------------------------------------------------------------------
class TestKernelTierRegistry:
    def test_numpy_always_available(self):
        assert nk.kernel_tier_availability()["numpy"] is None

    def test_resolve_explicit_numpy(self):
        assert nk.resolve_kernel_tier("numpy") == "numpy"

    def test_resolve_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            nk.resolve_kernel_tier("cuda")

    def test_parse_kernel_spec(self):
        for tier in ("auto", "numpy", "numba"):
            assert nk.parse_kernel_spec(tier) == tier
        for spec in ("dense", "sparse", "numpy/sparse", "auto/dense", "fast"):
            with pytest.raises(ValueError, match="unknown kernel spec"):
                nk.parse_kernel_spec(spec)

    def test_forced_fallback_selects_numpy_with_clear_message(self, monkeypatch):
        """With numba 'absent', auto resolves to numpy and says why."""
        monkeypatch.setattr(nk, "_FORCED_UNAVAILABLE",
                            "kernel tier 'numba' is unavailable (requires "
                            "numba): No module named 'numba'; the pure-NumPy "
                            "tier is used instead")
        availability = nk.kernel_tier_availability()
        assert availability["numpy"] is None
        assert "requires numba" in availability["numba"]
        assert "pure-NumPy tier" in availability["numba"]
        assert nk.resolve_kernel_tier("auto") == "numpy"
        with pytest.raises(nk.KernelTierUnavailableError,
                           match="requires numba"):
            nk.resolve_kernel_tier("numba")

    def test_forced_fallback_end_to_end(self, monkeypatch):
        """A join under forced fallback runs and reports the numpy tier."""
        monkeypatch.setattr(nk, "_FORCED_UNAVAILABLE", "forced by test")
        points = uniform_dataset(250, 2, seed=1)
        result = run_query(Query.self_join(points, 4.0), backend="vectorized")
        assert result.stats.tier == "numpy"
        assert result.fragments.num_pairs > 0

    def test_explicit_numba_spec_fails_clearly_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(nk, "_FORCED_UNAVAILABLE", "forced by test")
        points = uniform_dataset(100, 2, seed=1)
        with pytest.raises(nk.KernelTierUnavailableError, match="forced"):
            run_query(Query.self_join(points, 4.0),
                      backend="vectorized(kernel=numba)")

    def test_warm_jit_cache_noop_without_numba(self, monkeypatch):
        monkeypatch.setattr(nk, "_FORCED_UNAVAILABLE", "forced by test")
        assert nk.warm_jit_cache() is False


# --------------------------------------------------------------------------
# adaptive per-shard selection
# --------------------------------------------------------------------------
class TestAdaptiveSelection:
    """The numba tier's dense/sparse choice (pure; runs without numba)."""

    def test_choose_kernel_by_density(self):
        dense = GridIndex.build(np.random.default_rng(0).uniform(
            0, 2.0, (400, 2)), 1.0)
        assert float(dense.cell_counts.mean()) >= \
            nk.DENSE_POINTS_PER_CELL_THRESHOLD
        assert nk.choose_selfjoin_kernel(dense, None) == "dense"
        sparse = GridIndex.build(uniform_dataset(300, 2, seed=0), 1.0)
        assert nk.choose_selfjoin_kernel(sparse, None) == "sparse"

    def test_choice_respects_cell_subset(self):
        """The per-shard decision reads the shard's cells, not the grid."""
        points = mixed_density_points()
        index = GridIndex.build(points, 1.0)
        counts = index.cell_counts
        dense_cells = np.flatnonzero(
            counts >= nk.DENSE_POINTS_PER_CELL_THRESHOLD)
        sparse_cells = np.flatnonzero(counts <= 2)
        assert dense_cells.size and sparse_cells.size
        assert nk.choose_selfjoin_kernel(index, dense_cells) == "dense"
        assert nk.choose_selfjoin_kernel(index, sparse_cells) == "sparse"


# --------------------------------------------------------------------------
# stats, reports and spec plumbing
# --------------------------------------------------------------------------
class TestStatsAndSpecs:
    def test_kernel_stats_tier_merge(self):
        acc = KernelStats()
        acc.merge(KernelStats(tier="numba", kernel_counts={"dense": 2}))
        assert acc.tier == "numba"
        acc.merge(KernelStats(tier="numba", kernel_counts={"sparse": 1}))
        assert acc.tier == "numba"
        assert acc.kernel_counts == {"dense": 2, "sparse": 1}
        acc.merge(KernelStats(tier="numpy"))
        assert acc.tier == "numba+numpy"
        acc.merge(KernelStats())  # tierless stats never corrupt the label
        assert acc.tier == "numba+numpy"

    def test_join_report_records_tier(self):
        points = uniform_dataset(300, 2, seed=4)
        _, report = GPUSelfJoin().join_with_report(points, 4.0)
        assert report.kernel_stats.tier in ("numpy", "numba")

    def test_selfjoin_config_accepts_kernel_spec(self):
        cfg = SelfJoinConfig(kernel="vectorized(kernel=numpy)")
        assert cfg.kernel == "vectorized(kernel=numpy)"
        with pytest.raises(ValueError, match="kernel must be one of"):
            SelfJoinConfig(kernel="bogus(kernel=numba)")

    def test_parse_backend_name_kwargs(self):
        assert _parse_backend_name("sharded(4, kernel=numba)") == \
            ("sharded", (4,), {"kernel": "numba"})
        assert _parse_backend_name("vectorized(kernel=numpy)") == \
            ("vectorized", (), {"kernel": "numpy"})
        assert _parse_backend_name("multiprocess(2)") == \
            ("multiprocess", (2,), {})
        with pytest.raises(KeyError, match="follows a keyword"):
            _parse_backend_name("sharded(kernel=numba, 4)")

    def test_sharded_takes_the_kernel_tier(self):
        backend = get_backend("sharded(2, kernel=numpy)")
        assert backend.tier == "numpy"
        assert backend.kernel_tier() == "numpy"

    def test_multiprocess_takes_the_kernel_tier(self):
        from repro.parallel.mp import MultiprocessBackend

        backend = MultiprocessBackend(n_workers=1, kernel="numpy")
        assert backend.tier == "numpy"
        assert backend.kernel_tier() == "numpy"

    @pytest.mark.parametrize("spec", ["sharded(2, kernel=warp)",
                                      "vectorized(kernel=dense)",
                                      "sharded(2, kernel=numpy/sparse)"])
    def test_bad_kernel_spec_fails_fast(self, spec):
        with pytest.raises(ValueError, match="unknown kernel spec"):
            get_backend(spec)

    def test_default_backend_tier_is_numpy(self):
        assert get_backend("simulated").kernel_tier() == "numpy"
        assert get_backend("bruteforce").kernel_tier() == "numpy"

    def test_engine_label_kernel_suffix(self):
        assert engine_backend_of("Engine[sharded/numba]") == \
            "sharded(kernel=numba)"
        assert engine_backend_of("Engine[sharded(4)/numba]") == \
            "sharded(4, kernel=numba)"
        assert engine_backend_of("Engine[vectorized/numpy]") == \
            "vectorized(kernel=numpy)"
        assert engine_backend_of("Engine[vectorized]") == "vectorized"
        assert engine_backend_of("GPU: unicomp") is None

    def test_engine_label_runs_end_to_end(self):
        points = uniform_dataset(200, 2, seed=8)
        backend = engine_backend_of("Engine[sharded(2)/numpy]")
        result = run_query(Query.self_join(points, 4.0), backend=backend)
        assert result.stats.tier == "numpy"
        assert result.fragments.num_pairs > 0

    def test_session_open_with_tiered_backend(self):
        points = uniform_dataset(150, 2, seed=6)
        with EngineSession(points, backend="vectorized") as session:
            report = session.self_join(4.0)
            assert report.stats.tier in ("numpy", "numba")


# --------------------------------------------------------------------------
# both tiers at the ε boundary
# --------------------------------------------------------------------------
def boundary_points(n_dims: int, seed: int):
    """Base points, each with a partner ε away along a random direction,
    and copies of the partners one ulp either way in every coordinate:
    many pairs whose squared distance rounds to within a few ulps of
    ``eps2``, where the order of the sum decides."""
    rng = np.random.default_rng(seed)
    eps = 0.5
    base = rng.uniform(0.0, 3.0, (100, n_dims))
    direction = rng.normal(size=(100, n_dims))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    partner = base + eps * direction
    return np.concatenate([base, partner, np.nextafter(partner, np.inf),
                           np.nextafter(partner, -np.inf)]), eps


def decided_by_the_order(points: np.ndarray, eps: float) -> int:
    """How many base-to-partner pairs the dimension-order sum and the
    reversed-order sum decide differently."""
    n = points.shape[0] // 4
    eps2 = eps * eps
    flips = 0
    for copy in range(1, 4):
        diff = points[:n] - points[copy * n:(copy + 1) * n]
        forward = np.zeros(n)
        backward = np.zeros(n)
        for j in range(diff.shape[1]):
            forward += diff[:, j] * diff[:, j]
            backward += diff[:, -1 - j] * diff[:, -1 - j]
        flips += int(((forward <= eps2) != (backward <= eps2)).sum())
    return flips


#: The NumPy tier's counterparts: the uncompiled kernel bodies, and the
#: compiled kernels where numba is installed.
BOUNDARY_KERNELS = ["dense", "sparse", pytest.param(
    "compiled", marks=pytest.mark.skipif(not HAS_NUMBA,
                                         reason="numba not installed"))]


def run_on(kernel, operator, *args, **options):
    """``operator(*args, **options)`` on the compiled tier, or with the
    uncompiled ``dense``/``sparse`` kernel body."""
    if kernel == "compiled":
        return operator(*args, tier="numba", **options)
    impl = {"dense": nk._pairs_dense_impl,
            "sparse": nk._pairs_sparse_impl}[kernel]
    with pair_kernel(impl):
        return operator(*args, tier="numpy", **options)


class TestBoundaryParity:
    """Both tiers emit the same pair stream at exact-ε and ±1-ulp inputs:
    they sum the squared distance in the same order
    (:mod:`repro.core.distance`).  Each input sits where another order
    would decide some pairs differently, so equal streams show an equal
    order."""

    @pytest.mark.parametrize("kernel", BOUNDARY_KERNELS)
    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("n_dims", [3, 4, 5, 6])
    def test_same_stream_at_the_boundary(self, n_dims, unicomp, kernel):
        points, eps = boundary_points(n_dims, seed=60 + n_dims)
        assert decided_by_the_order(points, eps) > 0
        ref = PairFragments(points.shape[0])
        run_selfjoin(GridIndex.build(points, eps), eps, ref,
                     unicomp=unicomp, tier="numpy")
        got = PairFragments(points.shape[0])
        run_on(kernel, run_selfjoin, GridIndex.build(points, eps), eps, got,
               unicomp=unicomp)
        for got_part, ref_part in zip(got.concatenated(), ref.concatenated()):
            np.testing.assert_array_equal(got_part, ref_part)

    @pytest.mark.parametrize("kernel", BOUNDARY_KERNELS)
    @pytest.mark.parametrize("n_dims", [3, 4, 5, 6])
    def test_same_probe_stream_at_the_boundary(self, n_dims, kernel):
        points, eps = boundary_points(n_dims, seed=70 + n_dims)
        assert decided_by_the_order(points, eps) > 0
        n = points.shape[0] // 4
        queries, index = points[:n], GridIndex.build(points[n:], eps)
        ref = PairFragments(n)
        run_probe(queries, index, eps, ref, tier="numpy")
        got = PairFragments(n)
        run_on(kernel, run_probe, queries, index, eps, got)
        for got_part, ref_part in zip(got.concatenated(), ref.concatenated()):
            np.testing.assert_array_equal(got_part, ref_part)


# --------------------------------------------------------------------------
# compiled tier (requires numba)
# --------------------------------------------------------------------------
@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
class TestNumbaTierParity:
    """Full parity matrix on the compiled tier (numba hosts / CI job only)."""

    @pytest.mark.parametrize("dims", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_vectorized_backend_parity(self, dims, unicomp):
        points = uniform_dataset({2: 240, 3: 200, 4: 150, 5: 100,
                                  6: 80}[dims], dims, seed=20 + dims,
                                 low=0.0, high=4.0)
        eps = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}[dims]
        ref = run_query(Query.self_join(points, eps, unicomp=unicomp),
                        backend="vectorized(kernel=numpy)")
        got = run_query(Query.self_join(points, eps, unicomp=unicomp),
                        backend="vectorized(kernel=numba)")
        assert ref.stats.tier == "numpy"
        assert got.stats.tier == "numba"
        _assert_bit_identical(points.shape[0], got.pairs(), ref.pairs())

    @pytest.mark.parametrize("backend", ["sharded(3, kernel={})",
                                         "multiprocess(2, kernel={})"])
    def test_parallel_backend_parity(self, backend):
        points = mixed_density_points(seed=9)
        ref = run_query(Query.self_join(points, 1.0, unicomp=True),
                        backend=backend.format("numpy"))
        got = run_query(Query.self_join(points, 1.0, unicomp=True),
                        backend=backend.format("numba"))
        assert got.stats.tier == "numba"
        _assert_bit_identical(points.shape[0], got.pairs(), ref.pairs())

    def test_streamed_store_parity(self, tmp_path):
        from repro.data.store import SpatialStore

        points = uniform_dataset(300, 3, seed=13, low=0.0, high=4.0)
        eps = 1.0
        store = SpatialStore.write(points, tmp_path / "store",
                                   cell_width=eps / 2.5)
        results = {}
        for tier in ("numpy", "numba"):
            sink = PairFragments(store.n_points)
            stats = get_backend(f"sharded(4, kernel={tier})") \
                .run_selfjoin_streamed(store, eps, sink)
            assert stats.tier == tier
            results[tier] = sink.concatenated()
        _assert_bit_identical(store.n_points, results["numba"],
                              results["numpy"])

    def test_probe_query_parity(self):
        rng = np.random.default_rng(17)
        data = rng.uniform(0, 6.0, (400, 3))
        queries = rng.uniform(0, 6.0, (150, 3))
        ref = run_query(Query.bipartite_join(queries, data, 1.0),
                        backend="vectorized(kernel=numpy)")
        got = run_query(Query.bipartite_join(queries, data, 1.0),
                        backend="vectorized(kernel=numba)")
        _assert_bit_identical(queries.shape[0], got.pairs(), ref.pairs())

    def test_session_warms_jit_cache_once(self):
        points = uniform_dataset(120, 2, seed=2)
        with EngineSession(points, backend="vectorized") as session:
            assert session.backend.kernel_tier() == "numba"
            assert nk._warmed is True
            report = session.self_join(4.0)
            assert report.stats.tier == "numba"

    def test_mixed_density_routes_shards_to_both_kernels(self):
        """Acceptance: a sharded run uses each kernel on at least one shard."""
        points = mixed_density_points()
        result = run_query(Query.self_join(points, 1.0, unicomp=True),
                           backend="sharded(6)")
        assert result.stats.kernel_counts.get("dense", 0) >= 1
        assert result.stats.kernel_counts.get("sparse", 0) >= 1
        assert result.stats.tier == "numba"
        # Pair-identical to the per-cell oracle.
        ref = PairFragments(points.shape[0])
        selfjoin_cellwise(GridIndex.build(points, 1.0), ref, unicomp=True)
        _assert_bit_identical(points.shape[0], result.pairs(),
                              ref.concatenated())

    def test_explicit_numba_spec_resolves(self):
        assert nk.resolve_kernel_tier("numba") == "numba"
        assert nk.numba_version() is not None
