"""The cached cell-pair adjacency and cell-ordered points of a ``GridIndex``.

A self-join's cell pairs depend only on the index and the UNICOMP flag, so
the first self-join on an index walks every non-empty cell once and keeps
the walk (:class:`repro.core.kernels.CellAdjacency`); later self-joins, for
any cell subset, read it back.  These tests pin that reading back changes
nothing: for every cell subset, in any order of requests, the emitted
stream (sha256) and the four work counters equal an uncached walk's on a
fresh index.  They also check that an adjacency past the byte bound is not
kept, that concurrent first requests build each cache once, and that warm
session self-joins on ``vectorized``, ``sharded`` and ``distributed`` no
longer walk while cold ops and probes still do.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import kernels as K
from repro.core.batching import BatchPlanner, data_bytes
from repro.core.gridindex import GridIndex
from repro.core.result import PairFragments
from repro.data.synthetic import uniform_dataset
from repro.distributed import WorkerThread
from repro.engine import EngineSession, Query, run_query
from repro.engine.backends import VectorizedBackend
from repro.parallel.executor import ShardDataset


def digest(sink: PairFragments) -> str:
    keys, values = sink.concatenated()
    return hashlib.sha256(keys.astype("<i8").tobytes()
                          + values.astype("<i8").tobytes()).hexdigest()


def uncached_run(index, cells, unicomp):
    """Stream digest and counters of a walk-as-you-go self-join over
    ``cells``: every call resolves its own cells, nothing is kept."""
    sink = PairFragments(index.num_points)
    side = K._index_side(index, None)
    counters = [0, 0, 0]
    coords = index.cell_coords if cells is None else index.cell_coords[cells]
    for src, tgt, checked in K._walk_cell_pairs(index, coords, unicomp):
        counters[0] += int(checked.sum())
        counters[1] += int(src.shape[0])
        src = src if cells is None else cells.take(src)
        counters[2] += K._emit_pairs(
            sink, side, src, side, tgt, index.eps * index.eps,
            K.DEFAULT_MAX_CANDIDATE_PAIRS,
            mirror=tgt != src if unicomp else None)
    return digest(sink), (*counters, sink.num_pairs)


def cached_run(index, cells, unicomp):
    sink = PairFragments(index.num_points)
    stats = VectorizedBackend("numpy").run_selfjoin(
        index, index.eps, cells, sink, unicomp=unicomp)
    return digest(sink), (stats.cells_checked, stats.nonempty_cells_visited,
                          stats.distance_calcs, stats.result_pairs)


def kept_adjacency(index, unicomp):
    """The adjacency the index keeps for ``unicomp`` (``None`` past the
    bound); fails if none was built yet."""
    return index.cached(("cell_pairs", unicomp),
                        lambda: pytest.fail("no adjacency was built"))


def fresh(index):
    return GridIndex.build(index.points, index.eps, dims=index.dims)


def cell_requests(data, n_cells):
    """A few cell subsets of ``n_cells`` cells, each contiguous,
    non-contiguous (sorted or not), whole or empty."""
    requests = []
    for _ in range(data.draw(st.integers(1, 5))):
        kind = data.draw(st.sampled_from(
            ["whole", "range", "sorted", "shuffled", "empty"]))
        if kind == "whole":
            requests.append(None)
        elif kind == "empty":
            requests.append(np.empty(0, dtype=np.int64))
        elif kind == "range":
            lo = data.draw(st.integers(0, n_cells - 1))
            hi = data.draw(st.integers(lo + 1, n_cells))
            requests.append(np.arange(lo, hi, dtype=np.int64))
        else:
            picked = data.draw(st.lists(st.integers(0, n_cells - 1),
                                        min_size=1, max_size=n_cells,
                                        unique=True))
            if kind == "sorted":
                picked.sort()
            requests.append(np.asarray(picked, dtype=np.int64))
    return requests


class TestCachedWalkParity:
    @given(dims=st.integers(2, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_requests_match_an_uncached_walk(self, dims, data):
        points = data.draw(hnp.arrays(
            np.float64, st.tuples(st.integers(1, 120), st.just(dims)),
            elements=st.floats(0.0, 4.0, allow_nan=False, width=64)))
        grid_dims = None if data.draw(st.booleans()) else data.draw(
            st.sets(st.integers(0, dims - 1), min_size=1, max_size=dims))
        index = GridIndex.build(points, 0.7, dims=grid_dims)
        unicomp = data.draw(st.booleans())
        for cells in cell_requests(data, index.num_nonempty_cells):
            assert cached_run(index, cells, unicomp) \
                == uncached_run(fresh(index), cells, unicomp)

    @pytest.mark.parametrize("unicomp", [False, True])
    @pytest.mark.parametrize("chosen_dims", [False, True])
    def test_range_sequences(self, unicomp, chosen_dims):
        """A first request for one shard, then a sub-range of a range,
        overlapping ranges, a scattered subset, nothing and everything."""
        if chosen_dims:
            from repro.engine.planner import QueryPlanner
            index = QueryPlanner().index_dataset(
                uniform_dataset(2000, 6, seed=1, low=0, high=1), 0.25)
            assert index.dims == (0, 1, 2, 3, 4)
        else:
            index = GridIndex.build(
                uniform_dataset(3000, 3, seed=1, low=0, high=1), 0.05)
        n = index.num_nonempty_cells
        rng = np.random.default_rng(5)
        requests = [np.arange(n // 3, n // 2), np.arange(10, n - 10),
                    np.arange(40, 90), np.arange(60, 200), np.arange(150, 300),
                    np.sort(rng.choice(n, n // 4, replace=False)),
                    rng.permutation(n)[:50], np.empty(0, dtype=np.int64),
                    None, np.arange(n)]
        for cells in requests:
            assert cached_run(index, cells, unicomp) \
                == uncached_run(fresh(index), cells, unicomp)
        assert kept_adjacency(index, unicomp) is not None


class TestByteBound:
    @staticmethod
    def lattice():
        """729 points, one per cell of a 3^6 block: every cell neighbours
        up to 728 others, far more pair bytes than four point copies."""
        axes = np.meshgrid(*[np.arange(3.0)] * 6, indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, 6) + 0.5

    @pytest.mark.parametrize("first", ["whole", "subset"])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_past_the_bound_keeps_nothing_and_emits_the_same(self, unicomp,
                                                             first):
        index = GridIndex.build(self.lattice(), 1.0)
        n = index.num_nonempty_cells
        requests = [None, np.arange(100, 300)] if first == "whole" \
            else [np.arange(100, 300), None]
        for cells in requests + [np.arange(0, n, 3)]:
            assert cached_run(index, cells, unicomp) \
                == uncached_run(fresh(index), cells, unicomp)
        assert kept_adjacency(index, unicomp) is None

    def test_inside_the_bound_is_kept_as_int32(self):
        index = GridIndex.build(uniform_dataset(2000, 3, seed=2, low=0, high=1),
                                0.05)
        cached_run(index, None, True)
        adjacency = kept_adjacency(index, True)
        assert adjacency.targets.dtype == np.int32
        assert adjacency.starts[-1] == adjacency.targets.shape[0]
        assert adjacency.nbytes == (adjacency.starts.nbytes
                                    + adjacency.targets.nbytes
                                    + adjacency.checked.nbytes
                                    + adjacency.visited.nbytes
                                    + adjacency.costs.nbytes)
        assert adjacency.nbytes \
            <= K._ADJACENCY_BYTES_PER_POINT_BYTE * index.points.nbytes

    def test_batch_planner_counts_the_kept_bytes(self):
        index = GridIndex.build(uniform_dataset(2000, 3, seed=2, low=0, high=1),
                                0.05)
        paper_bytes = index.points.nbytes + index.memory_footprint()
        planner = BatchPlanner(memory_bytes=4 * 1024 * 1024)
        cold = planner.buffer_capacity_pairs(index)
        assert index.cached_nbytes() == 0
        assert data_bytes(index) == paper_bytes
        for unicomp in (False, True):
            run_query(Query.self_join(index.points, index.eps,
                                      unicomp=unicomp),
                      index=index, backend="vectorized")
        kept = (index.cell_ordered_columns().nbytes
                + kept_adjacency(index, False).nbytes
                + kept_adjacency(index, True).nbytes)
        assert index.cached_nbytes() == kept
        assert data_bytes(index) == paper_bytes + kept
        assert kept <= (1 + 2 * K._ADJACENCY_BYTES_PER_POINT_BYTE) \
            * index.points.nbytes
        assert planner.buffer_capacity_pairs(index) < cold

    def test_cell_ordered_columns(self):
        index = GridIndex.build(uniform_dataset(500, 4, seed=3, low=0, high=1),
                                0.2)
        columns = index.cell_ordered_columns()
        assert columns.shape == (4, 500) and columns.flags.c_contiguous
        assert np.array_equal(columns, index.points[index.A].T)
        assert not columns.flags.writeable
        assert index.cell_ordered_columns() is columns


# --------------------------------------------------------------------------
# concurrent first requests build once
# --------------------------------------------------------------------------
def run_concurrently(target, n_threads=4):
    """Run ``target(i)`` on ``n_threads`` threads released together, with
    a short switch interval so a check-then-act race would interleave."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def body(i):
        try:
            barrier.wait(timeout=10)
            target(i)
        except BaseException as exc:  # re-raised in the test thread
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def test_shard_dataset_builds_each_index_once(monkeypatch):
    points = uniform_dataset(3000, 3, seed=4, low=0, high=1)
    build = GridIndex.build.__func__
    builds = []

    def slow_build(cls, *args, **kwargs):
        builds.append(1)
        time.sleep(0.05)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(GridIndex, "build", classmethod(slow_build))
    dataset = ShardDataset(points=points, kernel="auto")
    got = [None] * 4
    run_concurrently(lambda i: got.__setitem__(i, dataset.index_for(0.1, (0, 2))))
    assert len(builds) == 1
    assert all(index is got[0] for index in got)
    assert list(dataset.indexes) == [(0.1, (0, 2))]


def finishes_while_blocked(blocked_build, other):
    """Whether ``other()`` returns while ``blocked_build`` (a function
    taking a build callback) is inside its build on another thread."""
    started, release = threading.Event(), threading.Event()

    def build():
        started.set()
        assert release.wait(timeout=30)
        return "slow"

    slow = threading.Thread(target=blocked_build, args=(build,))
    slow.start()
    try:
        assert started.wait(timeout=10)
        quick = threading.Thread(target=other)
        quick.start()
        quick.join(timeout=10)
        return not quick.is_alive()
    finally:
        release.set()
        slow.join(timeout=30)


def test_index_caches_wait_per_key(monkeypatch):
    index = GridIndex.build(uniform_dataset(500, 3, seed=7, low=0, high=1), 0.1)
    assert finishes_while_blocked(
        lambda build: index.cached("slow", build),
        lambda: K._visit_cell_pairs(index, None, True,
                                    lambda *group: None))
    assert index.cached("slow", lambda: "rebuilt") == "slow"

    # A cold build at one ε blocks neither a warm lookup nor a cold build
    # at another.
    dataset = ShardDataset(points=index.points, kernel="auto")
    warm = dataset.index_for(0.1)
    real_build = GridIndex.build.__func__
    slow = {}

    def build(cls, points, eps, dims=None):
        if eps == 0.2:
            return slow["build"]()
        return real_build(cls, points, eps, dims=dims)

    def slow_index(slow_build):
        slow["build"] = slow_build
        dataset.index_for(0.2)

    monkeypatch.setattr(GridIndex, "build", classmethod(build))
    assert finishes_while_blocked(
        slow_index, lambda: (dataset.index_for(0.1), dataset.index_for(0.3)))
    assert dataset.index_for(0.1) is warm


def test_failed_build_keeps_nothing_and_a_waiter_builds():
    index = GridIndex.build(uniform_dataset(100, 2, seed=8, low=0, high=1), 0.2)
    calls = []

    def failing_then_fine(i):
        def build():
            calls.append(i)
            time.sleep(0.05)
            if len(calls) == 1:
                raise RuntimeError("first build fails")
            return "built"

        try:
            assert index.cached("key", build) == "built"
        except RuntimeError:
            pass

    run_concurrently(failing_then_fine, 3)
    assert len(calls) == 2
    assert index.cached("key", lambda: "unused") == "built"


@pytest.mark.parametrize("unicomp", [False, True])
def test_adjacency_is_walked_once(monkeypatch, unicomp):
    index = GridIndex.build(uniform_dataset(3000, 3, seed=6, low=0, high=1), 0.06)
    n = index.num_nonempty_cells
    requests = [None, np.arange(n // 2), np.arange(n // 2, n),
                np.arange(0, n, 2)]
    expected = [uncached_run(fresh(index), cells, unicomp) for cells in requests]
    walk = K._walk_adjacency
    walks = []

    def slow_walk(*args, **kwargs):
        walks.append(1)
        time.sleep(0.05)
        return walk(*args, **kwargs)

    monkeypatch.setattr(K, "_walk_adjacency", slow_walk)
    got = [None] * len(requests)
    run_concurrently(lambda i: got.__setitem__(
        i, cached_run(index, requests[i], unicomp)), len(requests))
    assert len(walks) == 1
    assert got == expected


# --------------------------------------------------------------------------
# architecture: warm self-joins read the cache, cold ops and probes walk
# --------------------------------------------------------------------------
@contextlib.contextmanager
def deployment(backend):
    """The backend spec, with two in-process workers for ``distributed``."""
    if backend != "distributed":
        yield backend
        return
    with WorkerThread() as first, WorkerThread() as second:
        yield "distributed(" + ", ".join(
            f"{host}:{port}" for host, port in (first.address, second.address)) + ")"


@pytest.mark.parametrize("backend", ["vectorized", "sharded(4)", "distributed"])
def test_warm_selfjoins_do_not_walk(monkeypatch, backend):
    points = uniform_dataset(3000, 3, seed=8, low=0, high=1)
    eps = 0.06
    expected = {unicomp: run_query(Query.self_join(points, eps, unicomp=unicomp),
                                   backend="vectorized").neighbor_table
                for unicomp in (False, True)}
    walks = []
    walk = K._walk_cell_pairs

    def counted(*args, **kwargs):
        walks.append(1)
        return walk(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm self-join walked the cell pairs")

    monkeypatch.setattr(K, "_walk_cell_pairs", counted)
    with deployment(backend) as spec, \
            EngineSession(points, backend=spec) as session:
        for unicomp in (False, True):
            before = len(walks)
            table = session.self_join(eps, unicomp=unicomp).neighbor_table
            assert len(walks) > before, "the cold op must walk"
            assert table.same_contents_as(expected[unicomp])
        monkeypatch.setattr(K, "_walk_cell_pairs", refuse)
        for unicomp in (False, True, True):
            table = session.self_join(eps, unicomp=unicomp).neighbor_table
            assert table.same_contents_as(expected[unicomp])
        monkeypatch.setattr(K, "_walk_cell_pairs", counted)
        before = len(walks)
        session.range_query(points[:20], eps)
        assert len(walks) > before, "probes walk on every call"
