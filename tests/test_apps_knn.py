"""Tests for the grid-index kNN search (future-work application)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.apps.knn import knn_search
from repro.core.gridindex import GridIndex
from repro.data.synthetic import gaussian_clusters, uniform_dataset


class TestKNNCorrectness:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_distances_match_kdtree(self, dims):
        pts = uniform_dataset(400, dims, seed=dims, low=0.0, high=10.0)
        k = 4
        result = knn_search(pts, k=k)
        ref_dist, _ = cKDTree(pts).query(pts, k=k + 1)
        assert np.allclose(np.sort(result.distances, axis=1), ref_dist[:, 1:])

    def test_include_self(self):
        pts = uniform_dataset(200, 2, seed=1, low=0.0, high=5.0)
        result = knn_search(pts, k=3, include_self=True)
        # With include_self the nearest neighbor of each point is itself.
        assert np.allclose(result.distances[:, 0], 0.0)
        assert np.array_equal(result.indices[:, 0], np.arange(200))

    def test_external_queries(self):
        pts = uniform_dataset(300, 2, seed=2, low=0.0, high=10.0)
        queries = uniform_dataset(50, 2, seed=3, low=0.0, high=10.0)
        result = knn_search(pts, k=5, queries=queries)
        ref_dist, _ = cKDTree(pts).query(queries, k=5)
        assert np.allclose(np.sort(result.distances, axis=1), ref_dist)

    def test_clustered_data(self):
        pts = gaussian_clusters(500, 2, n_clusters=5, cluster_std=1.0, seed=4)
        result = knn_search(pts, k=3)
        ref_dist, _ = cKDTree(pts).query(pts, k=4)
        assert np.allclose(np.sort(result.distances, axis=1), ref_dist[:, 1:])

    def test_prebuilt_index_reused(self):
        pts = uniform_dataset(300, 2, seed=5, low=0.0, high=10.0)
        index = GridIndex.build(pts, 1.0)
        result = knn_search(pts, k=2, index=index)
        ref_dist, _ = cKDTree(pts).query(pts, k=3)
        assert np.allclose(np.sort(result.distances, axis=1), ref_dist[:, 1:])

    def test_k_equals_all_other_points(self):
        pts = uniform_dataset(30, 2, seed=6, low=0.0, high=3.0)
        result = knn_search(pts, k=29)
        assert result.indices.shape == (30, 29)
        # Every other point must appear exactly once per query.
        for qi in range(30):
            assert set(result.indices[qi].tolist()) == set(range(30)) - {qi}


class TestKNNResultShape:
    def test_result_shapes_and_k(self):
        pts = uniform_dataset(100, 3, seed=7, low=0.0, high=5.0)
        result = knn_search(pts, k=6)
        assert result.indices.shape == (100, 6)
        assert result.distances.shape == (100, 6)
        assert result.k == 6

    def test_distances_sorted_ascending(self):
        pts = uniform_dataset(200, 2, seed=8, low=0.0, high=5.0)
        result = knn_search(pts, k=5)
        assert np.all(np.diff(result.distances, axis=1) >= -1e-12)


class TestKNNValidation:
    def test_invalid_k(self):
        pts = uniform_dataset(10, 2, seed=0)
        with pytest.raises(ValueError):
            knn_search(pts, k=0)
        with pytest.raises(ValueError):
            knn_search(pts, k=10)  # only 9 other points available
        # But k == 10 is fine when the point itself may be returned.
        assert knn_search(pts, k=10, include_self=True).k == 10

    def test_duplicate_points_handled(self):
        pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        result = knn_search(pts, k=4)
        # Each point's 4 nearest neighbors are its 4 duplicates at distance 0.
        assert np.allclose(result.distances, 0.0)


class TestSessionExtent:
    """A session sizes every kNN query's first radius from one extent."""

    @staticmethod
    def _count_extents(monkeypatch):
        from repro.data import store
        from repro.engine import planner, session
        calls = {"session": 0, "planner": 0}

        def counting(where):
            def extent(points):
                calls[where] += 1
                return store.dataset_extent(points)
            return extent

        monkeypatch.setattr(session, "dataset_extent", counting("session"))
        monkeypatch.setattr(planner, "dataset_extent", counting("planner"))
        return calls

    def test_computed_once_per_session(self, monkeypatch):
        from repro.engine import EngineSession
        pts = uniform_dataset(500, 3, seed=11, low=0.0, high=4.0)
        queries = uniform_dataset(20, 3, seed=12, low=0.0, high=4.0)
        ks = (1, 4, 9, 2)
        expected = [knn_search(pts, k=k, queries=queries) for k in ks]
        calls = self._count_extents(monkeypatch)
        with EngineSession(pts) as session:
            got = [knn_search(None, k=k, queries=queries, session=session)
                   for k in ks]
        assert calls == {"session": 1, "planner": 0}
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(have.indices, want.indices)
            np.testing.assert_array_equal(have.distances, want.distances)

    def test_a_plan_without_session_computes_it_per_call(self, monkeypatch):
        from repro.engine import Query, run_query
        pts = uniform_dataset(300, 2, seed=13, low=0.0, high=4.0)
        calls = self._count_extents(monkeypatch)
        for k in (1, 3, 5):
            run_query(Query.knn_candidates(pts, k))
        assert calls == {"session": 0, "planner": 3}


class TestRankingMargin:
    """The probe filters by one rounding of the squared distance and the
    ranking sorts by another (``einsum``), so a row is finished only when
    its k-th neighbour lies below the probe radius by a margin covering
    both; a row whose k-th neighbour sits inside that margin is re-probed
    at the doubled radius."""

    EPS = 0.5

    def data(self):
        near = [[0.1, 0.0, 0.0],
                # Exactly on the first probe radius: within the margin.
                [self.EPS, 0.0, 0.0],
                # One ulp past it, which the probe leaves out.
                [np.nextafter(self.EPS, 1.0), 0.0, 0.0],
                [0.0, 0.3, 0.4]]
        # The second query's neighbourhood, well inside the radius.
        cluster = [[5.0, 5.0, 5.1], [5.0, 5.1, 5.0], [5.2, 5.0, 5.0]]
        far = uniform_dataset(40, 3, seed=8, low=8.0, high=12.0)
        return np.concatenate([near, cluster, far])

    def brute_force(self, points, queries, k, exclude_self=False):
        indices, distances = [], []
        for row, query in enumerate(queries):
            diff = query - points
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            order = np.argsort(dist, kind="stable")
            if exclude_self:
                order = order[order != row]
            indices.append(order[:k])
            distances.append(dist[order[:k]])
        return np.array(indices), np.array(distances)

    def test_kth_neighbour_on_the_radius_matches_brute_force(self):
        from repro.engine import Query, run_query

        points = self.data()
        queries = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        k = 2
        candidates = run_query(Query.knn_candidates(
            points, k, queries=queries, cell_width=self.EPS)).neighbor_table
        # The first row's second neighbour is on the radius: the row is
        # answered by the doubled radius's probe, the four near points.
        # The second row finished on its first probe.
        assert candidates.counts().tolist() == [4, 3]
        result = knn_search(points, k=k, queries=queries, cell_width=self.EPS)
        indices, distances = self.brute_force(points, queries, k)
        assert np.array_equal(result.indices, indices)
        assert np.array_equal(result.distances, distances)
        assert result.indices[0].tolist() == [0, 1]

    @pytest.mark.parametrize("cell_width", [1.0, 0.5])
    def test_lattice_rows_stay_local(self, cell_width):
        """On an integer lattice every interior point's 4 nearest neighbours
        sit exactly on a probe radius of 1.0; those rows are re-probed at
        2.0, not answered against all points."""
        from repro.engine import Query, run_query

        side = 30
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side),
                                    indexing="ij"), axis=-1)
        points = grid.reshape(-1, 2).astype(np.float64)
        k = 4
        candidates = run_query(Query.knn_candidates(
            points, k, cell_width=cell_width)).neighbor_table
        # An interior row gets the 12 other lattice points within 2.0; a
        # corner row, whose 4th neighbour sits exactly on 2.0 as well, the
        # 16 within 4.0 in its quadrant.
        assert candidates.counts().max() == 16
        result = knn_search(points, k=k, cell_width=cell_width)
        indices, distances = self.brute_force(points, points, k,
                                              exclude_self=True)
        assert np.array_equal(result.indices, indices)
        assert np.array_equal(result.distances, distances)
