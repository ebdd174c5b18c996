"""Integration tests: every self-join implementation agrees on every fixture.

This is the repo's strongest correctness statement — the paper's algorithm
(batched and unbatched, with and without UNICOMP), its per-cell oracle,
every baseline (CPU-RTREE, SUPEREGO, brute force) and the instrumented
simulator path produce the exact same pair set, cross-checked against
scipy's KD-tree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import selfjoin
from repro.baselines.bruteforce import bruteforce_selfjoin
from repro.baselines.cellwise import selfjoin_cellwise
from repro.baselines.kdtree_ref import kdtree_selfjoin
from repro.baselines.rtree_selfjoin import rtree_selfjoin
from repro.baselines.superego import superego_selfjoin
from repro.core.gridindex import GridIndex
from repro.core.result import PairFragments
from repro.data.realworld import sdss_dataset, sw_dataset
from repro.data.synthetic import gaussian_clusters, uniform_dataset

#: (name, points factory, eps) — a representative cross-section of Table I.
SCENARIOS = [
    ("uniform-2d", lambda: uniform_dataset(500, 2, seed=0, low=0, high=15), 0.9),
    ("uniform-3d", lambda: uniform_dataset(400, 3, seed=1, low=0, high=8), 0.8),
    ("uniform-4d", lambda: uniform_dataset(300, 4, seed=2, low=0, high=6), 1.1),
    ("uniform-6d", lambda: uniform_dataset(250, 6, seed=3, low=0, high=5), 1.4),
    ("clustered-2d", lambda: gaussian_clusters(400, 2, n_clusters=5, seed=4), 1.0),
    ("sw-3d", lambda: sw_dataset(400, n_dims=3, seed=5), 4.0),
    ("sdss-2d", lambda: sdss_dataset(400, seed=6), 1.5),
]


def oracle_pairs(points, eps):
    """The per-cell oracle's self-join, as canonical pairs."""
    sink = PairFragments(points.shape[0])
    selfjoin_cellwise(GridIndex.build(points, eps), sink)
    return sink.to_result_set().canonical_pairs()


@pytest.mark.parametrize("name,factory,eps", SCENARIOS, ids=[s[0] for s in SCENARIOS])
class TestAllAlgorithmsAgree:
    def test_cross_validation(self, name, factory, eps):
        points = factory()
        reference = kdtree_selfjoin(points, eps).canonical_pairs()

        outputs = {
            "gpu-unicomp": selfjoin(points, eps, unicomp=True).canonical_pairs(),
            "gpu-global": selfjoin(points, eps, unicomp=False).canonical_pairs(),
            "gpu-unbatched": selfjoin(points, eps, batching=False).canonical_pairs(),
            "cellwise-oracle": oracle_pairs(points, eps),
            "rtree": rtree_selfjoin(points, eps).result.canonical_pairs(),
            "superego": superego_selfjoin(points, eps).result.canonical_pairs(),
            "bruteforce": bruteforce_selfjoin(points, eps).result.canonical_pairs(),
        }
        for label, pairs in outputs.items():
            assert np.array_equal(pairs, reference), f"{label} disagrees on {name}"


class TestSimulatedPathAgrees:
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_simulator_matches_reference(self, unicomp):
        points = uniform_dataset(200, 2, seed=9, low=0, high=6)
        eps = 0.7
        result = selfjoin(points, eps, kernel="simulated", unicomp=unicomp,
                          batching=False)
        reference = kdtree_selfjoin(points, eps)
        assert result.same_pairs_as(reference)


class TestScaleConsistency:
    def test_pair_counts_scale_with_density(self):
        """Doubling eps in 2-D roughly quadruples the neighbor count."""
        points = uniform_dataset(3000, 2, seed=11)
        small = selfjoin(points, 1.0, include_self=False).num_pairs
        large = selfjoin(points, 2.0, include_self=False).num_pairs
        assert 2.5 < large / small < 6.0

    def test_larger_dataset_same_density_similar_neighbors(self):
        a = uniform_dataset(2000, 2, seed=12, low=0, high=50)
        b = uniform_dataset(8000, 2, seed=13, low=0, high=100)
        eps = 1.0
        avg_a = selfjoin(a, eps, include_self=False).num_pairs / a.shape[0]
        avg_b = selfjoin(b, eps, include_self=False).num_pairs / b.shape[0]
        assert avg_a == pytest.approx(avg_b, rel=0.35)
