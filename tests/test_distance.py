"""The one summation order of the squared distance, pinned on every path.

Each path that decides "within ε" sums ``((d_0² + d_1²) + d_2²) + ...``
in dimension order (:mod:`repro.core.distance`).  The differences below
were found by a random search over 3-D vectors whose plain-order sum lands
on ``eps2 = 0.25`` to within a few ulps: for each, adding the squares as
``(d_0² + d_2²) + d_1²`` (the order a contiguous ``einsum`` used on the
host the search ran on) decides the other way.  So a path that summed in
any order but the documented one would flip one of the two pairs.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_join, bruteforce_selfjoin
from repro.baselines.cellwise import probe_cellwise, selfjoin_cellwise
from repro.baselines.ego import ego_join
from repro.core import nativekernels as nk
from repro.core.densegrid import DenseGridIndex
from repro.core.distance import squared_distances
from repro.core.gridindex import GridIndex
from repro.core.kernels import run_probe, run_selfjoin
from repro.core.result import PairFragments

EPS = 0.5
#: Plain order <= eps2 < the other order: the pair is a hit.
HIT = (0.2375286399814001, 0.31916414029087264, 0.3028438487751974)
#: The other order <= eps2 < plain order: the pair is a miss.
MISS = (0.3486500850303178, 0.28779857576412593, 0.21357691353817448)


def plain(d):
    return (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]


def swapped(d):
    return (d[0] * d[0] + d[2] * d[2]) + d[1] * d[1]


def test_the_inputs_tell_the_orders_apart():
    eps2 = EPS * EPS
    assert plain(HIT) <= eps2 < swapped(HIT)
    assert swapped(MISS) <= eps2 < plain(MISS)


def test_squared_distances_sums_in_dimension_order():
    diffs = np.array([HIT, MISS])
    got = squared_distances(diffs, np.zeros(3))
    assert got.tolist() == [plain(HIT), plain(MISS)]
    block = squared_distances(np.zeros((1, 1, 3)), -diffs[None, :, :])
    assert block.tolist() == [[plain(HIT), plain(MISS)]]


# The query at the origin and the data at minus each difference: the
# emitted difference, query minus candidate, is the pinned vector exactly.
ORIGIN = np.zeros((1, 3))
DATA = -np.array([HIT, MISS])


def probe_rows(dims, impl=None):
    index = GridIndex.build(DATA, EPS, dims=dims)
    sink = PairFragments(1)
    patch = nullcontext() if impl is None else mock.patch.multiple(
        nk, resolve_kernel_tier=lambda tier: "numba",
        native_pair_kernels=lambda: {"dense": impl, "sparse": impl})
    with patch:
        run_probe(ORIGIN, index, EPS, sink, tier="numpy")
    return sorted(sink.concatenated()[1].tolist())


@pytest.mark.parametrize("dims", [None, (0, 1), (1, 2), (0, 2), (2,)])
@pytest.mark.parametrize("impl", [None, nk._pairs_sparse_impl,
                                  nk._pairs_dense_impl],
                         ids=["numpy", "sparse", "dense"])
def test_probe_keeps_the_hit_and_drops_the_miss(dims, impl):
    """Both tiers, over every grid: a reduced grid tests its non-indexed
    dims first, and still sums their squares in their place."""
    assert probe_rows(dims, impl) == [0]


def test_oracles_keep_the_hit_and_drop_the_miss():
    assert bruteforce_join(ORIGIN, DATA, EPS).result.values.tolist() == [0]
    sink = PairFragments(1)
    probe_cellwise(ORIGIN, GridIndex.build(DATA, EPS), sink)
    assert sink.concatenated()[1].tolist() == [0]


SELF = np.concatenate([ORIGIN, DATA])


def origin_partners(keys, values):
    return sorted(int(v) for k, v in zip(keys, values) if k == 0 and v != 0)


@pytest.mark.parametrize("unicomp", [False, True])
@pytest.mark.parametrize("dims", [None, (0, 1), (2,)])
def test_selfjoins_pair_the_origin_with_the_hit_only(unicomp, dims):
    index = GridIndex.build(SELF, EPS, dims=dims)
    sink = PairFragments(3)
    run_selfjoin(index, EPS, sink, unicomp=unicomp, tier="numpy")
    assert origin_partners(*sink.concatenated()) == [1]
    oracle = PairFragments(3)
    selfjoin_cellwise(index, oracle, unicomp=unicomp)
    assert origin_partners(*oracle.concatenated()) == [1]


def test_reference_joins_pair_the_origin_with_the_hit_only():
    brute = bruteforce_selfjoin(SELF, EPS).result
    assert origin_partners(brute.keys, brute.values) == [1]
    dense = DenseGridIndex.build(SELF, EPS).selfjoin()
    assert origin_partners(dense.keys, dense.values) == [1]
    ego = ego_join(SELF, EPS).result
    assert origin_partners(ego.keys, ego.values) == [1]
