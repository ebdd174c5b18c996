"""Unit tests for ResultSet, NeighborTable and the PairFragments sink."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.result import (
    NeighborTable,
    PairFragments,
    ResultSet,
    expand_mirrored,
    expanded_pairs,
    sort_pairs,
)


def make_result(pairs, n):
    return ResultSet.from_pairs(pairs, num_points=n)


class TestResultSetBasics:
    def test_empty(self):
        r = ResultSet.empty(5)
        assert r.num_pairs == 0
        assert r.neighbor_counts().tolist() == [0] * 5

    def test_from_pairs(self):
        r = make_result([(0, 1), (1, 0), (2, 2)], 3)
        assert r.num_pairs == 3
        assert r.num_points == 3

    def test_neighbor_counts(self):
        r = make_result([(0, 1), (0, 2), (2, 0)], 4)
        assert r.neighbor_counts().tolist() == [2, 0, 1, 0]

    def test_average_neighbors_excludes_self(self):
        r = make_result([(0, 0), (1, 1), (0, 1), (1, 0)], 2)
        assert r.average_neighbors() == pytest.approx(2.0)
        assert r.average_neighbors(exclude_self=True) == pytest.approx(1.0)

    def test_sort_orders_by_key_then_value(self):
        r = make_result([(2, 1), (0, 5), (0, 2), (2, 0)], 3)
        s = r.sort()
        assert s.keys.tolist() == [0, 0, 2, 2]
        assert s.values.tolist() == [2, 5, 0, 1]

    def test_merge(self):
        a = make_result([(0, 1)], 3)
        b = make_result([(1, 2), (2, 0)], 3)
        merged = ResultSet.merge([a, b])
        assert merged.num_pairs == 3

    def test_merge_requires_same_num_points(self):
        a = make_result([(0, 1)], 3)
        b = make_result([(0, 1)], 4)
        with pytest.raises(ValueError):
            ResultSet.merge([a, b])

    def test_merge_empty_list_raises(self):
        with pytest.raises(ValueError):
            ResultSet.merge([])


class TestResultSetPredicates:
    def test_canonical_pairs_deduplicates(self):
        r = make_result([(0, 1), (0, 1), (1, 0)], 2)
        assert r.canonical_pairs().shape == (2, 2)

    def test_same_pairs_as_ignores_order_and_duplicates(self):
        a = make_result([(0, 1), (1, 0)], 2)
        b = make_result([(1, 0), (0, 1), (0, 1)], 2)
        assert a.same_pairs_as(b)

    def test_same_pairs_as_detects_difference(self):
        a = make_result([(0, 1)], 3)
        b = make_result([(0, 2)], 3)
        assert not a.same_pairs_as(b)

    def test_is_symmetric(self):
        assert make_result([(0, 1), (1, 0)], 2).is_symmetric()
        assert not make_result([(0, 1)], 2).is_symmetric()

    def test_contains_all_self_pairs(self):
        assert make_result([(0, 0), (1, 1)], 2).contains_all_self_pairs()
        assert not make_result([(0, 0)], 2).contains_all_self_pairs()

    def test_without_self_pairs(self):
        r = make_result([(0, 0), (0, 1), (1, 1)], 2).without_self_pairs()
        assert r.num_pairs == 1
        assert r.keys.tolist() == [0]


class TestNeighborTable:
    def test_round_trip(self):
        r = make_result([(0, 1), (0, 2), (1, 0), (2, 0), (2, 2)], 3)
        table = r.to_neighbor_table()
        table.validate()
        assert table.neighbors_of(0).tolist() == [1, 2]
        assert table.neighbors_of(1).tolist() == [0]
        assert table.neighbors_of(2).tolist() == [0, 2]

    def test_counts_and_degree(self):
        table = make_result([(0, 1), (0, 2), (2, 0)], 3).to_neighbor_table()
        assert table.counts().tolist() == [2, 0, 1]
        assert table.degree(0) == 2
        assert table.degree(1) == 0

    def test_num_pairs(self):
        table = make_result([(0, 1), (1, 0)], 2).to_neighbor_table()
        assert table.num_pairs == 2

    def test_out_of_range_raises(self):
        table = make_result([(0, 1)], 2).to_neighbor_table()
        with pytest.raises(IndexError):
            table.neighbors_of(2)
        with pytest.raises(IndexError):
            table.neighbors_of(-1)

    def test_empty_table(self):
        table = ResultSet.empty(4).to_neighbor_table()
        table.validate()
        assert table.num_pairs == 0
        assert table.neighbors_of(3).size == 0

    def test_validate_catches_bad_offsets(self):
        table = NeighborTable(offsets=np.array([0, 2, 1]),
                              neighbors=np.array([0, 1]), num_points=2)
        with pytest.raises(AssertionError):
            table.validate()


@st.composite
def pair_arrays(draw):
    """Random (keys, values, num_rows) with duplicates and empty rows.

    Values may exceed ``num_rows``: probe results key by query row but hold
    data-side ids.
    """
    num_rows = draw(st.integers(1, 40))
    n_values = draw(st.integers(1, 2 * num_rows))
    n_pairs = draw(st.integers(0, 150))
    keys = draw(st.lists(st.integers(0, num_rows - 1), min_size=n_pairs,
                         max_size=n_pairs))
    values = draw(st.lists(st.integers(0, n_values - 1), min_size=n_pairs,
                           max_size=n_pairs))
    return (np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.int64),
            num_rows)


def lexsorted(keys, values):
    order = np.lexsort((values, keys))
    return keys[order], values[order]


class TestFusedKeySort:
    @given(pair_arrays())
    @settings(max_examples=100, deadline=None)
    def test_equals_lexsort(self, pairs):
        keys, values, num_rows = pairs
        expected_keys, expected_values = lexsorted(keys, values)
        got_keys, got_values = sort_pairs(keys, values, num_rows, keep_keys=True)
        assert np.array_equal(got_keys, expected_keys)
        assert np.array_equal(got_values, expected_values)
        sorted_set = ResultSet(keys=keys, values=values, num_points=num_rows).sort()
        assert np.array_equal(sorted_set.keys, expected_keys)
        assert np.array_equal(sorted_set.values, expected_values)

    @given(pair_arrays())
    @settings(max_examples=100, deadline=None)
    def test_csr_rows_equal_lexsort(self, pairs):
        keys, values, num_rows = pairs
        table = NeighborTable.from_pairs(keys, values, num_rows)
        _, expected_values = lexsorted(keys, values)
        assert np.array_equal(table.neighbors, expected_values)
        assert np.array_equal(table.counts(), np.bincount(keys, minlength=num_rows))

    def test_inputs_are_not_modified(self):
        keys = np.array([2, 0, 1, 0], dtype=np.int64)
        values = np.array([1, 3, 0, 2], dtype=np.int64)
        sort_pairs(keys, values, 3, keep_keys=True)
        assert keys.tolist() == [2, 0, 1, 0]
        assert values.tolist() == [1, 3, 0, 2]

    def test_lexsort_fallback_beyond_int64_fused_range(self):
        # With 2**32 rows the fused key would overflow int64 for these ids;
        # the result is only right if the lexsort fallback ran.
        big = 2 ** 32
        keys = np.array([big - 1, 5, big - 1, 5, 0], dtype=np.int64)
        values = np.array([big - 2, 7, 3, big - 1, 9], dtype=np.int64)
        got_keys, got_values = sort_pairs(keys, values, big, keep_keys=True)
        expected_keys, expected_values = lexsorted(keys, values)
        assert np.array_equal(got_keys, expected_keys)
        assert np.array_equal(got_values, expected_values)
        sorted_set = ResultSet(keys=keys, values=values, num_points=big).sort()
        assert np.array_equal(sorted_set.values, expected_values)


# --------------------------------------------------------------------------
# compact (mirror-flagged) fragments
# --------------------------------------------------------------------------
@st.composite
def flagged_fragments(draw):
    """Random fragments, flagged or not, int32 or int64 ids, spread over
    up to three sinks; returns ``(num_rows, [[(keys, values, twice)]])``.
    A self-pair is never flagged, as no kernel flags one."""
    num_rows = draw(st.integers(min_value=1, max_value=30))
    ids = st.integers(min_value=0, max_value=num_rows - 1)
    sinks = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        fragments = []
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            n = draw(st.integers(min_value=0, max_value=12))
            dtype = draw(st.sampled_from([np.int32, np.int64]))
            keys = np.asarray(draw(st.lists(ids, min_size=n, max_size=n)),
                              dtype=dtype)
            values = np.asarray(draw(st.lists(ids, min_size=n, max_size=n)),
                                dtype=dtype)
            twice = None
            if draw(st.booleans()):
                twice = np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                                 max_size=n)), dtype=bool)
                twice &= keys != values
            fragments.append((keys, values, twice))
        sinks.append(fragments)
    return num_rows, sinks


def interleaved(keys, values, twice):
    """The stream a fragment stands for: each flagged match, then its
    reverse (the emitter's order before fragments were kept compact)."""
    out = []
    for i in range(keys.shape[0]):
        out.append((int(keys[i]), int(values[i])))
        if twice is not None and twice[i]:
            out.append((int(values[i]), int(keys[i])))
    return out


def merged_sink(num_rows, sinks):
    merged = PairFragments(num_rows)
    for fragments in sinks:
        sink = PairFragments(num_rows)
        for fragment in fragments:
            sink.emit(*fragment)
        merged.extend(sink)
    return merged


class TestCompactFragments:
    @given(flagged_fragments())
    @settings(max_examples=150, deadline=None)
    def test_views_expand_in_stream_order(self, case):
        num_rows, sinks = case
        sink = merged_sink(num_rows, sinks)
        expected = [pair for fragments in sinks for fragment in fragments
                    for pair in interleaved(*fragment)]
        keys, values = sink.concatenated()
        assert keys.dtype == values.dtype == np.int64
        assert list(zip(keys.tolist(), values.tolist())) == expected
        walked = [(int(k), int(v)) for part_keys, part_values in sink.parts()
                  for k, v in zip(part_keys, part_values)]
        assert walked == expected
        assert sink.num_pairs == len(expected)
        result = sink.to_result_set()
        assert list(zip(result.keys.tolist(), result.values.tolist())) \
            == expected

    @given(flagged_fragments(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_compact_table_equals_expanded_table(self, case, include_self):
        num_rows, sinks = case
        sink = merged_sink(num_rows, sinks)
        keys, values = sink.concatenated()
        if not include_self:
            keep = keys != values
            keys, values = keys[keep], values[keep]
        expected = NeighborTable.from_pairs(keys, values, num_rows)
        compact_keys, compact_values, twice = sink.columns()
        got = NeighborTable.from_pairs(compact_keys, compact_values, num_rows,
                                       twice, include_self=include_self)
        if include_self:
            assert got.same_contents_as(sink.to_neighbor_table())
        assert got.same_contents_as(expected)
        assert got.offsets.dtype == got.neighbors.dtype == np.int64
        got.validate()

    @given(flagged_fragments())
    @settings(max_examples=100, deadline=None)
    def test_compact_is_what_the_views_expand(self, case):
        num_rows, sinks = case
        sink = merged_sink(num_rows, sinks)
        keys, values, twice = sink.compact()
        assert keys.shape == values.shape
        assert twice is None or twice.shape == keys.shape
        expected_keys, expected_values = sink.concatenated()
        got_keys, got_values = expand_mirrored(keys, values, twice)
        assert np.array_equal(got_keys, expected_keys)
        assert np.array_equal(got_values, expected_values)
        assert expanded_pairs(keys, values, twice) == sink.num_pairs

    def test_int32_ids_fuse_without_overflow(self):
        # 70,000 rows: key << 17 passes 2**31, so the fused key is only
        # right if the ids were upcast before the shift.
        n = 70_000
        keys = np.array([n - 1, 3, n - 2], dtype=np.int32)
        values = np.array([n - 2, n - 1, n - 1], dtype=np.int32)
        twice = np.array([True, True, False])
        table = NeighborTable.from_pairs([keys], [values], n, [twice])
        expected = NeighborTable.from_pairs(
            *expand_mirrored(keys.astype(np.int64), values.astype(np.int64),
                             twice), n)
        assert table.same_contents_as(expected)
        assert table.neighbors_of(n - 1).tolist() == [3, n - 2]

    def test_unflagged_fragments_are_stored_unflagged(self):
        sink = PairFragments(4)
        sink.emit(np.array([0, 1]), np.array([1, 2]),
                  np.zeros(2, dtype=bool))
        assert sink.columns()[2] == [None]
        assert sink.compact()[2] is None
        assert sink.num_pairs == 2

    def test_flag_length_must_match(self):
        with pytest.raises(ValueError):
            PairFragments(3).emit(np.array([0, 1]), np.array([1, 2]),
                                  np.array([True]))
