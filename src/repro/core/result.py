"""Result containers for the self-join and the CSR-native result pipeline.

The GPU kernel of the paper stores results as key/value pairs — the key is
the query point id and the value is a point found within ε (Algorithm 1,
line 17) — which are sorted after the kernel and transferred to the host.
:class:`ResultSet` models that pair list; :class:`NeighborTable` is the
CSR-style neighbor-list view that downstream algorithms (e.g. DBSCAN in
:mod:`repro.apps.dbscan`) consume.

The CSR-native pipeline works the other way around: kernels emit their pair
fragments into a :class:`PairFragments` sink, and the sink finalizes either
into a :class:`NeighborTable` directly (neighbor ids ordered by one in-place
sort of a fused ``key << shift | value`` integer, per-point counts via
``bincount`` of the sorted keys, prefix-sum offsets; no sorted pair list is
materialized) or into a :class:`ResultSet` (plain concatenation, the legacy
pair-list view).  UNICOMP's mirrored matches stay compact in the sink, one
entry and a flag per match, and their reverse pairs are made only inside
that fused sort (:meth:`NeighborTable.from_pairs`); every other view expands
them in stream order.  ``ResultSet.sort`` uses the same fused-key sort
(:func:`sort_pairs`).  ``ResultSet`` stays the thin pair-list view for API
compatibility and can be derived from a ``NeighborTable`` without copying
the neighbor ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

def sort_pairs(keys: np.ndarray, values: np.ndarray, num_rows: int,
               keep_keys: bool = False,
               ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Order key/value id pairs by (key, value) — the paper's post-kernel sort.

    The pairs are fused into one ``int64`` per pair, ``key << shift |
    value``, where ``2 ** shift`` is the smallest power of two above
    ``num_rows - 1`` and every value, and that array is sorted in place
    once; the values are then recovered in place with a mask (a shift gives
    the keys).  A power-of-two radix makes the split a mask instead of an
    integer division, about ten times cheaper.  This needs a single
    pair-sized temporary, where a two-key ``np.lexsort`` needs an index
    array plus the gathered output.  When the fused key could reach
    ``2 ** 63`` (past ``int64``) the pairs are ordered with ``np.lexsort``
    instead; both give identical arrays.

    Ids must be non-negative.  Returns ``(sorted_keys, sorted_values)``;
    ``sorted_keys`` is ``None`` unless ``keep_keys`` is set.
    """
    return _sort_fragments([(np.asarray(keys, dtype=np.int64),
                             np.asarray(values, dtype=np.int64), None)],
                           num_rows, keep_keys)


_Fragment = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


def expand_mirrored(keys: np.ndarray, values: np.ndarray,
                    twice: Optional[np.ndarray],
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs a compact fragment stands for, in stream order.

    Where ``twice[i]`` is set the match ``(keys[i], values[i])`` is followed
    by its reverse ``(values[i], keys[i])``; unflagged fragments come back
    as they are.
    """
    if twice is None:
        return keys, values
    slots = twice + 1
    out_keys = keys.repeat(slots)
    out_values = values.repeat(slots)
    second = slots.cumsum()[twice] - 1
    out_keys[second] = values[twice]
    out_values[second] = keys[twice]
    return out_keys, out_values


def expanded_pairs(keys: np.ndarray, values: np.ndarray,
                   twice: Optional[np.ndarray] = None) -> int:
    """How many pairs a compact fragment stands for."""
    return int(keys.shape[0]) + (0 if twice is None
                                 else int(np.count_nonzero(twice)))


def _directed(fragments: Sequence[_Fragment]
              ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every fragment's ``(keys, values)``, then its flagged reverses."""
    for keys, values, twice in fragments:
        yield keys, values
        if twice is not None:
            mirrored = np.flatnonzero(twice)
            yield values.take(mirrored), keys.take(mirrored)


def _sort_fragments(fragments: Sequence[_Fragment], num_rows: int,
                    keep_keys: bool = False, row_counts: bool = False):
    """The fused-key sort of :func:`sort_pairs`, over compact fragments.

    The pairs are every fragment's ``(keys, values)`` plus, for each
    flagged match, its reverse; they are fused straight into one ``int64``
    array, fragment by fragment (ids are upcast before the shift, so
    ``int32`` ids do not overflow), and sorted once.  Returns
    ``(sorted_keys, sorted_values)``, or ``(row_counts, sorted_values)``
    with ``row_counts`` set (``bincount`` of the keys, ``num_rows`` long).
    """
    total = sum(expanded_pairs(*fragment) for fragment in fragments)
    empty = np.empty(0, dtype=np.int64)
    if total == 0:
        head = np.zeros(num_rows, dtype=np.int64) if row_counts \
            else (empty.copy() if keep_keys else None)
        return head, empty
    key_max = value_max = 0
    for keys, values, twice in fragments:
        if keys.shape[0]:
            high_key, high_value = int(keys.max()), int(values.max())
            if twice is not None:  # its reverses swap keys and values
                high_key = high_value = max(high_key, high_value)
            key_max = max(key_max, high_key)
            value_max = max(value_max, high_value)
    shift = max(int(num_rows) - 1, value_max).bit_length()
    key_span = max(int(num_rows), key_max + 1)
    if key_span >= 2 ** (63 - shift):  # the fused key would overflow int64
        directed = list(_directed(fragments))
        keys = np.concatenate([k for k, _ in directed]).astype(np.int64)
        values = np.concatenate([v for _, v in directed]).astype(np.int64)
        order = np.lexsort((values, keys))
        keys = keys[order]
        head = np.bincount(keys, minlength=num_rows) if row_counts \
            else (keys if keep_keys else None)
        return head, values[order]
    fused = np.empty(total, dtype=np.int64)
    pos = 0
    for keys, values in _directed(fragments):
        out = fused[pos:pos + keys.shape[0]]
        np.left_shift(keys, shift, out=out, dtype=np.int64)
        out |= values
        pos += keys.shape[0]
    fused.sort()
    head = None
    if row_counts:
        head = np.bincount(fused >> shift, minlength=num_rows)
    elif keep_keys:
        head = fused >> shift
    np.bitwise_and(fused, (1 << shift) - 1, out=fused)
    return head, fused


def _without_self_pairs(keys: np.ndarray, values: np.ndarray,
                        twice: Optional[np.ndarray]) -> _Fragment:
    """A compact fragment without its ``(p, p)`` pairs."""
    keep = keys != values
    return keys[keep], values[keep], None if twice is None else twice[keep]


@dataclass
class ResultSet:
    """Self-join result as parallel key/value arrays of point ids.

    Attributes
    ----------
    keys:
        Query point ids (``int64``).
    values:
        Neighbor point ids (``int64``), aligned with ``keys``.
    num_points:
        Number of points in the joined dataset; retained so that an empty
        result can still be converted to a :class:`NeighborTable`.
    """

    keys: np.ndarray
    values: np.ndarray
    num_points: int
    _sorted: bool = field(default=False, repr=False)

    # ----------------------------------------------------------- constructors
    @classmethod
    def empty(cls, num_points: int) -> "ResultSet":
        """An empty result over ``num_points`` points."""
        return cls(keys=np.empty(0, dtype=np.int64),
                   values=np.empty(0, dtype=np.int64),
                   num_points=int(num_points),
                   _sorted=True)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], num_points: int) -> "ResultSet":
        """Build from an iterable of ``(query_id, neighbor_id)`` tuples."""
        pair_list = list(pairs)
        if not pair_list:
            return cls.empty(num_points)
        arr = np.asarray(pair_list, dtype=np.int64)
        return cls(keys=arr[:, 0].copy(), values=arr[:, 1].copy(),
                   num_points=int(num_points))

    @classmethod
    def from_neighbor_table(cls, table: "NeighborTable") -> "ResultSet":
        """Thin pair-list view over a CSR :class:`NeighborTable`.

        The keys are expanded from the offsets array; the neighbor array is
        shared (not copied).  The result is sorted by construction because
        CSR rows are stored in key order with sorted neighbor ids.
        """
        keys = np.repeat(np.arange(table.num_points, dtype=np.int64),
                         table.counts())
        return cls(keys=keys, values=table.neighbors, num_points=table.num_points,
                   _sorted=True)

    @classmethod
    def merge(cls, parts: Sequence["ResultSet"]) -> "ResultSet":
        """Concatenate several batch results into one (used by the batcher)."""
        if not parts:
            raise ValueError("merge requires at least one ResultSet")
        num_points = parts[0].num_points
        for part in parts:
            if part.num_points != num_points:
                raise ValueError("all merged ResultSets must cover the same dataset")
        keys = np.concatenate([p.keys for p in parts]) if parts else np.empty(0, np.int64)
        values = np.concatenate([p.values for p in parts]) if parts else np.empty(0, np.int64)
        return cls(keys=keys.astype(np.int64), values=values.astype(np.int64),
                   num_points=num_points)

    # -------------------------------------------------------------- properties
    @property
    def num_pairs(self) -> int:
        """Total number of (ordered) result pairs, including self-pairs if present."""
        return int(self.keys.shape[0])

    def neighbor_counts(self) -> np.ndarray:
        """Number of neighbors per query point (length ``num_points``)."""
        return np.bincount(self.keys, minlength=self.num_points).astype(np.int64)

    def average_neighbors(self, exclude_self: bool = False) -> float:
        """Average neighbors per point; optionally excluding the self-pair.

        The paper's Figure 1 reports "Avg. Neighbors", which excludes the
        trivial self-match; pass ``exclude_self=True`` to match that
        convention when self-pairs are present.
        """
        if self.num_points == 0:
            return 0.0
        total = self.num_pairs
        if exclude_self:
            total -= int(np.count_nonzero(self.keys == self.values))
        return total / self.num_points

    # ---------------------------------------------------------------- methods
    def sort(self) -> "ResultSet":
        """Return a copy sorted by (key, value) — the post-kernel sort of the paper.

        See :func:`sort_pairs` for the fused-key sort.
        """
        keys, values = sort_pairs(self.keys, self.values, self.num_points,
                                  keep_keys=True)
        return ResultSet(keys=keys, values=values, num_points=self.num_points,
                         _sorted=True)

    def canonical_pairs(self) -> np.ndarray:
        """Sorted, de-duplicated ``(num_pairs, 2)`` array of ordered pairs.

        Canonical form used to compare algorithm outputs in tests; duplicate
        emissions (which a buggy kernel could produce) are collapsed so
        equality is a strict correctness statement.
        """
        if self.num_pairs == 0:
            return np.empty((0, 2), dtype=np.int64)
        pairs = np.stack([self.keys, self.values], axis=1)
        return np.unique(pairs, axis=0)

    def same_pairs_as(self, other: "ResultSet") -> bool:
        """True when both results contain exactly the same set of ordered pairs."""
        return bool(np.array_equal(self.canonical_pairs(), other.canonical_pairs()))

    def is_symmetric(self) -> bool:
        """True when for every pair (p, q) the mirrored pair (q, p) is present."""
        pairs = self.canonical_pairs()
        mirrored = np.unique(pairs[:, ::-1], axis=0)
        return bool(np.array_equal(pairs, mirrored))

    def contains_all_self_pairs(self) -> bool:
        """True when every point reports itself as a neighbor (dist 0 <= eps)."""
        self_keys = self.keys[self.keys == self.values]
        return np.unique(self_keys).shape[0] == self.num_points

    def without_self_pairs(self) -> "ResultSet":
        """Copy with the (p, p) pairs removed."""
        keep = self.keys != self.values
        return ResultSet(keys=self.keys[keep], values=self.values[keep],
                         num_points=self.num_points)

    def to_neighbor_table(self) -> "NeighborTable":
        """Convert to a CSR neighbor table (see :meth:`NeighborTable.from_pairs`)."""
        return NeighborTable.from_pairs(self.keys, self.values, self.num_points)


@dataclass
class NeighborTable:
    """CSR neighbor-list view of a self-join result.

    ``neighbors[offsets[i]:offsets[i+1]]`` are the neighbors of point ``i``,
    sorted by id.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    num_points: int

    @classmethod
    def from_pairs(cls, keys, values, num_points: int, twice=None, *,
                   include_self: bool = True) -> "NeighborTable":
        """Build the CSR table directly from (possibly unordered) pairs.

        This is the CSR-native finalization: the neighbor ids are the
        values ordered by (key, value) with one in-place sort of the fused
        pair key (see :func:`sort_pairs`), the per-point counts are one
        ``bincount`` of the sorted keys, and the offsets are their prefix
        sum.  Rows therefore hold their neighbor ids in ascending order.

        ``keys`` and ``values`` are parallel id arrays, or parallel lists of
        per-fragment arrays (a :class:`PairFragments` sink's compact
        fragments, finalized without concatenating them).  ``twice`` (an
        array, or a list of arrays and ``None`` per fragment) flags the
        matches that also stand for their reverse pair: the reverses are
        made only inside the fused sort.  ``include_self=False`` drops the
        ``(p, p)`` pairs first; a self-pair is never flagged, so the
        reverses need no filter.
        """
        if isinstance(keys, list) \
                and all(isinstance(part, np.ndarray) for part in keys):
            twice = [None] * len(keys) if twice is None else twice
            fragments = list(zip(keys, values, twice))
        else:
            fragments = [(np.asarray(keys, dtype=np.int64),
                          np.asarray(values, dtype=np.int64), twice)]
        if not include_self:
            fragments = [_without_self_pairs(*fragment)
                         for fragment in fragments]
        counts, neighbors = _sort_fragments(fragments, num_points,
                                            row_counts=True)
        offsets = np.zeros(num_points + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets=offsets, neighbors=neighbors, num_points=int(num_points))

    def neighbors_of(self, i: int) -> np.ndarray:
        """Neighbor ids of point ``i``."""
        if i < 0 or i >= self.num_points:
            raise IndexError(f"point id {i} out of range [0, {self.num_points})")
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]

    def counts(self) -> np.ndarray:
        """Neighbors per point."""
        return np.diff(self.offsets)

    @property
    def num_pairs(self) -> int:
        """Total number of stored (ordered) pairs."""
        return int(self.neighbors.shape[0])

    def degree(self, i: int) -> int:
        """Number of neighbors of point ``i``."""
        return int(self.offsets[i + 1] - self.offsets[i])

    def to_result_set(self) -> ResultSet:
        """Legacy pair-list view of this table (see :meth:`ResultSet.from_neighbor_table`)."""
        return ResultSet.from_neighbor_table(self)

    def same_contents_as(self, other: "NeighborTable") -> bool:
        """True when both tables store identical offsets and neighbor arrays."""
        return (self.num_points == other.num_points
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.neighbors, other.neighbors))

    def validate(self) -> None:
        """Check CSR invariants (monotone offsets, id bounds)."""
        assert self.offsets.shape[0] == self.num_points + 1
        assert self.offsets[0] == 0
        assert np.all(np.diff(self.offsets) >= 0), "offsets must be non-decreasing"
        assert int(self.offsets[-1]) == self.neighbors.shape[0]
        if self.neighbors.size:
            assert self.neighbors.min() >= 0
            assert self.neighbors.max() < self.num_points


class PairFragments:
    """Append-only sink for the pair fragments a kernel emits.

    Kernels call :meth:`emit` once per vectorized fragment (per offset, per
    cell, or per chunk); nothing is concatenated until a consumer asks for a
    finalized container.  The same sink type is used for self-joins and for
    bipartite probes (where the "key" is the probe-side row id), which gives
    the batching executor one uniform merge path for both join types.

    A fragment may be *compact*: an optional ``twice`` flag per match marks
    the UNICOMP matches whose reverse pair follows them in the stream, and
    the sink stores each such match once.  The stream is defined as the
    expanded sequence: :attr:`num_pairs`, :meth:`parts`,
    :meth:`concatenated` and :meth:`to_result_set` all count or expand the
    reverses in place (each right after its match), while
    :meth:`to_neighbor_table` and the shard wire
    (:meth:`compact`) keep the fragments compact, and the reverse copies
    are made only inside the CSR finalize's fused sort.  Ids may be
    ``int32`` or ``int64``.
    """

    __slots__ = ("num_rows", "_key_parts", "_val_parts", "_twice_parts",
                 "_num_pairs")

    def __init__(self, num_rows: int) -> None:
        self.num_rows = int(num_rows)
        self._key_parts: List[np.ndarray] = []
        self._val_parts: List[np.ndarray] = []
        self._twice_parts: List[Optional[np.ndarray]] = []
        self._num_pairs = 0

    @property
    def num_pairs(self) -> int:
        """Pairs emitted so far (a flagged match counts with its reverse)."""
        return self._num_pairs

    def emit(self, keys: np.ndarray, values: np.ndarray,
             twice: Optional[np.ndarray] = None) -> None:
        """Append one fragment of parallel key/value id arrays.

        ``twice`` (bool, optional) flags the matches followed by their
        reverse; a self-pair must not be flagged.
        """
        if keys.shape[0] != values.shape[0] or (
                twice is not None and twice.shape[0] != keys.shape[0]):
            raise ValueError(
                "keys, values and twice must have the same length")
        if keys.shape[0] == 0:
            return
        pairs = expanded_pairs(keys, values, twice)
        self._key_parts.append(keys)
        self._val_parts.append(values)
        self._twice_parts.append(twice if pairs > keys.shape[0] else None)
        self._num_pairs += pairs

    def extend(self, other: "PairFragments") -> None:
        """Absorb another sink's fragments (batch merge)."""
        if other.num_rows != self.num_rows:
            raise ValueError("merged sinks must cover the same row space")
        self._key_parts.extend(other._key_parts)
        self._val_parts.extend(other._val_parts)
        self._twice_parts.extend(other._twice_parts)
        self._num_pairs += other._num_pairs

    def columns(self) -> Tuple[List[np.ndarray], List[np.ndarray],
                               List[Optional[np.ndarray]]]:
        """The compact fragments as parallel lists ``(keys, values, twice)``
        (``twice`` entries are ``None`` for unflagged fragments), ready for
        :meth:`NeighborTable.from_pairs`."""
        return (list(self._key_parts), list(self._val_parts),
                list(self._twice_parts))

    def parts(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate the emitted fragments as expanded ``(keys, values)``.

        Lets bounded-memory consumers (the out-of-core result digest, for
        one) walk the pairs without the O(num_pairs) concatenation copy of
        :meth:`concatenated`; only a flagged fragment is copied, to expand.
        """
        return (expand_mirrored(*fragment) for fragment in
                zip(self._key_parts, self._val_parts, self._twice_parts))

    def compact(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Flat compact ``(keys, values, twice)`` (``twice`` is ``None``
        when no match is flagged): what a shard ships."""
        if not self._key_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), None
        twice = None
        if any(t is not None for t in self._twice_parts):
            twice = np.concatenate([
                np.zeros(k.shape[0], dtype=bool) if t is None else t
                for k, t in zip(self._key_parts, self._twice_parts)])
        return (np.concatenate(self._key_parts),
                np.concatenate(self._val_parts), twice)

    def concatenated(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flat expanded ``(keys, values)`` int64 arrays (no sort)."""
        keys, values, twice = self.compact()
        keys, values = expand_mirrored(keys.astype(np.int64, copy=False),
                                       values.astype(np.int64, copy=False),
                                       twice)
        return keys, values

    def to_result_set(self) -> ResultSet:
        """Finalize as the legacy pair-list container."""
        keys, values = self.concatenated()
        return ResultSet(keys=keys, values=values, num_points=self.num_rows)

    def to_neighbor_table(self) -> NeighborTable:
        """Finalize CSR-natively from the compact fragments (see
        :meth:`NeighborTable.from_pairs`)."""
        keys, values, twice = self.columns()
        return NeighborTable.from_pairs(keys, values, self.num_rows, twice)
