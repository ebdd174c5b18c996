"""Unit tests for the UNICOMP selection rule (Algorithm 2)."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro.core import unicomp as uc
from repro.core.gridindex import GridIndex
from repro.core.neighbors import all_neighbor_offsets


class TestHighestNonzeroDim:
    def test_home_offset(self):
        assert uc.highest_nonzero_dim(np.array([0, 0, 0])) == -1

    def test_single_dimension(self):
        assert uc.highest_nonzero_dim(np.array([1, 0, 0])) == 0
        assert uc.highest_nonzero_dim(np.array([0, 0, -1])) == 2

    def test_multiple_dimensions(self):
        assert uc.highest_nonzero_dim(np.array([1, -1, 0])) == 1
        assert uc.highest_nonzero_dim(np.array([-1, 1, 1])) == 2


class TestEvaluates:
    def test_home_always_evaluated(self):
        assert uc.unicomp_evaluates(np.array([2, 3]), np.array([0, 0]))
        assert uc.unicomp_evaluates(np.array([1, 4]), np.array([0, 0]))

    def test_odd_coordinate_evaluates(self):
        # Offset differs only in dim 0: the rule checks coordinate 0's parity.
        assert uc.unicomp_evaluates(np.array([3, 2]), np.array([1, 0]))
        assert not uc.unicomp_evaluates(np.array([2, 2]), np.array([1, 0]))

    def test_highest_dim_governs(self):
        # Offset (1, 1): highest differing dim is 1, so dim 1's parity decides.
        assert uc.unicomp_evaluates(np.array([2, 3]), np.array([1, 1]))
        assert not uc.unicomp_evaluates(np.array([3, 2]), np.array([1, 1]))

    def test_exactly_one_of_each_adjacent_pair(self):
        """For every adjacent cell pair exactly one side evaluates the other."""
        rng = np.random.default_rng(0)
        for n_dims in (1, 2, 3, 4):
            offsets = all_neighbor_offsets(n_dims, include_home=False)
            for _ in range(50):
                a = rng.integers(0, 20, size=n_dims)
                for offset in offsets:
                    b = a + offset
                    forward = uc.unicomp_evaluates(a, offset)
                    backward = uc.unicomp_evaluates(b, -offset)
                    assert forward != backward, (a, offset)


class TestCandidateCells:
    def _dense_index(self, n_dims: int) -> GridIndex:
        """A grid whose cells are all non-empty (one point per cell)."""
        axes = [np.arange(4) + 0.5 for _ in range(n_dims)]
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=1)
        return GridIndex.build(pts, 1.0)

    @pytest.mark.parametrize("n_dims", [2, 3])
    def test_candidates_match_parity_rule(self, n_dims):
        index = self._dense_index(n_dims)
        offsets = all_neighbor_offsets(n_dims, include_home=False)
        for h in range(index.num_nonempty_cells):
            coords = index.cell_coords[h]
            got = {tuple(c.tolist())
                   for c in uc.unicomp_candidate_cells(coords, index.masks,
                                                       index.num_cells)}
            expected = set()
            for offset in offsets:
                target = coords + offset
                if np.any(target < 0) or np.any(target >= index.num_cells):
                    continue
                # Only coordinates present in the masks are reachable.
                if not all(int(target[j]) in index.masks[j] for j in range(n_dims)):
                    continue
                if uc.unicomp_evaluates(coords, offset):
                    expected.add(tuple(int(t) for t in target))
            assert got == expected

    def test_candidates_exclude_home_cell(self):
        index = self._dense_index(2)
        for h in range(index.num_nonempty_cells):
            coords = index.cell_coords[h]
            cells = [tuple(c.tolist())
                     for c in uc.unicomp_candidate_cells(coords, index.masks,
                                                         index.num_cells)]
            assert tuple(coords.tolist()) not in cells

    def test_all_even_cell_has_no_candidates(self):
        index = self._dense_index(3)
        # Find a cell with all-even coordinates away from the boundary.
        for h in range(index.num_nonempty_cells):
            coords = index.cell_coords[h]
            if np.all(coords % 2 == 0):
                cells = list(uc.unicomp_candidate_cells(coords, index.masks,
                                                        index.num_cells))
                assert cells == []
                break
        else:  # pragma: no cover - the dense grid always has such a cell
            pytest.fail("no all-even cell found")


class TestExpectedFraction:
    def test_tends_to_half(self):
        assert uc.expected_pair_fraction(1) == pytest.approx((1 + 1) / 3)
        assert uc.expected_pair_fraction(6) == pytest.approx(
            (1 + (3 ** 6 - 1) / 2) / 3 ** 6)
        assert abs(uc.expected_pair_fraction(8) - 0.5) < 0.01
