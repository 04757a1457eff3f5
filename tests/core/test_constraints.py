"""Unit tests for :mod:`repro.core.constraints` (matrices T, G, H)."""

import numpy as np
import pytest

from repro.core.constraints import (
    continuity_matrix,
    degree_matrix,
    relationship_matrix,
    similarity_matrix,
)


class TestRelationshipMatrix:
    def test_3x3_matches_paper_example(self):
        expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(relationship_matrix(3), expected)

    def test_symmetric(self):
        t = relationship_matrix(7)
        np.testing.assert_allclose(t, t.T)

    def test_row_sums_are_neighbour_counts(self):
        t = relationship_matrix(5)
        np.testing.assert_allclose(t.sum(axis=0), [1.0, 2.0, 2.0, 2.0, 1.0])

    def test_rejects_small_width(self):
        with pytest.raises(ValueError):
            relationship_matrix(1)


class TestDegreeMatrix:
    def test_3x3_matches_paper_example(self):
        expected = np.diag([-1.0, -2.0, -1.0])
        np.testing.assert_allclose(degree_matrix(3), expected)

    def test_diagonal_only(self):
        d = degree_matrix(6)
        np.testing.assert_allclose(d, np.diag(np.diag(d)))


class TestContinuityMatrix:
    def test_without_midpoint_adjustment_matches_paper_example(self):
        # Eq. (14) in the paper: the column-normalised (T + D) for N/M = 3.
        expected = np.array(
            [[1.0, -0.5, 0.0], [-1.0, 1.0, -1.0], [0.0, -0.5, 1.0]]
        )
        g = continuity_matrix(3, midpoint_adjustment=False)
        np.testing.assert_allclose(np.abs(g), np.abs(expected))
        np.testing.assert_allclose(np.abs(g).sum(axis=0), [2.0, 2.0, 2.0])

    def test_midpoint_adjustment_integer_case(self):
        # N/M = 3 gives an integer midpoint p = 2 (1-based), i.e. column 1.
        g = continuity_matrix(3, midpoint_adjustment=True)
        assert g[1, 1] == 0.0
        assert g[2, 1] == 1.0
        assert g[0, 1] == -1.0

    def test_midpoint_adjustment_non_integer_case(self):
        # N/M = 4 gives a non-integer midpoint: columns 1 and 2 get stencils.
        g = continuity_matrix(4, midpoint_adjustment=True)
        assert g[1, 1] == 0.0
        assert g[2, 2] == 0.0

    def test_constant_row_annihilated_off_midpoint(self):
        # A perfectly smooth (constant) stripe should produce near-zero
        # penalty in the non-midpoint columns of X_D G.
        g = continuity_matrix(5, midpoint_adjustment=False)
        row = np.full((1, 5), 7.0)
        product = row @ g
        np.testing.assert_allclose(product, np.zeros_like(product), atol=1e-9)

    def test_rejects_small_width(self):
        with pytest.raises(ValueError):
            continuity_matrix(1)


class TestSimilarityMatrix:
    def test_structure(self):
        h = similarity_matrix(4)
        np.testing.assert_allclose(np.diag(h), np.ones(4))
        np.testing.assert_allclose(np.diag(h, -1), -np.ones(3))
        assert h[0, 1] == 0.0

    def test_identical_rows_give_zero_differences(self):
        h = similarity_matrix(3)
        xd = np.tile(np.array([[1.0, 2.0, 3.0]]), (3, 1))
        differences = h @ xd
        np.testing.assert_allclose(differences[1:], np.zeros((2, 3)))

    def test_rejects_single_link(self):
        with pytest.raises(ValueError):
            similarity_matrix(1)
