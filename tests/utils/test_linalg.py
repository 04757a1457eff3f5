"""Unit tests for :mod:`repro.utils.linalg`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils import linalg


class TestSingularValueHelpers:
    def test_normalized_singular_values_max_is_one(self, synthetic_low_rank_matrix):
        values = linalg.normalized_singular_values(synthetic_low_rank_matrix)
        assert values[0] == pytest.approx(1.0)
        assert np.all(np.diff(values) <= 1e-12)

    def test_relative_energy_full_count_is_one(self, synthetic_low_rank_matrix):
        count = min(synthetic_low_rank_matrix.shape)
        assert linalg.relative_energy(synthetic_low_rank_matrix, count) == pytest.approx(1.0)

    def test_relative_energy_monotone_in_count(self, synthetic_low_rank_matrix):
        energies = [
            linalg.relative_energy(synthetic_low_rank_matrix, k) for k in range(1, 8)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(energies, energies[1:]))


class TestSafeSolve:
    def test_regular_system(self):
        lhs = np.array([[2.0, 0.0], [0.0, 4.0]])
        rhs = np.array([2.0, 8.0])
        np.testing.assert_allclose(linalg.safe_solve(lhs, rhs), [1.0, 2.0])

    def test_singular_system_falls_back(self):
        lhs = np.zeros((2, 2))
        rhs = np.array([1.0, 1.0])
        solution = linalg.safe_solve(lhs, rhs)
        assert np.all(np.isfinite(solution))


class TestProximalOperators:

    def test_singular_value_threshold_reduces_rank(self, rng):
        matrix = rng.normal(size=(6, 6))
        shrunk = linalg.singular_value_threshold(matrix, 1e6)
        np.testing.assert_allclose(shrunk, np.zeros_like(matrix), atol=1e-9)

    def test_singular_value_threshold_zero_is_identity(self, rng):
        matrix = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            linalg.singular_value_threshold(matrix, 0.0), matrix, atol=1e-10
        )

    def test_l21_shrink_zeroes_small_columns(self):
        matrix = np.array([[0.1, 3.0], [0.1, 4.0]])
        shrunk = linalg.l21_column_shrink(matrix, 1.0)
        np.testing.assert_allclose(shrunk[:, 0], [0.0, 0.0])
        assert np.linalg.norm(shrunk[:, 1]) == pytest.approx(4.0)

    @given(
        hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_l21_shrink_never_increases_column_norms(self, matrix, threshold):
        shrunk = linalg.l21_column_shrink(matrix, threshold)
        original_norms = np.linalg.norm(matrix, axis=0)
        new_norms = np.linalg.norm(shrunk, axis=0)
        assert np.all(new_norms <= original_norms + 1e-9)


class TestStackedRankSolve:
    def make_stack(self, rng, batch, rank):
        lhs = rng.normal(size=(batch, rank, rank))
        lhs = lhs @ np.transpose(lhs, (0, 2, 1)) + 0.2 * np.eye(rank)
        rhs = rng.normal(size=(batch, rank))
        return lhs, rhs

    def test_heterogeneous_stacks_match_separate_solves(self, rng):
        systems = [
            self.make_stack(rng, batch, rank)
            for batch, rank in [(7, 3), (4, 5), (9, 2), (5, 3)]
        ]
        stacked = linalg.stacked_rank_solve(systems)
        assert len(stacked) == 4
        for (lhs, rhs), solution in zip(systems, stacked):
            expected = linalg.batched_safe_solve(lhs, rhs)
            assert solution.shape == rhs.shape
            # Bit-exact per stack, including the two rank-3 stacks sharing
            # one concatenated solve.
            np.testing.assert_array_equal(solution, expected)

    def test_unknown_strategy_rejected(self, rng):
        """There is one way to stack ranks (grouping, never padding): the
        old ``strategy`` switch is gone and must stay gone."""
        with pytest.raises(TypeError, match="strategy"):
            linalg.stacked_rank_solve([self.make_stack(rng, 2, 2)], strategy="pad")
        assert not hasattr(linalg, "pad_rank_stack")

    def test_single_stack_short_circuits(self, rng):
        lhs, rhs = self.make_stack(rng, 5, 4)
        [solution] = linalg.stacked_rank_solve([(lhs, rhs)])
        np.testing.assert_array_equal(solution, linalg.batched_safe_solve(lhs, rhs))

    def test_empty_input(self):
        assert linalg.stacked_rank_solve([]) == []

    def test_singular_slice_falls_back(self, rng):
        good_lhs, good_rhs = self.make_stack(rng, 3, 2)
        singular = (np.zeros((1, 4, 4)), np.ones((1, 4)))
        solutions = linalg.stacked_rank_solve([(good_lhs, good_rhs), singular])
        np.testing.assert_allclose(
            solutions[0], linalg.batched_safe_solve(good_lhs, good_rhs), atol=1e-12
        )
        assert np.all(np.isfinite(solutions[1]))

    def test_singular_stack_does_not_perturb_same_rank_cotenant(self, rng):
        """A singular slice in one site's stack must leave an equal-rank
        co-tenant's solutions bit-identical to its standalone solve."""
        good_lhs, good_rhs = self.make_stack(rng, 5, 3)
        singular = (np.zeros((2, 3, 3)), np.ones((2, 3)))
        solutions = linalg.stacked_rank_solve([(good_lhs, good_rhs), singular])
        np.testing.assert_array_equal(
            solutions[0], linalg.batched_safe_solve(good_lhs, good_rhs)
        )
        assert np.all(np.isfinite(solutions[1]))

    def test_bad_shapes_rejected(self, rng):
        good = self.make_stack(rng, 2, 3)
        with pytest.raises(ValueError):
            linalg.stacked_rank_solve([good, (np.zeros((2, 3, 4)), np.zeros((2, 3)))])
        with pytest.raises(ValueError):
            linalg.stacked_rank_solve([good, (np.zeros((2, 3, 3)), np.zeros((3, 3)))])
