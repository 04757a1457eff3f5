"""Unit tests for the basic regularized SVD completion (Eq. 11).

The basic RSVD is Algorithm 1 with both constraints off: ``self_augmented_rsvd``
under :data:`BASIC`, as Fig. 16's "RSVD" row runs it.
"""

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig, self_augmented_rsvd

BASIC = dict(use_reference_constraint=False, use_structure_constraint=False)
LOCATIONS_PER_LINK = 3


def make_low_rank(rng, rows=8, columns=24, rank=3, offset=-60.0):
    left = rng.normal(size=(rows, rank))
    right = rng.normal(size=(columns, rank))
    return offset + left @ right.T


def basic_rsvd(observed, mask, rng=None, **config):
    return self_augmented_rsvd(
        observed,
        mask,
        LOCATIONS_PER_LINK,
        config=SelfAugmentedConfig(**config, **BASIC),
        rng=rng,
    )


class TestRSVDConfig:
    def test_defaults_valid(self):
        SelfAugmentedConfig(**BASIC)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"regularization": -1.0},
            {"max_iterations": 0},
            {"tolerance": 0.0},
            {"init_scale": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SelfAugmentedConfig(**kwargs, **BASIC)


class TestRSVDCompletion:
    def test_fits_observed_entries(self, rng):
        matrix = make_low_rank(rng)
        mask = (rng.random(matrix.shape) < 0.7).astype(float)
        result = basic_rsvd(matrix * mask, mask, rng=1, regularization=0.01)
        observed_error = np.abs((result.estimate - matrix) * mask).sum() / mask.sum()
        assert observed_error < 0.5

    def test_completes_missing_entries_of_low_rank_matrix(self, rng):
        matrix = make_low_rank(rng, rank=2)
        mask = (rng.random(matrix.shape) < 0.8).astype(float)
        result = basic_rsvd(
            matrix * mask, mask, rng=1, rank=3, regularization=0.5, max_iterations=200
        )
        missing = mask == 0
        assert np.abs(result.estimate - matrix)[missing].mean() < 2.0

    def test_factor_shapes(self, rng):
        matrix = make_low_rank(rng)
        result = basic_rsvd(matrix, np.ones_like(matrix), rng=0, rank=5)
        assert result.left.shape == (8, 5)
        assert result.right.shape == (24, 5)
        assert result.estimate.shape == matrix.shape

    def test_default_rank_is_row_count(self, rng):
        matrix = make_low_rank(rng)
        result = basic_rsvd(matrix, np.ones_like(matrix), rng=0)
        assert result.left.shape[1] == matrix.shape[0]

    def test_objective_finite_and_positive(self, rng):
        matrix = make_low_rank(rng)
        result = basic_rsvd(matrix, np.ones_like(matrix), rng=0)
        assert np.isfinite(result.objective)
        assert result.objective >= 0.0

    def test_deterministic_given_seed(self, rng):
        matrix = make_low_rank(rng)
        mask = (np.arange(matrix.size).reshape(matrix.shape) % 3 != 0).astype(float)
        a = basic_rsvd(matrix * mask, mask, rng=7)
        b = basic_rsvd(matrix * mask, mask, rng=7)
        np.testing.assert_allclose(a.estimate, b.estimate)

    def test_regularization_shrinks_factors(self, rng):
        matrix = make_low_rank(rng)
        mask = np.ones_like(matrix)
        weak = basic_rsvd(matrix, mask, rng=1, regularization=1e-3)
        strong = basic_rsvd(matrix, mask, rng=1, regularization=100.0)
        weak_norm = np.linalg.norm(weak.left) + np.linalg.norm(weak.right)
        strong_norm = np.linalg.norm(strong.left) + np.linalg.norm(strong.right)
        assert strong_norm < weak_norm

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            basic_rsvd(np.zeros((3, 9)), np.zeros((6, 9)))

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError):
            basic_rsvd(np.zeros((3, 9)), np.full((3, 9), 0.5))
