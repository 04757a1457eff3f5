"""Parity regression tests between the batched ALS solver and its looped oracle.

The batched solver must reproduce the per-column reference loop
(:mod:`tests.oracles`) to floating-point noise (≤ 1e-10 on the final
estimates) across the solver matrix: basic RSVD and the self-augmented solver,
with and without Constraints 1/2, on masked and fully-observed matrices.  The
parity configurations use a moderate rank and regularisation so the per-sweep
normal equations are well conditioned — with near-singular systems (rank = M,
tiny lambda) both paths remain valid ALS iterates but BLAS summation-order noise is amplified beyond any sensible
bitwise-comparison threshold.
"""

import numpy as np
import pytest

from repro.core.rsvd import RSVDConfig, rsvd_complete
from repro.core.self_augmented import (
    SelfAugmentedConfig,
    _adjacent_link_stripes,
    _extract_stripes,
    _neighbour_average_stripes,
    _smooth_stripes,
    self_augmented_rsvd,
)
from repro.utils.linalg import batched_safe_solve, masked_gram_stack, safe_solve
from tests import oracles
from tests.oracles import rsvd_complete_looped, self_augmented_rsvd_looped

PARITY_TOL = 1e-10

LINKS = 8
STRIPE_WIDTH = 9
LOCATIONS = LINKS * STRIPE_WIDTH


def make_problem(seed=0, observe_fraction=0.6):
    rng = np.random.default_rng(seed)
    truth = -60.0 + rng.normal(size=(LINKS, 4)) @ rng.normal(size=(4, LOCATIONS))
    masked = (rng.random(truth.shape) < observe_fraction).astype(float)
    full = np.ones_like(truth)
    prediction = truth + rng.normal(scale=0.1, size=truth.shape)
    return truth, masked, full, prediction


@pytest.fixture(params=["masked", "full"])
def observation(request):
    truth, masked, full, prediction = make_problem()
    mask = masked if request.param == "masked" else full
    return truth * mask, mask, prediction


class TestBatchedSolvePrimitives:
    def test_batched_matches_sequential_safe_solve(self):
        rng = np.random.default_rng(1)
        lhs = rng.normal(size=(12, 5, 5))
        lhs = lhs @ np.transpose(lhs, (0, 2, 1)) + 0.1 * np.eye(5)
        rhs = rng.normal(size=(12, 5))
        batched = batched_safe_solve(lhs, rhs)
        for k in range(lhs.shape[0]):
            np.testing.assert_allclose(batched[k], safe_solve(lhs[k], rhs[k]), atol=1e-12)

    def test_batched_falls_back_on_singular_slice(self):
        lhs = np.stack([np.eye(3), np.zeros((3, 3))])
        rhs = np.ones((2, 3))
        result = batched_safe_solve(lhs, rhs)
        np.testing.assert_allclose(result[0], np.ones(3), atol=1e-12)
        assert np.all(np.isfinite(result[1]))

    def test_batched_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batched_safe_solve(np.zeros((2, 3, 4)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            batched_safe_solve(np.zeros((2, 3, 3)), np.zeros((3, 3)))

    def test_masked_gram_stack_matches_per_column_grams(self):
        rng = np.random.default_rng(2)
        factor = rng.normal(size=(10, 4))
        weights = (rng.random((10, 7)) < 0.5).astype(float)
        stack = masked_gram_stack(factor, weights)
        assert stack.shape == (7, 4, 4)
        for k in range(7):
            expected = (factor * weights[:, k][:, None]).T @ factor
            np.testing.assert_allclose(stack[k], expected, atol=1e-12)


class TestRSVDBackendParity:
    def test_estimates_agree(self, observation):
        observed, mask, _ = observation
        config = RSVDConfig(rank=5, regularization=0.5, max_iterations=10)
        batched = rsvd_complete(observed, mask, config, rng=7)
        looped = rsvd_complete_looped(observed, mask, config, rng=7)
        np.testing.assert_allclose(
            batched.estimate, looped.estimate, atol=PARITY_TOL, rtol=0.0
        )
        np.testing.assert_allclose(batched.objective, looped.objective, rtol=1e-10)
        assert batched.iterations == looped.iterations

    def test_invalid_backend_rejected(self):
        """The solver has a single path: the backend knob is gone."""
        with pytest.raises(TypeError):
            RSVDConfig(solver_backend="batched")


class TestSelfAugmentedBackendParity:
    @pytest.mark.parametrize(
        "use_reference, use_structure",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_estimates_agree(self, observation, use_reference, use_structure):
        observed, mask, prediction = observation
        config = SelfAugmentedConfig(
            rank=5,
            regularization=0.5,
            max_iterations=8,
            use_reference_constraint=use_reference,
            use_structure_constraint=use_structure,
        )
        args = (observed, mask, STRIPE_WIDTH)
        kwargs = dict(prediction=prediction, config=config, rng=7)
        batched = self_augmented_rsvd(*args, **kwargs)
        looped = self_augmented_rsvd_looped(*args, **kwargs)
        np.testing.assert_allclose(
            batched.estimate, looped.estimate, atol=PARITY_TOL, rtol=0.0
        )
        assert batched.iterations == looped.iterations
        assert batched.reference_weight == looped.reference_weight
        assert batched.structure_weight == looped.structure_weight

    def test_no_prediction_parity(self, observation):
        observed, mask, _ = observation
        config = SelfAugmentedConfig(rank=5, regularization=0.5, max_iterations=8)
        args = (observed, mask, STRIPE_WIDTH)
        kwargs = dict(prediction=None, config=config, rng=7)
        np.testing.assert_allclose(
            self_augmented_rsvd(*args, **kwargs).estimate,
            self_augmented_rsvd_looped(*args, **kwargs).estimate,
            atol=PARITY_TOL,
            rtol=0.0,
        )

    def test_invalid_backend_rejected(self):
        """The solver has a single path: the backend knob is gone."""
        with pytest.raises(TypeError):
            SelfAugmentedConfig(solver_backend="batched")


class TestStripeHelpers:
    """The vectorized stripe helpers against the scalar reference, bit for bit."""

    @pytest.mark.parametrize("width", (1, 2, 9))
    @pytest.mark.parametrize("links", (1, 2, 8))
    def test_bit_identical_to_scalar_loop(self, links, width):
        rng = np.random.default_rng(100 * links + width)
        estimate = rng.normal(-60.0, 5.0, size=(links, links * width))
        # Plant outliers so the smoothing pass actually moves elements.
        estimate[rng.random(estimate.shape) < 0.1] += 25.0
        stripes = _extract_stripes(estimate, width)
        np.testing.assert_array_equal(
            stripes, oracles.extract_stripes_looped(estimate, width)
        )
        expected_neighbour = np.array(
            [[oracles.neighbour_average(stripes, i, u) for u in range(width)] for i in range(links)]
        )
        expected_adjacent = np.array(
            [[oracles.adjacent_link_value(stripes, i, u) for u in range(width)] for i in range(links)]
        )
        np.testing.assert_allclose(
            _neighbour_average_stripes(stripes), expected_neighbour, atol=0, rtol=0
        )
        np.testing.assert_allclose(
            _adjacent_link_stripes(stripes), expected_adjacent, atol=0, rtol=0
        )
        np.testing.assert_allclose(
            _smooth_stripes(estimate, width, weight=0.6),
            oracles.smooth_stripes_looped(estimate, width, weight=0.6),
            atol=0,
            rtol=0,
        )
