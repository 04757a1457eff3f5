"""Unit tests for :mod:`repro.core.self_augmented` (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.self_augmented import (
    SelfAugmentedConfig,
    SweepState,
    _objective,
    self_augmented_rsvd,
    solve_state,
)
from repro.core.stacked import run_stacked_sweeps


def make_problem(rng, links=4, width=6, drift=2.0):
    """A synthetic fingerprint-update problem with known ground truth."""
    n = links * width
    truth = np.full((links, n), -60.0)
    for j in range(n):
        own = j // width
        offset = j % width
        truth[own, j] -= 6.0 + 2.0 * abs(2.0 * (offset + 0.5) / width - 1.0)
        if own - 1 >= 0:
            truth[own - 1, j] -= 1.5
        if own + 1 < links:
            truth[own + 1, j] -= 1.5
    truth += drift * rng.normal(size=(links, 1))  # per-link drift
    mask = np.zeros((links, n))
    for j in range(n):
        own = j // width
        for i in range(links):
            if abs(i - own) >= 2:
                mask[i, j] = 1.0
    observed = truth * mask
    return truth, observed, mask


class TestConfigValidation:
    def test_defaults_valid(self):
        SelfAugmentedConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"regularization": -0.1},
            {"max_iterations": 0},
            {"tolerance": 0.0},
            {"reference_weight": -1.0},
            {"structure_weight": -1.0},
            {"init_scale": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SelfAugmentedConfig(**kwargs)


class TestSolver:
    def test_prediction_constraint_pins_solution(self, rng):
        truth, observed, mask = make_problem(rng)
        prediction = truth + rng.normal(0.0, 0.3, size=truth.shape)
        result = self_augmented_rsvd(
            observed, mask, locations_per_link=6, prediction=prediction, rng=1
        )
        assert np.abs(result.estimate - truth).mean() < 1.0

    def test_without_constraints_solution_is_ambiguous(self, rng):
        truth, observed, mask = make_problem(rng)
        config = SelfAugmentedConfig(
            use_reference_constraint=False, use_structure_constraint=False
        )
        result = self_augmented_rsvd(
            observed, mask, locations_per_link=6, prediction=None, config=config, rng=1
        )
        unconstrained_error = np.abs(result.estimate - truth).mean()
        constrained = self_augmented_rsvd(
            observed,
            mask,
            locations_per_link=6,
            prediction=truth + rng.normal(0.0, 0.3, size=truth.shape),
            rng=1,
        )
        constrained_error = np.abs(constrained.estimate - truth).mean()
        assert constrained_error < unconstrained_error

    def test_structure_constraint_suppresses_outliers(self, rng):
        truth, observed, mask = make_problem(rng, drift=0.0)
        # Corrupt the prediction with a single large outlier on a stripe entry.
        prediction = truth.copy()
        prediction[1, 1 * 6 + 2] += 12.0
        with_structure = self_augmented_rsvd(
            observed, mask, 6, prediction=prediction, rng=1
        )
        without_structure = self_augmented_rsvd(
            observed,
            mask,
            6,
            prediction=prediction,
            config=SelfAugmentedConfig(use_structure_constraint=False),
            rng=1,
        )
        err_with = np.abs(with_structure.estimate - truth)[1, 8]
        err_without = np.abs(without_structure.estimate - truth)[1, 8]
        assert err_with <= err_without + 1e-6

    def test_result_metadata(self, rng):
        truth, observed, mask = make_problem(rng)
        result = self_augmented_rsvd(observed, mask, 6, prediction=truth, rng=1)
        assert result.left.shape[0] == truth.shape[0]
        assert result.right.shape[0] == truth.shape[1]
        assert result.iterations >= 1
        assert result.reference_weight > 0.0
        assert result.structure_weight > 0.0
        assert np.isfinite(result.objective)

    def test_weights_zero_when_constraints_disabled(self, rng):
        truth, observed, mask = make_problem(rng)
        config = SelfAugmentedConfig(
            use_reference_constraint=False, use_structure_constraint=False
        )
        result = self_augmented_rsvd(observed, mask, 6, config=config, rng=1)
        assert result.reference_weight == 0.0
        assert result.structure_weight == 0.0

    def test_deterministic_given_seed(self, rng):
        truth, observed, mask = make_problem(rng)
        a = self_augmented_rsvd(observed, mask, 6, prediction=truth, rng=5)
        b = self_augmented_rsvd(observed, mask, 6, prediction=truth, rng=5)
        np.testing.assert_allclose(a.estimate, b.estimate)

    def test_explicit_weights_respected(self, rng):
        truth, observed, mask = make_problem(rng)
        config = SelfAugmentedConfig(reference_weight=2.5, structure_weight=0.7)
        result = self_augmented_rsvd(observed, mask, 6, prediction=truth, config=config, rng=1)
        assert result.reference_weight == 2.5
        assert result.structure_weight == 0.7

    def test_invalid_stripe_width_rejected(self, rng):
        truth, observed, mask = make_problem(rng)
        with pytest.raises(ValueError):
            self_augmented_rsvd(observed, mask, 5, prediction=truth)

    def test_shape_mismatch_rejected(self, rng):
        truth, observed, mask = make_problem(rng)
        with pytest.raises(ValueError):
            self_augmented_rsvd(observed, mask[:, :-1], 6)

    def test_non_binary_mask_rejected(self, rng):
        truth, observed, mask = make_problem(rng)
        with pytest.raises(ValueError):
            self_augmented_rsvd(observed, mask * 0.5, 6)

    def test_all_zero_observed_rejected(self, rng):
        truth, observed, mask = make_problem(rng)
        with pytest.raises(ValueError, match="entirely zero"):
            SweepState(np.zeros_like(observed), mask, 6)


class TestWarmStart:
    def solve(self, observed, mask, prediction, **kwargs):
        return solve_state(SweepState(observed, mask, 6, prediction=prediction, **kwargs))

    def test_unchanged_data_converges_in_zero_sweeps_bit_identical(self, rng):
        truth, observed, mask = make_problem(rng)
        prediction = truth + rng.normal(0.0, 0.3, size=truth.shape)
        cold = self.solve(observed, mask, prediction, rng=7)
        left, right, objective = cold.left, cold.right, cold.objective

        warm_state = SweepState(observed, mask, 6, prediction=prediction, rng=7)
        converged = warm_state.warm_start(left, right, objective)
        assert converged and warm_state.converged
        assert warm_state.warm_started
        warm = solve_state(warm_state)
        assert warm.iterations == 0
        np.testing.assert_array_equal(warm.estimate, cold.estimate)
        np.testing.assert_array_equal(warm.left, cold.left)
        np.testing.assert_array_equal(warm.right, cold.right)

    def small_drift(self, rng):
        """Warm-start from a solve of slightly older data, and re-solve cold.

        Returns the truth, the warm-started state's ``warm_start`` answer,
        the warm result and the cold re-solve of the drifted data.
        """
        truth, observed, mask = make_problem(rng)
        prediction = truth + rng.normal(0.0, 0.3, size=truth.shape)
        config = SelfAugmentedConfig(tolerance=1e-4)
        cold = self.solve(observed, mask, prediction, config=config, rng=7)

        drifted = observed + 1e-4 * mask * rng.normal(size=observed.shape)
        recold = self_augmented_rsvd(
            drifted, mask, 6, prediction=prediction, config=config, rng=7
        )
        warm_state = SweepState(
            drifted, mask, 6, prediction=prediction, config=config, rng=7
        )
        shortcut = warm_state.warm_start(cold.left, cold.right, cold.objective)
        return truth, shortcut, solve_state(warm_state), recold

    def test_small_drift_converges_in_fewer_sweeps(self, rng):
        _, _, warm, recold = self.small_drift(rng)
        assert warm.iterations <= 1
        assert warm.iterations < recold.iterations

    def test_small_drift_zero_sweep_shortcut_keeps_accuracy(self, rng):
        """The objective-match shortcut skips every sweep on a small drift,
        and its estimate stays within the sweep-budget accuracy gate
        (+0.05 dB, as in benchmarks/test_sweep_budget.py) of a cold solve."""
        truth, shortcut, warm, recold = self.small_drift(rng)
        assert shortcut and warm.iterations == 0
        warm_error = np.mean(np.abs(warm.estimate - truth))
        cold_error = np.mean(np.abs(recold.estimate - truth))
        assert warm_error <= cold_error + 0.05

    def test_without_objective_needs_at_least_one_sweep(self, rng):
        truth, observed, mask = make_problem(rng)
        prediction = truth + rng.normal(0.0, 0.3, size=truth.shape)
        config = SelfAugmentedConfig(tolerance=1e-3, max_iterations=200)
        result = self.solve(observed, mask, prediction, config=config, rng=7)
        assert result.converged
        warm_state = SweepState(
            observed, mask, 6, prediction=prediction, config=config, rng=7
        )
        converged = warm_state.warm_start(result.left, result.right)
        assert not converged
        warm = solve_state(warm_state)
        # The warm estimate is the first sweep's previous iterate, so the
        # first sweep's relative estimate change is already below tolerance.
        assert warm.iterations == 1

    def test_factors_are_copied_in_and_out(self, rng):
        truth, observed, mask = make_problem(rng)
        cold = self.solve(observed, mask, None, rng=7)
        left, right = cold.left.copy(), cold.right.copy()
        other = SweepState(observed, mask, 6, rng=7)
        other.warm_start(left, right, cold.objective)
        assert other.left is not left and other.right is not right
        warm = solve_state(other)
        assert warm.left is not left and warm.right is not right
        left[:] = 0.0
        assert np.any(other.left) and np.any(warm.left)

    def test_shape_mismatch_rejected(self, rng):
        truth, observed, mask = make_problem(rng)
        state = SweepState(observed, mask, 6, rng=7)
        good_left = np.zeros((state.m, state.rank))
        good_right = np.zeros((state.n, state.rank))
        with pytest.raises(ValueError, match="left factor"):
            state.warm_start(good_left[:-1], good_right)
        with pytest.raises(ValueError, match="right factor"):
            state.warm_start(good_left, good_right[:, :-1])

    def test_mismatched_objective_does_not_converge(self, rng):
        truth, observed, mask = make_problem(rng)
        cold = self.solve(observed, mask, None, rng=7)
        left, right, objective = cold.left, cold.right, cold.objective
        drifted = observed + mask * rng.normal(size=observed.shape)
        warm_state = SweepState(drifted, mask, 6, rng=7)
        assert not warm_state.warm_start(left, right, objective)
        assert not warm_state.converged


def eq18(state, left, right):
    """Eq. 18 written out term by term from the module docstring."""
    estimate = left @ right.T
    value = state.lam * (np.sum(left**2) + np.sum(right**2))
    value += np.sum((state.mask * estimate - state.observed) ** 2)
    if state.prediction_array is not None:
        value += state.w1 * np.sum((estimate - state.prediction_array) ** 2)
    if state.use_structure:
        width = state.locations_per_link
        stripes = np.stack(
            [estimate[i, i * width : (i + 1) * width] for i in range(state.m)]
        )
        value += state.w2 * (
            np.sum((stripes @ state.g) ** 2) + np.sum((state.h @ stripes) ** 2)
        )
    return value


class TestReportedObjective:
    """``finalize`` evaluates Eq. 18 once, on the final factors: the value
    equals ``_objective`` at ``L R^T`` of the returned factors bit for bit,
    and the equation written out to 1e-12."""

    def assert_objective_of_final_factors(self, state, result):
        left, right = result.left, result.right
        expect = _objective(
            left @ right.T,
            left,
            right,
            state.observed,
            state.mask,
            state.prediction_array,
            state.g,
            state.h,
            state.locations_per_link,
            state.lam,
            state.w1,
            state.w2,
        )
        assert result.objective == expect
        assert result.objective == pytest.approx(eq18(state, left, right), rel=1e-12)

    @pytest.mark.parametrize("reference", [True, False])
    @pytest.mark.parametrize("structure", [True, False])
    def test_cold_solve(self, rng, reference, structure):
        truth, observed, mask = make_problem(rng)
        prediction = truth + rng.normal(0.0, 0.3, size=truth.shape) if reference else None
        config = SelfAugmentedConfig(use_structure_constraint=structure)
        state = SweepState(observed, mask, 6, prediction=prediction, config=config, rng=7)
        result = solve_state(state)
        assert result.iterations > 0
        self.assert_objective_of_final_factors(state, result)

    def test_warm_refresh(self, rng):
        truth, observed, mask = make_problem(rng)
        prediction = truth + rng.normal(0.0, 0.3, size=truth.shape)
        cold = solve_state(SweepState(observed, mask, 6, prediction=prediction, rng=7))
        drifted = observed + 0.5 * mask * rng.normal(size=observed.shape)
        states = [
            SweepState(data, mask, 6, prediction=prediction, rng=7)
            for data in (observed, drifted, drifted)
        ]
        states[0].warm_start(cold.left, cold.right, cold.objective)
        states[1].warm_start(cold.left, cold.right, cold.objective)
        states[2].warm_start(cold.left, cold.right)
        run_stacked_sweeps(states)
        results = [state.finalize() for state in states]
        assert results[0].iterations == 0 and results[0].objective == cold.objective
        assert results[1].iterations > 0 and results[2].iterations > 0
        for state, result in zip(states, results):
            self.assert_objective_of_final_factors(state, result)


class TestSvdInit:
    def test_invalid_init_rejected(self):
        with pytest.raises(ValueError, match="init must be"):
            SelfAugmentedConfig(init="qr")

    def test_svd_init_deterministic_truncated(self, rng):
        truth, observed, mask = make_problem(rng)
        config = SelfAugmentedConfig(init="svd", rank=2)  # k < min(m, n): svds path
        a = self_augmented_rsvd(observed, mask, 6, prediction=truth, config=config, rng=3)
        b = self_augmented_rsvd(observed, mask, 6, prediction=truth, config=config, rng=3)
        np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_svd_init_deterministic_full_rank(self, rng):
        truth, observed, mask = make_problem(rng)
        config = SelfAugmentedConfig(init="svd")  # full rank: dense LAPACK path
        a = self_augmented_rsvd(observed, mask, 6, prediction=truth, config=config, rng=3)
        b = self_augmented_rsvd(observed, mask, 6, prediction=truth, config=config, rng=3)
        np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_svd_init_factors_on_data_scale(self, rng):
        truth, observed, mask = make_problem(rng)
        state = SweepState(
            observed,
            mask,
            6,
            config=SelfAugmentedConfig(init="svd", rank=2),
            rng=3,
        )
        # L0 = U sqrt(S): its Gram recovers the leading singular values.
        gram = state.left.T @ state.left
        s = np.linalg.svd(mask * observed, compute_uv=False)
        np.testing.assert_allclose(np.sort(np.diag(gram))[::-1], s[:2], rtol=1e-6)

    def test_svd_init_reaches_same_quality_as_random(self, rng):
        truth, observed, mask = make_problem(rng)
        prediction = truth + rng.normal(0.0, 0.3, size=truth.shape)
        random_result = self_augmented_rsvd(
            observed, mask, 6, prediction=prediction, rng=3
        )
        svd_result = self_augmented_rsvd(
            observed,
            mask,
            6,
            prediction=prediction,
            config=SelfAugmentedConfig(init="svd"),
            rng=3,
        )
        random_error = np.abs(random_result.estimate - truth).mean()
        svd_error = np.abs(svd_result.estimate - truth).mean()
        assert abs(svd_error - random_error) < 0.5

    def test_random_init_unchanged_by_default(self, rng):
        # The cold random path must stay bit-pinned: explicit init="random"
        # and the default are the same code path.
        truth, observed, mask = make_problem(rng)
        default = self_augmented_rsvd(observed, mask, 6, prediction=truth, rng=3)
        explicit = self_augmented_rsvd(
            observed,
            mask,
            6,
            prediction=truth,
            config=SelfAugmentedConfig(init="random"),
            rng=3,
        )
        np.testing.assert_array_equal(default.estimate, explicit.estimate)
