"""Unit tests for :mod:`repro.localization.svr` (from-scratch SVR)."""

import numpy as np
import pytest

from repro.localization.svr import SupportVectorRegressor, SVRConfig


class TestSVRConfig:
    def test_defaults_valid(self):
        SVRConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.0},
            {"epsilon": -0.1},
            {"gamma": 0.0},
            {"max_iterations": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SVRConfig(**kwargs)


class TestSupportVectorRegressor:
    def test_fits_smooth_function(self, rng):
        features = rng.uniform(-2.0, 2.0, size=(60, 2))
        targets = np.sin(features[:, 0]) + 0.5 * features[:, 1]
        model = SupportVectorRegressor(SVRConfig(c=50.0, epsilon=0.01)).fit(features, targets)
        predictions = model.predict(features)
        assert np.mean(np.abs(predictions - targets)) < 0.2

    def test_interpolates_unseen_points(self, rng):
        features = rng.uniform(-2.0, 2.0, size=(80, 1))
        targets = features[:, 0] ** 2
        model = SupportVectorRegressor(SVRConfig(c=50.0, epsilon=0.01)).fit(features, targets)
        test = np.array([[0.5], [-1.0], [1.5]])
        predictions = model.predict(test)
        np.testing.assert_allclose(predictions, [0.25, 1.0, 2.25], atol=0.5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SupportVectorRegressor().predict(np.zeros((2, 2)))

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            SupportVectorRegressor().fit(rng.normal(size=(5, 2)), rng.normal(size=4))

    def test_constant_targets_recovered(self, rng):
        features = rng.normal(size=(30, 3))
        targets = np.full(30, 4.2)
        model = SupportVectorRegressor().fit(features, targets)
        predictions = model.predict(rng.normal(size=(10, 3)))
        np.testing.assert_allclose(predictions, 4.2, atol=0.3)

    def test_explicit_gamma_used(self, rng):
        features = rng.normal(size=(20, 2))
        targets = features[:, 0]
        model = SupportVectorRegressor(SVRConfig(gamma=0.5)).fit(features, targets)
        assert model._gamma == 0.5
