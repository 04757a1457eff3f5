"""Unit tests for :mod:`repro.localization.metrics`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.localization.metrics import localization_errors, summarize_errors


class TestLocalizationErrors:
    def test_zero_for_identical_points(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(localization_errors(points, points), [0.0, 0.0])

    def test_euclidean_distance(self):
        truth = np.array([[0.0, 0.0]])
        estimate = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(localization_errors(truth, estimate), [5.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            localization_errors(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_empty_inputs_yield_empty_errors(self):
        errors = localization_errors(np.zeros((0, 2)), np.zeros((0, 2)))
        assert errors.shape == (0,)
        assert errors.dtype == float

    def test_single_pair(self):
        np.testing.assert_allclose(
            localization_errors(np.array([[1.0, 1.0]]), np.array([[1.0, 2.0]])), [1.0]
        )

    def test_nan_coordinates_rejected(self):
        clean = np.array([[0.0, 0.0]])
        dirty = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError, match="true_points"):
            localization_errors(dirty, clean)
        with pytest.raises(ValueError, match="estimated_points"):
            localization_errors(clean, dirty)

    def test_infinite_coordinates_rejected(self):
        clean = np.array([[0.0, 0.0]])
        with pytest.raises(ValueError):
            localization_errors(clean, np.array([[np.inf, 0.0]]))


class TestSummarizeErrors:
    def test_summary_fields(self):
        report = summarize_errors([1.0, 2.0, 3.0, 4.0, 10.0])
        assert report.mean_m == pytest.approx(4.0)
        assert report.median_m == pytest.approx(3.0)
        assert report.percentile_80_m <= report.percentile_90_m

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_errors([])

    def test_single_sample_is_a_valid_distribution(self):
        report = summarize_errors([2.5])
        assert report.mean_m == pytest.approx(2.5)
        assert report.median_m == pytest.approx(2.5)
        assert report.percentile_90_m == pytest.approx(2.5)

    def test_nan_entries_rejected(self):
        with pytest.raises(ValueError, match="errors_m"):
            summarize_errors([1.0, np.nan, 2.0])

    def test_cdf_accessible(self):
        report = summarize_errors([0.5, 1.5, 2.5])
        np.testing.assert_allclose(report.cdf.values, [0.5, 1.5, 2.5])
        assert report.cdf.probabilities[1] == pytest.approx(2 / 3)

    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_median_never_exceeds_p90(self, samples):
        report = summarize_errors(samples)
        assert report.median_m <= report.percentile_90_m + 1e-9
