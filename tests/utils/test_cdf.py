"""Unit tests for :mod:`repro.utils.cdf`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.cdf import empirical_cdf, median, percentile


class TestEmpiricalCDF:
    def test_values_are_sorted(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        np.testing.assert_allclose(cdf.values, [1.0, 2.0, 3.0])

    def test_probabilities_end_at_one(self):
        cdf = empirical_cdf([5.0, 7.0, 9.0, 11.0])
        assert cdf.probabilities[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cdf.probabilities) > 0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_median_of_odd_count(self):
        assert empirical_cdf([1.0, 2.0, 100.0]).median == pytest.approx(2.0)

    def test_percentile_bounds_check(self):
        cdf = empirical_cdf([1.0, 2.0])
        with pytest.raises(ValueError):
            cdf.percentile(1.5)


class TestModuleHelpers:
    def test_percentile_helper(self):
        assert percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)

    def test_median_helper(self):
        assert median([4.0, 1.0, 9.0]) == pytest.approx(4.0)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_median_between_min_and_max(self, samples):
        value = median(samples)
        assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9

    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=30),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_percentile_monotone_in_q(self, samples, q1, q2):
        low, high = sorted((q1, q2))
        assert percentile(samples, low) <= percentile(samples, high) + 1e-9
