"""Unit tests for :mod:`repro.rf.variation` (short/long-term RSS dynamics)."""

import numpy as np
import pytest

from repro.rf.geometry import Point, points_array
from repro.rf.variation import LongTermDrift, ShortTermNoise, VariationConfig


class TestVariationConfig:
    def test_defaults_valid(self):
        VariationConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"short_term_correlation": 1.0},
            {"outlier_probability": 1.5},
            {"short_term_std_db": -1.0},
            {"drift_time_constant_days": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VariationConfig(**kwargs)


class TestShortTermNoise:
    def test_burst_length(self):
        noise = ShortTermNoise(VariationConfig(), rng=1)
        assert noise.sample_burst(20).shape == (20,)

    def test_burst_rejects_non_positive(self):
        noise = ShortTermNoise(VariationConfig(), rng=1)
        with pytest.raises(ValueError):
            noise.sample_burst(0)

    def test_zero_mean_on_average(self):
        noise = ShortTermNoise(VariationConfig(outlier_probability=0.0), rng=1)
        samples = noise.sample_burst(4000)
        assert abs(samples.mean()) < 0.3

    def test_autocorrelation_positive(self):
        config = VariationConfig(short_term_correlation=0.9, outlier_probability=0.0)
        noise = ShortTermNoise(config, rng=2)
        samples = noise.sample_burst(2000)
        lagged = np.corrcoef(samples[:-1], samples[1:])[0, 1]
        assert lagged > 0.5

    def test_reset_clears_state(self):
        noise = ShortTermNoise(VariationConfig(), rng=3)
        noise.sample_burst(10)
        noise.reset()
        assert noise._state == 0.0

    def test_span_of_100s_burst_is_several_db(self):
        # Fig. 1: variations within 100 s can reach ~5 dB.
        noise = ShortTermNoise(VariationConfig(), rng=4)
        samples = noise.sample_burst(200)
        assert samples.max() - samples.min() > 2.0


class TestLongTermDrift:
    def test_zero_at_time_zero(self):
        drift = LongTermDrift(VariationConfig(), seed=1)
        assert drift.total_shift_db(0, Point(1.0, 1.0), 0.0) == pytest.approx(0.0)

    def test_grows_with_time(self):
        drift = LongTermDrift(VariationConfig(), seed=1)
        short = abs(drift.global_shift_db(3.0))
        long = abs(drift.global_shift_db(90.0))
        assert long > short

    def test_deterministic_per_seed_and_time(self):
        a = LongTermDrift(VariationConfig(), seed=9)
        b = LongTermDrift(VariationConfig(), seed=9)
        point = Point(2.0, 3.0)
        assert a.total_shift_db(1, point, 45.0) == b.total_shift_db(1, point, 45.0)

    def test_different_seeds_differ(self):
        point = Point(2.0, 3.0)
        a = LongTermDrift(VariationConfig(), seed=1).total_shift_db(0, point, 45.0)
        b = LongTermDrift(VariationConfig(), seed=2).total_shift_db(0, point, 45.0)
        assert a != b

    def test_negative_time_rejected(self):
        drift = LongTermDrift(VariationConfig(), seed=1)
        with pytest.raises(ValueError):
            drift.global_shift_db(-1.0)

    def test_spatial_drift_smooth_for_neighbours(self):
        # Nearby locations must receive nearly identical spatial shifts so
        # that neighbouring-location differences stay stable (Observation 2).
        drift = LongTermDrift(VariationConfig(), seed=3)
        locations = points_array([Point(4.0, 2.0), Point(4.3, 2.0), Point(9.0, 7.0)])
        a, b, far = drift.spatial_shift_field(locations, 45.0)
        assert abs(a - b) < 0.6
        assert abs(a - b) <= abs(a - far) + 0.6

    def test_link_drift_varies_by_link(self):
        drift = LongTermDrift(VariationConfig(), seed=3)
        shifts = set(drift.link_shift_field(range(6), 45.0).tolist())
        assert len(shifts) > 1
