"""Integration tests for :mod:`repro.simulation.campaign`."""

import numpy as np
import pytest

from repro.simulation.campaign import CampaignConfig, SurveyCampaign
from repro.simulation.collector import CollectionConfig


class TestCampaignConfig:
    def test_defaults_valid(self):
        CampaignConfig()

    def test_requires_day_zero(self):
        with pytest.raises(ValueError):
            CampaignConfig(timestamps_days=(3.0, 5.0))

    def test_rejects_negative_stamps(self):
        with pytest.raises(ValueError):
            CampaignConfig(timestamps_days=(0.0, -3.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CampaignConfig(timestamps_days=())


class TestCampaignDatabase:
    def test_database_contains_all_stamps(self, small_campaign):
        database = small_campaign.database
        assert database.timestamps == [0.0, 45.0]

    def test_database_cached(self, small_campaign):
        assert small_campaign.database is small_campaign.database

    def test_ground_truth_lookup(self, small_campaign):
        matrix = small_campaign.ground_truth(45.0)
        assert matrix.shape == small_campaign.database.original.shape

    def test_fingerprints_drift_between_stamps(self, small_campaign):
        database = small_campaign.database
        drift = np.mean(np.abs(database.get(0.0).values - database.get(45.0).values))
        assert drift > 0.5  # the paper observes multi-dB long-term shifts


class TestCampaignUpdate:
    def test_run_update_improves_over_stale(self, small_campaign):
        database = small_campaign.database
        ground_truth = database.get(45.0)
        result = small_campaign.run_update(45.0)
        assert result.matrix.reconstruction_error_db(ground_truth) < (
            database.original.reconstruction_error_db(ground_truth)
        )

    def test_run_update_with_custom_references(self, small_campaign):
        result = small_campaign.run_update(45.0, reference_indices=[0, 3, 7, 11])
        assert result.matrix.shape == small_campaign.database.original.shape

    def test_make_updater_uses_original(self, small_campaign):
        updater = small_campaign.make_updater()
        assert updater.baseline is small_campaign.database.original


class TestCampaignLocalization:
    def test_sample_test_locations_unique(self, small_campaign):
        indices = small_campaign.sample_test_locations(10)
        assert len(set(indices.tolist())) == len(indices)

    def test_sample_rejects_bad_count(self, small_campaign):
        with pytest.raises(ValueError):
            small_campaign.sample_test_locations(0)

    def test_online_measurements_shape(self, small_campaign):
        batch = small_campaign.online_measurements([0, 1, 2], 45.0)
        assert batch.shape == (3, small_campaign.deployment.link_count)

    def test_localization_errors_non_negative(self, small_campaign):
        indices = small_campaign.sample_test_locations(6)
        errors = small_campaign.localization_errors(
            small_campaign.ground_truth(45.0), indices, 45.0
        )
        assert errors.shape == (6,)
        assert np.all(errors >= 0.0)

    def test_custom_localizer_factory(self, small_campaign):
        from repro.localization.knn import KNNLocalizer

        indices = small_campaign.sample_test_locations(5)
        errors = small_campaign.localization_errors(
            small_campaign.ground_truth(45.0),
            indices,
            45.0,
            localizer_factory=lambda matrix, locations: KNNLocalizer(matrix, locations),
        )
        assert errors.shape == (5,)
