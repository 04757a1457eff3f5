"""Unit tests for :mod:`repro.simulation.collector`."""

import numpy as np
import pytest

import repro.simulation.collector as collector_module
from repro.environments import environment_by_name
from repro.environments.builder import build_deployment
from repro.service.synthetic import synthesize_fleet
from repro.simulation.collector import CollectionConfig, MeasurementCollector
from tests.oracles import (
    classify_elements_looped,
    collect_no_decrease_looped,
    collect_reference_looped,
    measure_vector_looped,
    survey_fingerprint_looped,
)


class TestCollectionConfig:
    def test_defaults_valid(self):
        CollectionConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [{"survey_samples": 0}, {"reference_samples": 0}, {"online_samples": 0}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CollectionConfig(**kwargs)


class TestSurvey:
    def test_fingerprint_shape(self, small_campaign):
        matrix = small_campaign.collector.survey_fingerprint(elapsed_days=0.0, samples=2)
        deployment = small_campaign.deployment
        assert matrix.shape == (deployment.link_count, deployment.location_count)

    def test_own_link_sees_large_decrease(self, small_campaign):
        collector = small_campaign.collector
        matrix = collector.survey_fingerprint(elapsed_days=0.0, samples=3)
        deployment = small_campaign.deployment
        baseline = np.array(
            [deployment.channel.baseline_rss_dbm(i, 0.0) for i in range(deployment.link_count)]
        )
        # For every column, the own-link RSS should sit several dB below the
        # target-free baseline of that link.
        for j in range(deployment.location_count):
            own = deployment.link_of_location(j)
            assert matrix.values[own, j] < baseline[own] - 2.0

    def test_far_link_close_to_baseline(self, small_campaign):
        collector = small_campaign.collector
        matrix = collector.survey_fingerprint(elapsed_days=0.0, samples=3)
        deployment = small_campaign.deployment
        baseline = deployment.channel.baseline_rss_dbm(3, 0.0)
        j = 0  # the first location on link 0's stripe
        assert abs(matrix.values[3, j] - baseline) < 2.5


class TestNoDecreaseAndReference:
    def test_no_decrease_respects_mask(self, small_campaign):
        observed, mask = small_campaign.collector.collect_no_decrease(elapsed_days=0.0)
        assert observed.shape == mask.shape
        np.testing.assert_allclose(observed[mask == 0.0], 0.0)
        assert np.all(observed[mask == 1.0] < 0.0)

    def test_reference_matrix_shape(self, small_campaign):
        reference = small_campaign.collector.collect_reference([0, 5, 10], elapsed_days=0.0)
        assert reference.shape == (small_campaign.deployment.link_count, 3)

    def test_reference_rejects_bad_indices(self, small_campaign):
        with pytest.raises(ValueError):
            small_campaign.collector.collect_reference([0, 0], elapsed_days=0.0)
        with pytest.raises(ValueError):
            small_campaign.collector.collect_reference([9999], elapsed_days=0.0)

    def test_reference_close_to_ground_truth_column(self, small_campaign, small_database):
        truth = small_database.get(45.0)
        reference = small_campaign.collector.collect_reference([2], elapsed_days=45.0, samples=10)
        assert np.abs(reference[:, 0] - truth.values[:, 2]).mean() < 2.5

    def test_partial_survey_fraction(self, small_campaign, rng):
        observed, mask = small_campaign.collector.collect_partial_survey(
            0.5, elapsed_days=0.0, rng=rng
        )
        surveyed_columns = int((mask.sum(axis=0) > 0).sum())
        expected = round(0.5 * small_campaign.deployment.location_count)
        assert surveyed_columns == expected
        np.testing.assert_allclose(observed[mask == 0.0], 0.0)

    def test_partial_survey_rejects_bad_fraction(self, small_campaign):
        with pytest.raises(ValueError):
            small_campaign.collector.collect_partial_survey(0.0)


class TestOnline:
    def test_online_measurement_shape(self, small_campaign):
        vector = small_campaign.collector.online_measurement(3, elapsed_days=0.0)
        assert vector.shape == (small_campaign.deployment.link_count,)

    def test_online_rejects_bad_index(self, small_campaign):
        with pytest.raises(ValueError):
            small_campaign.collector.online_measurement(10_000)

    def test_online_batch_shape(self, small_campaign):
        batch = small_campaign.collector.online_batch([0, 1, 2], elapsed_days=0.0)
        assert batch.shape == (3, small_campaign.deployment.link_count)

    def test_online_measurement_resembles_fingerprint(self, small_campaign, small_database):
        truth = small_database.original
        vector = small_campaign.collector.online_measurement(5, elapsed_days=0.0, samples=10)
        assert np.abs(vector - truth.values[:, 5]).mean() < 2.5


# ------------------------------------------- draw order and layout regression
def _fresh_collector(env: str, seed: int, **sampling) -> MeasurementCollector:
    """A collector on a channel whose shadowing is still undrawn."""
    deployment = build_deployment(environment_by_name(env), seed=seed)
    return MeasurementCollector(deployment, CollectionConfig(**sampling))


class TestCollectorsMatchLoopedOracle:
    """Each collector against the one-link-at-a-time oracle on twin fresh
    channels: equal only if the shadowing draws stay interleaved with the
    noise and every matrix keeps the (links, locations) C layout."""

    @pytest.mark.parametrize("env", ["office", "library"])
    def test_survey_fingerprint(self, env):
        fast = _fresh_collector(env, 21, survey_samples=2)
        slow = _fresh_collector(env, 21, survey_samples=2)
        got = fast.survey_fingerprint(elapsed_days=5.0)
        want = survey_fingerprint_looped(slow, elapsed_days=5.0)
        assert got.values.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize("with_noise", [True, False])
    def test_collect_no_decrease_is_link_major(self, with_noise):
        fast = _fresh_collector("hall", 22, reference_samples=9, with_noise=with_noise)
        slow = _fresh_collector("hall", 22, reference_samples=9, with_noise=with_noise)
        got, got_mask = fast.collect_no_decrease(elapsed_days=45.0)
        want, want_mask = collect_no_decrease_looped(slow, elapsed_days=45.0)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_mask, want_mask)

    def test_collect_reference_keeps_request_order(self):
        fast = _fresh_collector("office", 23, reference_samples=3)
        slow = _fresh_collector("office", 23, reference_samples=3)
        got = fast.collect_reference([40, 3, 77, 12], elapsed_days=45.0)
        want = collect_reference_looped(slow, [40, 3, 77, 12], elapsed_days=45.0)
        assert got.shape == (8, 4) and got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got, want)

    def test_online_batch_is_successive_vectors(self):
        fast = _fresh_collector("library", 24, online_samples=2)
        slow = _fresh_collector("library", 24, online_samples=2)
        got = fast.online_batch([9, 0, 33], elapsed_days=15.0)
        deployment = slow.deployment
        want = np.vstack(
            [
                measure_vector_looped(deployment.channel, deployment.location_point(j), 15.0, 2)
                for j in (9, 0, 33)
            ]
        )
        assert got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got, want)


def _patch_looped_collectors(monkeypatch) -> None:
    monkeypatch.setattr(MeasurementCollector, "survey_fingerprint", survey_fingerprint_looped)
    monkeypatch.setattr(MeasurementCollector, "collect_no_decrease", collect_no_decrease_looped)
    monkeypatch.setattr(MeasurementCollector, "collect_reference", collect_reference_looped)
    monkeypatch.setattr(collector_module, "classify_elements", classify_elements_looped)


class TestSynthesizedFleetMatchesOracle:
    @pytest.mark.parametrize("env", ["office", "hall", "library"])
    def test_arrays_equal_and_c_contiguous(self, env, monkeypatch):
        seeds = (3, 104, 2026)
        fast = [synthesize_fleet(1, environments=[env], seed=seed)[0] for seed in seeds]
        _patch_looped_collectors(monkeypatch)
        slow = [synthesize_fleet(1, environments=[env], seed=seed)[0] for seed in seeds]
        for got, want in zip(fast, slow):
            pairs = [
                (got.baseline.values, want.baseline.values),
                (got.baseline.no_decrease_mask, want.baseline.no_decrease_mask),
                (got.no_decrease_matrix, want.no_decrease_matrix),
                (got.no_decrease_mask, want.no_decrease_mask),
                (got.reference_matrix, want.reference_matrix),
            ]
            for array, expected in pairs:
                assert array.flags["C_CONTIGUOUS"]
                np.testing.assert_array_equal(array, expected)
            assert got.reference_indices == want.reference_indices
