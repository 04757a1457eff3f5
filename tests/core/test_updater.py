"""Unit / integration tests for :mod:`repro.core.updater` (the iUpdater pipeline)."""

import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import IUpdater, UpdaterConfig


class TestCorrelationAcquisition:
    def test_reference_indices_at_most_link_count(self, small_database):
        updater = IUpdater(small_database.original, rng=1)
        assert len(updater.reference_indices) <= small_database.original.link_count

    def test_correlation_cached(self, small_database):
        updater = IUpdater(small_database.original, rng=1)
        mic_a, lrr_a = updater.acquire_correlation()
        mic_b, lrr_b = updater.acquire_correlation()
        assert mic_a is mic_b
        assert lrr_a is lrr_b

    def test_reference_count_override(self, small_database):
        updater = IUpdater(
            small_database.original, config=UpdaterConfig(reference_count=3), rng=1
        )
        assert len(updater.reference_indices) == 3


class TestUpdate:
    def _run(self, campaign, database, elapsed_days=45.0, config=None):
        updater = IUpdater(database.original, config=config, rng=1)
        observed, mask = campaign.collector.collect_no_decrease(elapsed_days=elapsed_days)
        reference = campaign.collector.collect_reference(
            updater.reference_indices, elapsed_days=elapsed_days
        )
        return updater.update(
            no_decrease_matrix=observed,
            no_decrease_mask=mask,
            reference_matrix=reference,
        )

    def test_update_beats_stale_database(self, small_campaign, small_database):
        result = self._run(small_campaign, small_database)
        ground_truth = small_database.get(45.0)
        updated_error = result.matrix.reconstruction_error_db(ground_truth)
        stale_error = small_database.original.reconstruction_error_db(ground_truth)
        assert updated_error < stale_error

    def test_update_result_metadata(self, small_campaign, small_database):
        result = self._run(small_campaign, small_database)
        assert result.matrix.shape == small_database.original.shape
        assert len(result.reference_indices) == result.mic.count
        assert result.lrr is not None
        assert result.estimate.shape == small_database.original.shape

    def test_update_with_explicit_reference_indices(self, small_campaign, small_database):
        updater = IUpdater(small_database.original, rng=1)
        indices = list(updater.reference_indices)[:3]
        observed, mask = small_campaign.collector.collect_no_decrease(elapsed_days=45.0)
        reference = small_campaign.collector.collect_reference(indices, elapsed_days=45.0)
        result = updater.update(
            no_decrease_matrix=observed,
            no_decrease_mask=mask,
            reference_matrix=reference,
            reference_indices=indices,
        )
        # With fewer columns than the correlation matrix expects, the
        # Constraint-1 prediction is skipped but the update still runs.
        assert result.matrix.shape == small_database.original.shape

    def test_reference_column_count_mismatch_rejected(self, small_campaign, small_database):
        updater = IUpdater(small_database.original, rng=1)
        observed, mask = small_campaign.collector.collect_no_decrease(elapsed_days=45.0)
        reference = small_campaign.collector.collect_reference(
            updater.reference_indices, elapsed_days=45.0
        )
        with pytest.raises(ValueError):
            updater.update(
                no_decrease_matrix=observed,
                no_decrease_mask=mask,
                reference_matrix=reference[:, :-1],
                reference_indices=updater.reference_indices,
            )

    def test_constraint_ablation_ordering(self, small_campaign, small_database):
        """Fig. 16's qualitative result: RSVD >> RSVD+C1 >= RSVD+C1+C2."""
        ground_truth = small_database.get(45.0)
        errors = {}
        configs = {
            "rsvd": UpdaterConfig(
                solver=SelfAugmentedConfig(
                    use_reference_constraint=False, use_structure_constraint=False
                )
            ),
            "c1": UpdaterConfig(solver=SelfAugmentedConfig(use_structure_constraint=False)),
            "c1c2": UpdaterConfig(),
        }
        for name, config in configs.items():
            result = self._run(small_campaign, small_database, config=config)
            errors[name] = result.matrix.reconstruction_error_db(ground_truth)
        assert errors["c1"] < errors["rsvd"]
        assert errors["c1c2"] <= errors["c1"] * 1.25  # C2 must not hurt materially

    def test_reference_not_in_mask_option(self, small_campaign, small_database):
        config = UpdaterConfig(include_reference_in_mask=False)
        result = self._run(small_campaign, small_database, config=config)
        ground_truth = small_database.get(45.0)
        stale_error = small_database.original.reconstruction_error_db(ground_truth)
        assert result.matrix.reconstruction_error_db(ground_truth) < stale_error

    def test_invalid_solver_backend_rejected(self):
        """The pipeline has a single solver path: the backend knob is gone."""
        with pytest.raises(TypeError):
            UpdaterConfig(solver_backend="batched")
