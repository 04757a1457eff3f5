"""Unit tests of the service request/response model and fleet plumbing."""

import numpy as np
import pytest

from repro.core.stacked import ShardResult, run_stacked_sweeps, solve_shard
from repro.core.self_augmented import SelfAugmentedConfig, SweepState, solve_state
from repro.environments import ENVIRONMENT_FACTORIES, environment_by_name
from repro.service.fleet import PAPER_FLEET, FleetCampaign, FleetConfig
from repro.service.service import UpdateService
from repro.service.types import FleetReport, UpdateReport, UpdateRequest
from repro.simulation.campaign import CampaignConfig
from repro.simulation.collector import CollectionConfig
from tests.oracles import solve_state_looped


@pytest.fixture(scope="module")
def small_fleet():
    from repro.environments.base import EnvironmentSpec

    specs = {
        "alpha": EnvironmentSpec(
            name="alpha", width_m=8.0, height_m=6.0, link_count=4, locations_per_link=5
        ),
        "beta": EnvironmentSpec(
            name="beta", width_m=8.0, height_m=6.0, link_count=3, locations_per_link=4
        ),
    }
    config = FleetConfig(
        environments=tuple(specs),
        campaign=CampaignConfig(
            timestamps_days=(0.0, 45.0),
            collection=CollectionConfig(
                survey_samples=3, reference_samples=2, online_samples=1
            ),
            seed=3,
        ),
    )
    return FleetCampaign(specs=specs, config=config)


@pytest.fixture(scope="module")
def sample_request(small_fleet):
    return small_fleet.build_requests(45.0)[0]


class TestEnvironmentRegistry:
    def test_registry_covers_paper_fleet(self):
        assert set(PAPER_FLEET) <= set(ENVIRONMENT_FACTORIES)

    def test_environment_by_name_builds_spec(self):
        spec = environment_by_name("office", link_count=4, locations_per_link=5)
        assert spec.name == "office"
        assert spec.link_count == 4
        assert spec.total_locations == 20

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValueError, match="unknown environment"):
            environment_by_name("warehouse")


class TestUpdateRequestValidation:
    def test_valid_request_normalises_indices(self, sample_request):
        assert all(isinstance(i, int) for i in sample_request.reference_indices)

    def test_empty_site_rejected(self, sample_request):
        with pytest.raises(ValueError, match="site"):
            UpdateRequest(
                site="",
                baseline=sample_request.baseline,
                no_decrease_matrix=sample_request.no_decrease_matrix,
                no_decrease_mask=sample_request.no_decrease_mask,
                reference_matrix=sample_request.reference_matrix,
            )

    def test_baseline_type_checked(self, sample_request):
        with pytest.raises(TypeError, match="FingerprintMatrix"):
            UpdateRequest(
                site="x",
                baseline=sample_request.baseline.values,
                no_decrease_matrix=sample_request.no_decrease_matrix,
                no_decrease_mask=sample_request.no_decrease_mask,
                reference_matrix=sample_request.reference_matrix,
            )

    def test_shape_mismatch_rejected(self, sample_request):
        with pytest.raises(ValueError, match="does not match the baseline"):
            UpdateRequest(
                site="x",
                baseline=sample_request.baseline,
                no_decrease_matrix=sample_request.no_decrease_matrix[:, :-1],
                no_decrease_mask=sample_request.no_decrease_mask[:, :-1],
                reference_matrix=sample_request.reference_matrix,
            )

    def test_non_binary_mask_rejected(self, sample_request):
        with pytest.raises(ValueError, match="only 0 and 1"):
            UpdateRequest(
                site="x",
                baseline=sample_request.baseline,
                no_decrease_matrix=sample_request.no_decrease_matrix,
                no_decrease_mask=np.full_like(sample_request.no_decrease_mask, 0.5),
                reference_matrix=sample_request.reference_matrix,
            )

    def test_reference_row_count_checked(self, sample_request):
        with pytest.raises(ValueError, match="one row per link"):
            UpdateRequest(
                site="x",
                baseline=sample_request.baseline,
                no_decrease_matrix=sample_request.no_decrease_matrix,
                no_decrease_mask=sample_request.no_decrease_mask,
                reference_matrix=sample_request.reference_matrix[:-1, :],
            )

    def test_reference_index_count_checked(self, sample_request):
        with pytest.raises(ValueError, match="one column per reference index"):
            UpdateRequest(
                site="x",
                baseline=sample_request.baseline,
                no_decrease_matrix=sample_request.no_decrease_matrix,
                no_decrease_mask=sample_request.no_decrease_mask,
                reference_matrix=sample_request.reference_matrix,
                reference_indices=(0,),
            )


class TestUpdateService:
    def test_empty_fleet_is_a_noop(self):
        assert UpdateService().update_fleet([]) == []

    def test_duplicate_sites_rejected(self, sample_request):
        with pytest.raises(ValueError, match="duplicate site"):
            UpdateService().update_fleet([sample_request, sample_request])

    def test_report_exposes_result_fields(self, sample_request):
        report = UpdateService().update(sample_request)
        assert isinstance(report, UpdateReport)
        assert report.site == sample_request.site
        assert report.estimate.shape == sample_request.baseline.shape
        assert report.sweeps >= 1
        assert np.isfinite(report.objective)

    def test_mic_lrr_recomputed_without_correlation(self, sample_request):
        bare = UpdateRequest(
            site=sample_request.site,
            baseline=sample_request.baseline,
            no_decrease_matrix=sample_request.no_decrease_matrix,
            no_decrease_mask=sample_request.no_decrease_mask,
            reference_matrix=sample_request.reference_matrix,
            reference_indices=sample_request.reference_indices,
            config=sample_request.config,
            rng=sample_request.rng,
        )
        with_cache = UpdateService().update(sample_request)
        without_cache = UpdateService().update(bare)
        np.testing.assert_allclose(
            with_cache.estimate, without_cache.estimate, atol=1e-10, rtol=0.0
        )


class TestFleetCampaign:
    def test_default_fleet_uses_registry_names(self):
        config = FleetConfig()
        assert config.environments == PAPER_FLEET

    def test_sites_and_campaign_access(self, small_fleet):
        assert small_fleet.sites == ("alpha", "beta")
        assert small_fleet.campaign("alpha").spec.name == "alpha"
        with pytest.raises(ValueError, match="unknown site"):
            small_fleet.campaign("gamma")

    def test_sites_get_distinct_seeds(self, small_fleet):
        seeds = [c.config.seed for c in small_fleet.campaigns.values()]
        assert len(set(seeds)) == len(seeds)

    def test_refresh_grades_against_ground_truth(self, small_fleet):
        report = small_fleet.refresh(45.0)
        assert isinstance(report, FleetReport)
        assert set(report.errors_db) == {"alpha", "beta"}
        assert set(report.stale_errors_db) == {"alpha", "beta"}
        # The refreshed databases must beat doing nothing.
        for site in small_fleet.sites:
            assert report.errors_db[site] < report.stale_errors_db[site]
        assert report.stacked_sweeps >= 1
        aggregate = report.aggregate()
        assert aggregate["sites"] == 2.0
        assert aggregate["mean_error_db"] < aggregate["mean_stale_error_db"]
        assert report.report_for("alpha").site == "alpha"
        with pytest.raises(KeyError):
            report.report_for("gamma")

    def test_invalid_fleet_configs_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FleetConfig(environments=())
        with pytest.raises(ValueError, match="duplicate"):
            FleetConfig(environments=("office", "office"))
        with pytest.raises(ValueError, match="at least one site"):
            FleetCampaign(specs={})


class TestStackedDriver:
    def make_states(self, count=3, seed=0):
        rng = np.random.default_rng(seed)
        states = []
        for k in range(count):
            links, width = 3 + k, 4
            truth = rng.normal(size=(links, 2)) @ rng.normal(size=(2, links * width))
            mask = (rng.random(truth.shape) < 0.7).astype(float)
            config = SelfAugmentedConfig(
                rank=3, regularization=0.5, max_iterations=6, use_structure_constraint=False
            )
            states.append(
                SweepState(truth * mask, mask, width, config=config, rng=k)
            )
        return states

    def test_lockstep_matches_standalone_batched(self):
        stacked_results = solve_shard(self.make_states()).results
        standalone_results = [
            solve_state(state) for state in self.make_states()
        ]
        for got, expect in zip(stacked_results, standalone_results):
            np.testing.assert_allclose(
                got.estimate, expect.estimate, atol=1e-12, rtol=0.0
            )
            assert got.iterations == expect.iterations
            assert got.converged == expect.converged

    def test_empty_state_list_is_a_noop(self):
        assert run_stacked_sweeps([]) == 0
        assert solve_shard([]) == ShardResult(results=(), sweeps=0)

    def test_looped_backend_keeps_state_bookkeeping(self):
        """The looped oracle must leave the state's convergence bookkeeping
        consistent with the returned result."""
        rng = np.random.default_rng(4)
        links, width = 4, 5
        truth = rng.normal(size=(links, 2)) @ rng.normal(size=(2, links * width))
        mask = (rng.random(truth.shape) < 0.7).astype(float)
        config = SelfAugmentedConfig(
            rank=3,
            regularization=0.5,
            max_iterations=6,
            use_structure_constraint=False,
        )
        state = SweepState(truth * mask, mask, width, config=config, rng=1)
        result = solve_state_looped(state)
        assert state.iterations == result.iterations >= 1
        assert state.converged == result.converged
        assert float(state.previous_objective) == result.objective
        np.testing.assert_allclose(
            state.finalize().estimate, result.estimate, atol=0.0, rtol=0.0
        )
