"""Parity: a fleet-stacked update must match independent per-site updates.

The acceptance bar of the fleet service: refreshing N sites through one
``UpdateService.refresh_fleet`` call (every sweep stacked into one batched
solve per distinct rank, heterogeneous shapes concatenated into one
workload) produces, per site, the same estimate as N independent
``IUpdater.update()`` runs to ≤ 1e-10 — in practice bit-identical, because
batched LU factorises each slice independently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stacked import sweep_stack_nbytes
from repro.core.updater import IUpdater
from repro.environments.base import EnvironmentSpec
from repro.service.fleet import FleetCampaign, FleetConfig
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.simulation.campaign import CampaignConfig
from repro.simulation.collector import CollectionConfig

PARITY_TOL = 1e-10
ELAPSED_DAYS = 45.0

# Deliberately heterogeneous shapes AND ranks (rank defaults to link count),
# so the stacked solve exercises the rank-grouping path.
SITE_SHAPES = {
    "office-like": (4, 6),
    "hall-like": (3, 5),
    "library-like": (5, 4),
}


def make_spec(name: str, links: int, width: int) -> EnvironmentSpec:
    return EnvironmentSpec(
        name=name,
        width_m=8.0,
        height_m=6.0,
        link_count=links,
        locations_per_link=width,
        multipath_level="medium",
    )


@pytest.fixture(scope="module")
def fleet() -> FleetCampaign:
    specs = {
        name: make_spec(name, links, width)
        for name, (links, width) in SITE_SHAPES.items()
    }
    config = FleetConfig(
        environments=tuple(specs),
        campaign=CampaignConfig(
            timestamps_days=(0.0, ELAPSED_DAYS),
            collection=CollectionConfig(
                survey_samples=3, reference_samples=2, online_samples=1
            ),
            seed=5,
        ),
    )
    return FleetCampaign(specs=specs, config=config)


@pytest.fixture(scope="module")
def requests(fleet):
    """One set of collected measurements, shared by both update paths."""
    return fleet.build_requests(ELAPSED_DAYS)


@pytest.fixture(scope="module")
def fleet_reports(fleet, requests):
    return fleet.service.refresh_fleet(requests).reports


class TestFleetParity:
    def test_three_sites_match_independent_updates(self, fleet, requests, fleet_reports):
        assert len(fleet_reports) == len(SITE_SHAPES)
        for request, report in zip(requests, fleet_reports):
            updater = fleet.updater(request.site)
            independent = updater.update(
                no_decrease_matrix=request.no_decrease_matrix,
                no_decrease_mask=request.no_decrease_mask,
                reference_matrix=request.reference_matrix,
                reference_indices=request.reference_indices,
            )
            np.testing.assert_allclose(
                report.estimate,
                independent.estimate,
                atol=PARITY_TOL,
                rtol=0.0,
                err_msg=f"fleet-stacked estimate diverged for site {request.site}",
            )
            assert report.sweeps == independent.solver.iterations
            assert report.converged == independent.solver.converged
            assert report.result.reference_indices == independent.reference_indices

    def test_report_order_matches_request_order(self, requests, fleet_reports):
        assert [r.site for r in fleet_reports] == [r.site for r in requests]

    def test_sites_solve_on_the_batched_backend(self, requests):
        """Every site rides the stacked solve: the plan covers all of them."""
        plan = UpdateService().refresh_fleet(requests).plan
        planned = sorted(m for shard in plan.shards for m in shard.members)
        assert planned == list(range(len(requests)))

    def test_solver_metadata_matches_shapes(self, fleet, fleet_reports):
        for report in fleet_reports:
            links, width = SITE_SHAPES[report.site]
            assert report.matrix.shape == (links, links * width)

    def test_single_site_fleet_matches_updater(self, fleet, requests):
        request = requests[0]
        report = UpdateService().update(request)
        independent = fleet.updater(request.site).update(
            request.no_decrease_matrix,
            request.no_decrease_mask,
            request.reference_matrix,
            request.reference_indices,
        )
        np.testing.assert_allclose(
            report.estimate, independent.estimate, atol=PARITY_TOL, rtol=0.0
        )


class TestShardParity:
    """Acceptance bar of the sharded scheduler: any shard split of a
    mixed-rank, mixed-shape fleet is bit-identical to any other, and matches
    standalone ``IUpdater.update`` runs to ≤ 1e-10."""

    # Three rank-4 sites of different widths (one shared rank group that can
    # actually be split) plus a rank-3 and a rank-5 site.
    SHARD_SITE_SHAPES = {
        "office-a": (4, 6),
        "office-b": (4, 8),
        "hall-like": (3, 5),
        "library-like": (5, 4),
        "office-c": (4, 5),
    }

    @pytest.fixture(scope="class")
    def shard_fleet(self):
        specs = {
            name: make_spec(name, links, width)
            for name, (links, width) in self.SHARD_SITE_SHAPES.items()
        }
        config = FleetConfig(
            environments=tuple(specs),
            campaign=CampaignConfig(
                timestamps_days=(0.0, ELAPSED_DAYS),
                collection=CollectionConfig(
                    survey_samples=3, reference_samples=2, online_samples=1
                ),
                seed=11,
            ),
        )
        return FleetCampaign(specs=specs, config=config)

    @pytest.fixture(scope="class")
    def shard_requests(self, shard_fleet):
        return shard_fleet.build_requests(ELAPSED_DAYS)

    @pytest.fixture(scope="class")
    def shard_variants(self, shard_requests):
        """Per-site estimates under shard sizes {1, 2-ish, unbounded}."""
        # A budget of two rank-4 sites' stacks forces the rank-4 group into a
        # pair shard plus a singleton; 1 byte forces singletons everywhere;
        # None disables splitting.
        pair_budget = sum(
            8 * links * width * (links * links + links)
            for name, (links, width) in list(self.SHARD_SITE_SHAPES.items())[:2]
        )
        budgets = {"singleton": 1, "pairs": pair_budget, "unbounded": None}
        variants = {}
        for label, budget in budgets.items():
            shards = None if budget is None else ShardConfig(max_stack_bytes=budget)
            report = UpdateService().refresh_fleet(shard_requests, shards=shards)
            variants[label] = (report.plan, report.reports)
        return variants

    def test_budgets_produce_distinct_plans(self, shard_variants):
        shard_counts = {
            label: plan.shard_count for label, (plan, _) in shard_variants.items()
        }
        assert shard_counts["singleton"] == len(self.SHARD_SITE_SHAPES)
        assert shard_counts["unbounded"] == 3  # one shard per distinct rank
        assert (
            shard_counts["unbounded"]
            < shard_counts["pairs"]
            < shard_counts["singleton"]
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_all_shard_splits_are_bit_identical(self, shard_requests, data):
        """Any drawn sub-fleet (mixed ranks, any order) under any budget —
        unbounded, tiny (singleton shards) or mid-sized — refreshes bit for
        bit like its unsharded run, with a plan that covers each site once."""
        fleet = data.draw(
            st.permutations(shard_requests).flatmap(
                lambda order: st.integers(1, len(order)).map(lambda k: order[:k])
            ),
            label="fleet",
        )
        budget = data.draw(
            # Sites need 1,440-5,120 bytes, the rank-4 group 12,160 together.
            st.one_of(st.none(), st.integers(1, 1_000), st.integers(4_000, 12_000)),
            label="max_stack_bytes",
        )
        shards = None if budget is None else ShardConfig(max_stack_bytes=budget)
        report = UpdateService().refresh_fleet(fleet, shards=shards)
        baseline = UpdateService().refresh_fleet(fleet)
        assert report.sites == tuple(request.site for request in fleet)
        for expected, got in zip(baseline.reports, report.reports):
            assert got.estimate.tobytes() == expected.estimate.tobytes(), got.site
            assert got.objective == expected.objective
            assert got.sweeps == expected.sweeps
            assert got.converged == expected.converged
        plan = report.plan
        assert report.stacked_sweeps == max(shard.sweeps for shard in plan.shards)
        assert report.stacked_sweeps == max(r.sweeps for r in report.reports)
        assert sorted(m for shard in plan.shards for m in shard.members) == list(
            range(len(fleet))
        )
        assert sorted(site for shard in plan.shards for site in shard.sites) == sorted(
            report.sites
        )

    def test_sharded_results_match_standalone_updates(
        self, shard_fleet, shard_requests, shard_variants
    ):
        _, reports = shard_variants["pairs"]
        for request, report in zip(shard_requests, reports):
            independent = shard_fleet.updater(request.site).update(
                no_decrease_matrix=request.no_decrease_matrix,
                no_decrease_mask=request.no_decrease_mask,
                reference_matrix=request.reference_matrix,
                reference_indices=request.reference_indices,
            )
            np.testing.assert_allclose(
                report.estimate,
                independent.estimate,
                atol=PARITY_TOL,
                rtol=0.0,
                err_msg=f"sharded estimate diverged for site {request.site}",
            )

    def test_rank_groups_never_pad(self, shard_variants):
        plan, _ = shard_variants["unbounded"]
        for shard in plan.shards:
            links = {site: self.SHARD_SITE_SHAPES[site][0] for site in shard.sites}
            assert set(links.values()) == {shard.rank}

    def test_plan_byte_estimates_match_states(self, shard_requests):
        service = UpdateService()
        plan = service.refresh_fleet(shard_requests, shards=1).plan
        prepared = [service._prepare(request) for request in shard_requests]
        expected = {
            p.request.site: sweep_stack_nbytes(p.state) for p in prepared
        }
        for shard in plan.shards:
            assert shard.stack_bytes == expected[shard.sites[0]]

