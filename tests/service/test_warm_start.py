"""Warm-started fleet refreshes: ``update_fleet(..., warm_from=...)``.

Covers the service-level warm-start seam end to end: unchanged fleets
converging without sweeps bit for bit, the per-site ``sweeps_saved``
accounting, cold fallbacks when the previous report cannot seed a site,
parity between serial and remote scatter, the wire round-trip
of warm factors on requests and ``warm_started`` / ``sweeps_saved`` on
reports, the derived ``stop_reason``, and a guard at the default solver
config: a drifted warm start still sweeps and stays within +0.05 dB of a
cold solve.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.io.wire import load_report, load_requests, save_report, save_requests
from repro.service.fleet import FleetCampaign, FleetConfig
from repro.service.remote import RemoteExecutor
from repro.service.service import UpdateService
from repro.service.synthetic import synthesize_fleet
from repro.service.types import FleetReport, WarmFactors
from repro.simulation.campaign import CampaignConfig
from repro.simulation.collector import CollectionConfig

from tests.workers import running_workers

#: Warm-start accuracy gate: a warm refresh may be this much worse than a
#: cold solve of the same requests.
WARM_GATE_DB = 0.05


@pytest.fixture(scope="module")
def base_generation():
    """A small fleet plus its cold refresh (the previous generation)."""
    requests = synthesize_fleet(
        4,
        elapsed_days=45.0,
        seed=11,
        link_count=3,
        locations_per_link=4,
        updater=UpdaterConfig(
            solver=SelfAugmentedConfig(max_iterations=60, tolerance=1e-4)
        ),
    )
    service = UpdateService()
    reports = service.update_fleet(requests)
    report = FleetReport(elapsed_days=45.0, reports=tuple(reports))
    return requests, report


class TestWarmFrom:
    def test_unchanged_fleet_converges_without_sweeps_bit_identical(
        self, base_generation
    ):
        requests, base = base_generation
        service = UpdateService()
        warm = service.update_fleet(requests, warm_from=base)
        for previous, report in zip(base.reports, warm):
            assert report.warm_started
            assert report.sweeps == 0
            np.testing.assert_array_equal(previous.estimate, report.estimate)
            np.testing.assert_array_equal(
                previous.result.solver.left, report.result.solver.left
            )
            np.testing.assert_array_equal(
                previous.result.solver.right, report.result.solver.right
            )

    def test_sweeps_saved_recorded_per_site(self, base_generation):
        requests, base = base_generation
        service = UpdateService()
        service.update_fleet(requests, warm_from=base)
        saved = service.last_sweeps_saved
        assert saved == {r.site: r.sweeps for r in base.reports}
        assert all(v > 0 for v in saved.values())

    def test_cold_run_resets_sweeps_saved(self, base_generation):
        requests, base = base_generation
        service = UpdateService()
        service.update_fleet(requests, warm_from=base)
        assert service.last_sweeps_saved
        service.update_fleet(requests)
        assert service.last_sweeps_saved == {}

    def test_cold_reports_not_warm_started(self, base_generation):
        requests, base = base_generation
        assert not any(r.warm_started for r in base.reports)

    def test_missing_site_falls_back_to_cold(self, base_generation):
        requests, base = base_generation
        shrunken = replace(base, reports=base.reports[1:])
        service = UpdateService()
        reports = service.update_fleet(requests, warm_from=shrunken)
        assert not reports[0].warm_started
        assert reports[0].sweeps > 0
        assert all(r.warm_started for r in reports[1:])
        assert requests[0].site not in service.last_sweeps_saved

    def test_explicit_warm_start_on_request_wins(self, base_generation):
        requests, base = base_generation
        previous = base.reports[0].result.solver
        explicit = replace(
            requests[0],
            warm_start=WarmFactors(
                left=previous.left,
                right=previous.right,
                objective=previous.objective,
            ),
        )
        service = UpdateService()
        reports = service.update_fleet([explicit], warm_from=base)
        assert reports[0].warm_started
        assert reports[0].sweeps == 0

    def test_warm_parity_serial_vs_remote(self, base_generation):
        requests, base = base_generation
        serial = UpdateService().update_fleet(requests, warm_from=base)
        with running_workers(2) as servers:
            scattered = UpdateService().update_fleet(
                requests,
                shards=2,
                executor=RemoteExecutor([server.url for server in servers]),
                warm_from=base,
            )
        for a, b in zip(serial, scattered):
            assert a.warm_started == b.warm_started
            assert a.sweeps == b.sweeps == 0
            np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_fleet_report_aggregate_counts_warm_sites(self, base_generation):
        requests, base = base_generation
        service = UpdateService()
        reports = service.update_fleet(requests, warm_from=base)
        warm_report = FleetReport(
            elapsed_days=45.0,
            reports=tuple(reports),
            sweeps_saved=service.last_sweeps_saved,
        )
        summary = warm_report.aggregate()
        assert summary["warm_sites"] == len(requests)
        assert summary["stop_unchanged"] == len(requests)
        assert summary["stop_tolerance"] == summary["stop_budget"] == 0.0
        assert summary["sweeps_saved"] == sum(
            service.last_sweeps_saved.values()
        )


@pytest.fixture(scope="module", params=(1, 2, 3))
def default_generations(request):
    """A paper-scale three-environment fleet at the default solver config:
    the day-45 requests with their cold refresh, the day-46 requests and the
    day-46 ground truths."""
    campaign = FleetCampaign(
        config=FleetConfig(
            campaign=CampaignConfig(
                timestamps_days=(0.0, 45.0, 46.0),
                collection=CollectionConfig(
                    survey_samples=3, reference_samples=2, online_samples=1
                ),
                seed=1000 * request.param,
            )
        )
    )
    before = campaign.build_requests(45.0)
    previous = FleetReport(
        elapsed_days=45.0, reports=tuple(UpdateService().update_fleet(before))
    )
    after = campaign.build_requests(46.0)
    truths = [campaign.campaign(site).ground_truth(46.0) for site in campaign.sites]
    return before, previous, after, truths


class TestWarmStartAtDefaultConfig:
    """The estimate-change stop must not let a warm start skip real drift
    or trade accuracy for sweeps."""

    def test_drifted_data_sweeps_and_matches_the_cold_solve(
        self, default_generations
    ):
        before, previous, after, truths = default_generations
        for old, new in zip(before, after):
            both = (old.no_decrease_mask * new.no_decrease_mask) > 0
            drift = np.abs(new.no_decrease_matrix - old.no_decrease_matrix)[both]
            assert drift.mean() >= 0.3
        service = UpdateService()
        cold = service.update_fleet(after)
        warm = service.update_fleet(after, warm_from=previous)
        for a, b, truth in zip(cold, warm, truths):
            assert b.warm_started and b.sweeps >= 1
            assert b.stop_reason != "warm-unchanged"
            cold_error = a.matrix.reconstruction_error_db(truth)
            gap = b.matrix.reconstruction_error_db(truth) - cold_error
            assert gap <= WARM_GATE_DB, (b.site, gap)

    def test_unchanged_data_takes_zero_sweeps_bit_identical(
        self, default_generations
    ):
        before, previous, _, _ = default_generations
        reports = UpdateService().update_fleet(before, warm_from=previous)
        for old, report in zip(previous.reports, reports):
            assert report.sweeps == 0
            assert report.stop_reason == "warm-unchanged"
            for name in ("left", "right"):
                assert (
                    getattr(report.result.solver, name).tobytes()
                    == getattr(old.result.solver, name).tobytes()
                )
            assert report.estimate.tobytes() == old.estimate.tobytes()


class TestStopReason:
    def test_derived_from_the_wire_fields(self, base_generation):
        report = base_generation[1].reports[0]
        assert replace(report, converged=False).stop_reason == "budget"
        assert replace(report, converged=True).stop_reason == "tolerance"
        warm = replace(report, converged=True, warm_started=True)
        assert replace(warm, sweeps=0).stop_reason == "warm-unchanged"
        assert replace(warm, sweeps=2).stop_reason == "tolerance"
        assert replace(warm, converged=False, sweeps=60).stop_reason == "budget"


class TestWarmStartWire:
    def test_requests_round_trip_warm_factors(self, base_generation, tmp_path):
        requests, base = base_generation
        previous = base.reports[0].result.solver
        warmed = replace(
            requests[0],
            warm_start=WarmFactors(
                left=previous.left,
                right=previous.right,
                objective=previous.objective,
            ),
        )
        path = tmp_path / "requests.npz"
        save_requests(path, [warmed, requests[1]])
        loaded = load_requests(path)
        assert loaded[0].warm_start is not None
        np.testing.assert_array_equal(loaded[0].warm_start.left, previous.left)
        np.testing.assert_array_equal(
            loaded[0].warm_start.right, previous.right
        )
        assert loaded[0].warm_start.objective == previous.objective
        assert loaded[1].warm_start is None

    def test_loaded_requests_warm_start_equivalently(
        self, base_generation, tmp_path
    ):
        requests, base = base_generation
        service = UpdateService()
        warmed = [
            service._warm_request(request, base) for request in requests
        ]
        path = tmp_path / "requests.npz"
        save_requests(path, warmed)
        reports = UpdateService().update_fleet(load_requests(path))
        for previous, report in zip(base.reports, reports):
            assert report.warm_started
            assert report.sweeps == 0
            np.testing.assert_array_equal(previous.estimate, report.estimate)

    def test_report_round_trips_warm_metadata(self, base_generation, tmp_path):
        requests, base = base_generation
        service = UpdateService()
        reports = service.update_fleet(requests, warm_from=base)
        warm_report = FleetReport(
            elapsed_days=45.0,
            reports=tuple(reports),
            sweeps_saved=service.last_sweeps_saved,
        )
        path = tmp_path / "report.npz"
        save_report(path, warm_report)
        loaded = load_report(path)
        assert loaded.sweeps_saved == service.last_sweeps_saved
        assert all(r.warm_started for r in loaded.reports)
        for a, b in zip(warm_report.reports, loaded.reports):
            np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_pre_delta_report_loads_cold(self, base_generation, tmp_path):
        # Reports written before the warm-start keys existed (no
        # warm_started / sweeps_saved) must load with cold defaults.
        requests, base = base_generation
        path = tmp_path / "report.npz"
        save_report(path, base)
        loaded = load_report(path)
        assert loaded.sweeps_saved == {}
        assert not any(r.warm_started for r in loaded.reports)


class TestWarmFactorsValidation:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            WarmFactors(left=np.zeros((3, 2)), right=np.zeros((12, 3)))

    def test_request_shape_mismatch_rejected(self, base_generation):
        requests, base = base_generation
        m, n = requests[0].baseline.shape
        with pytest.raises(ValueError):
            replace(
                requests[0],
                warm_start=WarmFactors(
                    left=np.zeros((m + 1, m)), right=np.zeros((n, m))
                ),
            )

    def test_shape_mismatched_previous_factors_fall_back_to_cold(
        self, base_generation
    ):
        requests, base = base_generation
        # Wreck one site's previous factors so _warm_request must skip it.
        first = base.reports[0]
        solver = first.result.solver
        broken_solver = replace(
            solver,
            left=solver.left[:, :1],
            right=solver.right[:, :1],
        )
        broken_report = replace(
            first, result=replace(first.result, solver=broken_solver)
        )
        broken = replace(
            base, reports=(broken_report,) + base.reports[1:]
        )
        service = UpdateService()
        reports = service.update_fleet(requests, warm_from=broken)
        assert not reports[0].warm_started
        assert all(r.warm_started for r in reports[1:])
