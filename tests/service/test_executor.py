"""Distributed scatter-gather execution must be invisible in the results.

The acceptance bar of the executor subsystem: refreshing a 128-site
synthetic fleet through ``ProcessExecutor`` with any worker count {1, 2, 4}
produces a fleet report **bit-identical** to ``SerialExecutor`` — same
estimates, same sweep counts, same executed plan — because workers
rehydrate their shards from the exact wire bytes, re-run the deterministic
preparation path from the request seeds, and batched LU factorises each
slice independently.
"""

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.service.executor import (
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    _solve_shard_payload,
    resolve_executor,
    scatter_request,
)
from repro.io import requests_from_bytes, requests_to_bytes
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.synthetic import synthesize_fleet

FLEET_SITES = 128
SHARD_BUDGET = 16 * 1024  # forces a dozen-ish shards at this fleet size


@pytest.fixture(scope="module")
def fleet_requests():
    """A 128-site synthetic fleet with two factorisation ranks (CI-sized)."""
    return synthesize_fleet(
        FLEET_SITES,
        elapsed_days=45.0,
        seed=11,
        link_count=(3, 4),
        locations_per_link=3,
        updater=UpdaterConfig(solver=SelfAugmentedConfig(max_iterations=6)),
    )


@pytest.fixture(scope="module")
def serial_refresh(fleet_requests):
    service = UpdateService()
    reports = service.update_fleet(
        fleet_requests, shards=ShardConfig(max_stack_bytes=SHARD_BUDGET)
    )
    return service.last_plan, reports


class TestProcessExecutorParity:
    """ISSUE 5 acceptance: workers {1, 2, 4} bit-identical to serial."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_bit_identical_to_serial(
        self, fleet_requests, serial_refresh, workers
    ):
        serial_plan, serial_reports = serial_refresh
        service = UpdateService()
        reports = service.update_fleet(
            fleet_requests,
            shards=ShardConfig(max_stack_bytes=SHARD_BUDGET),
            executor=ProcessExecutor(workers),
        )
        assert len(reports) == FLEET_SITES
        for expected, got in zip(serial_reports, reports):
            assert got.site == expected.site
            np.testing.assert_array_equal(
                got.estimate,
                expected.estimate,
                err_msg=f"{workers}-worker estimate diverged for {got.site}",
            )
            np.testing.assert_array_equal(
                got.result.solver.left, expected.result.solver.left
            )
            np.testing.assert_array_equal(
                got.result.solver.right, expected.result.solver.right
            )
            assert got.sweeps == expected.sweeps
            assert got.converged == expected.converged
        # The executed plan must also match shard for shard: same members,
        # same sweep counts, no fallbacks.
        assert service.last_plan.shard_count == serial_plan.shard_count
        for ours, theirs in zip(service.last_plan.shards, serial_plan.shards):
            assert ours.members == theirs.members
            assert ours.sweeps == theirs.sweeps
            assert not ours.fallback

    def test_unsharded_plan_also_scatters(self, fleet_requests, serial_refresh):
        """shards=None (one shard per rank group) still round-trips workers."""
        _, serial_reports = serial_refresh
        service = UpdateService()
        reports = service.update_fleet(
            fleet_requests, executor=ProcessExecutor(2)
        )
        assert service.last_plan.shard_count == 2  # two ranks, unbounded
        for expected, got in zip(serial_reports, reports):
            np.testing.assert_array_equal(got.estimate, expected.estimate)

    def test_executor_recorded_on_service(self, fleet_requests):
        service = UpdateService()
        executor = ProcessExecutor(3)
        service.update_fleet(fleet_requests[:4], executor=executor)
        assert service.last_executor is executor
        assert service.last_executor.name == "process"
        assert service.last_executor.workers == 3


class TestWorkerPayloadPath:
    def test_requests_round_trip_in_memory(self, fleet_requests):
        payload = requests_to_bytes(fleet_requests[:3])
        assert isinstance(payload, bytes)
        restored = requests_from_bytes(payload)
        assert [r.site for r in restored] == [r.site for r in fleet_requests[:3]]
        for original, loaded in zip(fleet_requests[:3], restored):
            np.testing.assert_array_equal(
                loaded.no_decrease_matrix, original.no_decrease_matrix
            )
            np.testing.assert_array_equal(
                loaded.baseline.values, original.baseline.values
            )
            assert loaded.rng == original.rng
            assert loaded.config == original.config

    def test_worker_function_matches_in_process_solve(self, fleet_requests):
        """The pool-side entry point is the same solve, byte for byte."""
        from repro.service.prepare import prepare_request
        from repro.core.stacked import solve_shard

        subset = [r for r in fleet_requests[:6] if r.baseline.link_count == 3]
        local = solve_shard([prepare_request(r).state for r in subset])
        remote = _solve_shard_payload(requests_to_bytes(subset), shard_index=0)
        assert remote.sweeps == local.sweeps
        assert not remote.fallback
        for ours, theirs in zip(remote.results, local.results):
            np.testing.assert_array_equal(ours.estimate, theirs.estimate)

    def test_correlation_free_requests_still_bit_identical(self, fleet_requests):
        """Requests without precomputed MIC/LRR scatter bit-identically: the
        coordinator attaches its own correlation results to the payload, so
        workers neither recompute the ingest stage nor diverge from it."""
        from dataclasses import replace

        stripped = [replace(r, correlation=None) for r in fleet_requests[:6]]
        serial = UpdateService().update_fleet(stripped)
        scattered = UpdateService().update_fleet(
            stripped, executor=ProcessExecutor(2)
        )
        for expected, got in zip(serial, scattered):
            np.testing.assert_array_equal(got.estimate, expected.estimate)
            assert got.result.mic.indices == expected.result.mic.indices

    def test_scatter_request_attaches_coordinator_correlation(
        self, fleet_requests
    ):
        from dataclasses import replace

        from repro.service.prepare import prepare_request

        bare = replace(fleet_requests[0], correlation=None)
        site = prepare_request(bare)
        scattered = scatter_request(site)
        assert scattered.correlation == (site.mic, site.lrr)
        # Requests that already carry one pass through untouched.
        carried = prepare_request(fleet_requests[0])
        assert scatter_request(carried) is fleet_requests[0]

    def test_live_generator_seed_rejected(self, fleet_requests):
        from dataclasses import replace

        request = replace(fleet_requests[0], rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="integer seed"):
            UpdateService().update_fleet([request], executor=ProcessExecutor(1))

    def test_none_seed_rejected(self, fleet_requests):
        """rng=None is legal serially but a worker could not reproduce it."""
        from dataclasses import replace

        request = replace(fleet_requests[0], rng=None)
        with pytest.raises(ValueError, match="integer seed"):
            UpdateService().update_fleet([request], executor=ProcessExecutor(1))
        # ... while the serial default still accepts it.
        reports = UpdateService().update_fleet([request])
        assert reports[0].site == request.site

    def test_seed_error_names_offending_site(self, fleet_requests):
        """ISSUE 9 satellite: the non-integer-seed error must say *which*
        site cannot be scattered, not just that one exists."""
        from dataclasses import replace

        request = replace(
            fleet_requests[0], rng=np.random.default_rng(1), site="flaky-site"
        )
        with pytest.raises(ValueError, match="flaky-site"):
            UpdateService().update_fleet([request], executor=ProcessExecutor(1))


class TestWorkerFailureContext:
    """ISSUE 8 satellite: worker-side failures must name the shard's sites."""

    def test_worker_failure_names_shard_sites(self, fleet_requests, monkeypatch):
        """A worker that dies rehydrating its payload raises with the site
        ids of the failing shard, not just a bare pool traceback."""
        import repro.io.wire as wire

        monkeypatch.setattr(
            wire, "requests_to_bytes", lambda requests: b"not an npz payload"
        )
        subset = fleet_requests[:4]
        with pytest.raises(RuntimeError) as excinfo:
            UpdateService().update_fleet(subset, executor=ProcessExecutor(2))
        message = str(excinfo.value)
        assert "worker failed solving shard" in message
        assert any(request.site in message for request in subset), message

    def test_healthy_fleet_unaffected_by_error_path(self, fleet_requests):
        """The wrapper only fires on failure; healthy runs stay identical."""
        subset = fleet_requests[:4]
        serial = UpdateService().update_fleet(subset)
        scattered = UpdateService().update_fleet(
            subset, executor=ProcessExecutor(2)
        )
        for expected, got in zip(serial, scattered):
            np.testing.assert_array_equal(got.estimate, expected.estimate)


class TestPooledProcessExecutor:
    """ProcessExecutor over a caller-owned pool (the daemon's shared pool)
    keeps the bit-parity contract."""

    def test_shared_pool_bit_identical_to_serial(
        self, fleet_requests, serial_refresh
    ):
        from concurrent.futures import ProcessPoolExecutor

        serial_plan, serial_reports = serial_refresh
        with ProcessPoolExecutor(max_workers=2) as pool:
            service = UpdateService()
            reports = service.update_fleet(
                fleet_requests,
                shards=ShardConfig(max_stack_bytes=SHARD_BUDGET),
                executor=ProcessExecutor(2, pool=pool),
            )
            for expected, got in zip(serial_reports, reports):
                np.testing.assert_array_equal(got.estimate, expected.estimate)
                assert got.sweeps == expected.sweeps
            assert service.last_plan.shard_count == serial_plan.shard_count
            # The pool belongs to the caller: execute() must not shut it down.
            assert pool.submit(int, 7).result() == 7

    def test_window_budget_of_one_still_completes(self, fleet_requests):
        """max_workers caps in-flight shards, not total shards."""
        from concurrent.futures import ProcessPoolExecutor

        subset = fleet_requests[:8]
        serial = UpdateService().update_fleet(
            subset, shards=ShardConfig(max_stack_bytes=SHARD_BUDGET)
        )
        with ProcessPoolExecutor(max_workers=2) as pool:
            scattered = UpdateService().update_fleet(
                subset,
                shards=ShardConfig(max_stack_bytes=SHARD_BUDGET),
                executor=ProcessExecutor(1, pool=pool),
            )
        for expected, got in zip(serial, scattered):
            np.testing.assert_array_equal(got.estimate, expected.estimate)

    def test_name_and_subclass(self):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            executor = ProcessExecutor(3, pool=pool)
            assert executor.name == "process"
            assert executor.workers == 3


class TestExecutorResolution:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert resolve_executor(None).name == "serial"
        assert resolve_executor(None).workers == 0

    def test_string_names(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)

    def test_instance_passes_through(self):
        executor = ProcessExecutor(2)
        assert resolve_executor(executor) is executor

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("threads")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="ShardExecutor"):
            resolve_executor(4)

    def test_process_executor_validates_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            ProcessExecutor(0)

    def test_default_worker_count_is_cpu_count(self):
        import os

        assert ProcessExecutor().workers == (os.cpu_count() or 1)

    def test_subclass_contract(self):
        assert issubclass(SerialExecutor, ShardExecutor)
        assert issubclass(ProcessExecutor, ShardExecutor)


class TestReportBookkeeping:
    def test_fleet_report_records_executor(self, fleet_requests):
        from repro.service.types import FleetReport

        service = UpdateService()
        executor = ProcessExecutor(2)
        reports = service.update_fleet(fleet_requests[:4], executor=executor)
        report = FleetReport(
            elapsed_days=45.0,
            reports=tuple(reports),
            plan=service.last_plan,
            executor=service.last_executor.name,
            workers=service.last_executor.workers,
        )
        assert report.executor == "process"
        assert report.workers == 2
        assert report.aggregate()["workers"] == 2.0

    def test_campaign_refresh_records_executor(self):
        from repro.service.fleet import FleetCampaign, FleetConfig
        from repro.simulation.campaign import CampaignConfig
        from repro.simulation.collector import CollectionConfig
        from repro.environments import environment_by_name

        specs = {
            "office": environment_by_name(
                "office", link_count=3, locations_per_link=3
            )
        }
        fleet = FleetCampaign(
            specs=specs,
            config=FleetConfig(
                environments=("office",),
                campaign=CampaignConfig(
                    timestamps_days=(0.0, 45.0),
                    collection=CollectionConfig(
                        survey_samples=3, reference_samples=2, online_samples=1
                    ),
                    seed=5,
                ),
            ),
        )
        serial = fleet.refresh(45.0)
        assert serial.executor == "serial"
        assert serial.workers == 0
        # (No estimate comparison across refreshes: every refresh collects
        # fresh measurements from the stateful simulated channel.  Executor
        # parity on identical requests is pinned in
        # TestProcessExecutorParity.)
        scattered = fleet.refresh(45.0, executor=ProcessExecutor(2))
        assert scattered.executor == "process"
        assert scattered.workers == 2


class TestWorkerCountValidation:
    """ISSUE 10 satellite: a uniform, named error across every backend."""

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_process_executor_rejects_non_positive(self, bad):
        from repro.service.executor import InvalidWorkerCountError

        with pytest.raises(InvalidWorkerCountError, match="at least 1"):
            ProcessExecutor(bad)

    @pytest.mark.parametrize("bad", [2.5, "4", True, [2]])
    def test_process_executor_rejects_non_integers(self, bad):
        from repro.service.executor import InvalidWorkerCountError

        with pytest.raises(InvalidWorkerCountError, match="integer"):
            ProcessExecutor(bad)

    def test_pooled_executor_rejects_bad_counts(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.service.executor import InvalidWorkerCountError

        pool = ProcessPoolExecutor(max_workers=1)
        try:
            with pytest.raises(InvalidWorkerCountError, match="ProcessExecutor"):
                ProcessExecutor(0, pool=pool)
            with pytest.raises(InvalidWorkerCountError, match="integer"):
                ProcessExecutor(1.5, pool=pool)
        finally:
            pool.shutdown()

    def test_remote_executor_rejects_bad_counts(self):
        from repro.service.executor import InvalidWorkerCountError
        from repro.service.remote import RemoteExecutor

        with pytest.raises(InvalidWorkerCountError, match="RemoteExecutor"):
            RemoteExecutor(["http://127.0.0.1:1"], max_workers=0)
        with pytest.raises(InvalidWorkerCountError, match="integer"):
            RemoteExecutor(["http://127.0.0.1:1"], max_workers=2.5)

    def test_error_is_a_value_error(self):
        from repro.service.executor import InvalidWorkerCountError

        assert issubclass(InvalidWorkerCountError, ValueError)

    def test_error_names_the_owner(self):
        from repro.service.executor import InvalidWorkerCountError

        with pytest.raises(InvalidWorkerCountError, match="ProcessExecutor"):
            ProcessExecutor(-2)
