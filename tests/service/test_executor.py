"""Scatter-gather execution must be invisible in the results.

The acceptance bar of the executor subsystem: refreshing a 128-site
synthetic fleet through ``RemoteExecutor`` over in-process
``WorkerServer``s with any dispatch width {1, 2, 4} produces a fleet report
**bit-identical** to ``SerialExecutor`` — same estimates, same sweep counts,
same executed plan — because workers rehydrate their shards from the exact
wire bytes, re-run the deterministic preparation path from the request
seeds, and batched LU factorises each slice independently.  The fault
matrix of the remote transport lives in ``test_remote_faults.py``.
"""

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.io import requests_from_bytes, requests_to_bytes
from repro.service.executor import (
    InvalidWorkerCountError,
    SerialExecutor,
    ShardExecutor,
    resolve_executor,
)
from repro.service.remote import (
    RemoteExecutor,
    RemoteShardError,
    _solve_shard_payload,
    scatter_request,
)
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.synthetic import synthesize_fleet

from tests.workers import running_workers

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


@pytest.fixture(scope="module")
def worker_urls():
    """Two live in-process shard workers shared by the module's tests."""
    with running_workers(2) as servers:
        yield [server.url for server in servers]


def remote(urls, max_workers=None):
    """A RemoteExecutor with fast-failing dispatch knobs."""
    return RemoteExecutor(
        urls, timeout=30.0, max_attempts=2, backoff=0.01, max_workers=max_workers
    )


class TestRemoteScatterParity:
    """Any dispatch width over two workers is bit-identical to serial."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_bit_identical_to_serial(
        self, fleet_requests, serial_refresh, worker_urls, workers
    ):
        serial_plan, serial_reports = serial_refresh
        service = UpdateService()
        reports = service.update_fleet(
            fleet_requests,
            shards=ShardConfig(max_stack_bytes=SHARD_BUDGET),
            executor=remote(worker_urls, max_workers=workers),
        )
        assert len(reports) == FLEET_SITES
        for expected, got in zip(serial_reports, reports):
            assert got.site == expected.site
            np.testing.assert_array_equal(
                got.estimate,
                expected.estimate,
                err_msg=f"{workers}-wide estimate diverged for {got.site}",
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

    def test_unsharded_plan_also_scatters(
        self, fleet_requests, serial_refresh, worker_urls
    ):
        """shards=None (one shard per rank group) still round-trips workers."""
        _, serial_reports = serial_refresh
        service = UpdateService()
        reports = service.update_fleet(fleet_requests, executor=remote(worker_urls))
        assert service.last_plan.shard_count == 2  # two ranks, unbounded
        for expected, got in zip(serial_reports, reports):
            np.testing.assert_array_equal(got.estimate, expected.estimate)

    def test_executor_recorded_on_service(self, fleet_requests, worker_urls):
        service = UpdateService()
        executor = remote(worker_urls, max_workers=3)
        service.update_fleet(fleet_requests[:4], executor=executor)
        assert service.last_executor is executor
        assert service.last_executor.name == "remote"
        # workers counts endpoints; max_workers only caps the dispatch width.
        assert service.last_executor.workers == 2


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
        """The worker-side entry point is the same solve, byte for byte."""
        from repro.service.prepare import prepare_request
        from repro.core.stacked import solve_shard

        subset = [r for r in fleet_requests[:6] if r.baseline.link_count == 3]
        local = solve_shard([prepare_request(r).state for r in subset])
        remote = _solve_shard_payload(requests_to_bytes(subset), shard_index=0)
        assert remote.sweeps == local.sweeps
        assert not remote.fallback
        for ours, theirs in zip(remote.results, local.results):
            np.testing.assert_array_equal(ours.estimate, theirs.estimate)

    def test_correlation_free_requests_still_bit_identical(
        self, fleet_requests, worker_urls
    ):
        """Requests without precomputed MIC/LRR scatter bit-identically: the
        coordinator attaches its own correlation results to the payload, so
        workers neither recompute the ingest stage nor diverge from it."""
        from dataclasses import replace

        stripped = [replace(r, correlation=None) for r in fleet_requests[:6]]
        serial = UpdateService().update_fleet(stripped)
        scattered = UpdateService().update_fleet(
            stripped, executor=remote(worker_urls)
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

    def test_live_generator_seed_rejected(self, fleet_requests, worker_urls):
        from dataclasses import replace

        request = replace(fleet_requests[0], rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="integer seed"):
            UpdateService().update_fleet([request], executor=remote(worker_urls))

    def test_none_seed_rejected(self, fleet_requests, worker_urls):
        """rng=None is legal serially but a worker could not reproduce it."""
        from dataclasses import replace

        request = replace(fleet_requests[0], rng=None)
        with pytest.raises(ValueError, match="integer seed"):
            UpdateService().update_fleet([request], executor=remote(worker_urls))
        # ... while the serial default still accepts it.
        reports = UpdateService().update_fleet([request])
        assert reports[0].site == request.site

    def test_seed_error_names_offending_site(self, fleet_requests, worker_urls):
        """The non-integer-seed error must say *which* site cannot be
        scattered, not just that one exists."""
        from dataclasses import replace

        request = replace(
            fleet_requests[0], rng=np.random.default_rng(1), site="flaky-site"
        )
        with pytest.raises(ValueError, match="flaky-site"):
            UpdateService().update_fleet([request], executor=remote(worker_urls))


class TestWorkerFailureContext:
    """Worker-side failures must name the shard's sites."""

    def test_worker_failure_names_shard_sites(
        self, fleet_requests, worker_urls, monkeypatch
    ):
        """A worker that cannot rehydrate its payload fails the shard with
        the site ids of that shard, not just a bare transport error."""
        import repro.service.remote as remote_module

        monkeypatch.setattr(
            remote_module,
            "requests_to_bytes",
            lambda requests: b"not an npz payload",
        )
        subset = fleet_requests[:4]
        with pytest.raises(RemoteShardError) as excinfo:
            UpdateService().update_fleet(subset, executor=remote(worker_urls))
        message = str(excinfo.value)
        assert "worker failed solving shard" in message
        assert any(request.site in message for request in subset), message

    def test_healthy_fleet_unaffected_by_error_path(
        self, fleet_requests, worker_urls
    ):
        """The wrapper only fires on failure; healthy runs stay identical."""
        subset = fleet_requests[:4]
        serial = UpdateService().update_fleet(subset)
        scattered = UpdateService().update_fleet(
            subset, executor=remote(worker_urls)
        )
        for expected, got in zip(serial, scattered):
            np.testing.assert_array_equal(got.estimate, expected.estimate)


class TestExecutorResolution:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert resolve_executor(None).name == "serial"
        assert resolve_executor(None).workers == 0

    def test_string_names(self, fleet_requests):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        # "process" names no backend: refused with what is accepted.
        with pytest.raises(ValueError, match="'serial'.*RemoteExecutor"):
            resolve_executor("process")
        with pytest.raises(ValueError, match="unknown executor 'process'"):
            UpdateService().update_fleet(fleet_requests[:1], executor="process")

    def test_instance_passes_through(self):
        executor = RemoteExecutor(["http://127.0.0.1:1"])
        assert resolve_executor(executor) is executor

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("threads")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="ShardExecutor"):
            resolve_executor(4)

    def test_subclass_contract(self):
        assert issubclass(SerialExecutor, ShardExecutor)
        assert issubclass(RemoteExecutor, ShardExecutor)


class TestReportBookkeeping:
    def test_fleet_report_records_executor(self, fleet_requests, worker_urls):
        from repro.service.types import FleetReport

        service = UpdateService()
        reports = service.update_fleet(
            fleet_requests[:4], executor=remote(worker_urls)
        )
        report = FleetReport(
            elapsed_days=45.0,
            reports=tuple(reports),
            plan=service.last_plan,
            executor=service.last_executor.name,
            workers=service.last_executor.workers,
        )
        assert report.executor == "remote"
        assert report.workers == 2
        assert report.aggregate()["workers"] == 2.0

    def test_campaign_refresh_records_executor(self, worker_urls):
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
        # parity on identical requests is pinned in TestRemoteScatterParity.)
        scattered = fleet.refresh(45.0, executor=remote(worker_urls))
        assert scattered.executor == "remote"
        assert scattered.workers == 2


class TestWorkerCountValidation:
    """A uniform, named error for a bad dispatch width."""

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_remote_executor_rejects_non_positive(self, bad):
        with pytest.raises(InvalidWorkerCountError, match="at least 1"):
            RemoteExecutor(["http://127.0.0.1:1"], max_workers=bad)

    @pytest.mark.parametrize("bad", [2.5, "4", True, [2]])
    def test_remote_executor_rejects_non_integers(self, bad):
        with pytest.raises(InvalidWorkerCountError, match="integer"):
            RemoteExecutor(["http://127.0.0.1:1"], max_workers=bad)

    def test_remote_executor_rejects_bad_counts(self):
        with pytest.raises(InvalidWorkerCountError, match="RemoteExecutor"):
            RemoteExecutor(["http://127.0.0.1:1"], max_workers=0)
        with pytest.raises(InvalidWorkerCountError, match="integer"):
            RemoteExecutor(["http://127.0.0.1:1"], max_workers=2.5)

    def test_error_is_a_value_error(self):
        assert issubclass(InvalidWorkerCountError, ValueError)

    def test_error_names_the_owner(self):
        with pytest.raises(InvalidWorkerCountError, match="RemoteExecutor"):
            RemoteExecutor(["http://127.0.0.1:1"], max_workers=-2)
