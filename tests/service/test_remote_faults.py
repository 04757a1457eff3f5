"""Chaos suite: the remote executor must be invisible in the results.

ISSUE 10 acceptance: ``RemoteExecutor`` produces fleet reports
**bit-identical** to ``SerialExecutor`` for any endpoint count — and under
every injected fault class.  Every robustness claim of the remote
transport (retry with backoff, worker-loss failover, straggler
re-dispatch, fingerprint-deduplicated duplicate completions) is pinned
here by deliberate :class:`~repro.service.remote.FaultPlan` injection
driving the *production* code paths, with the per-site
:func:`~repro.io.delta.report_fingerprint` as the bit-identity oracle and
the executor's dispatch statistics as the accounting oracle.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.io.delta import report_fingerprint
from repro.io.wire import WirePayloadError, shard_task_to_bytes
from repro.service.remote import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    RemoteExecutor,
    RemoteShardError,
)
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.synthetic import synthesize_fleet

from tests.workers import running_workers

FLEET_SITES = 12
SHARD_BUDGET = 8 * 1024  # small enough to split the fleet into several shards

# Fast dispatch knobs for fault scenarios: tight timeout, minimal backoff.
FAST = dict(timeout=5.0, max_attempts=4, backoff=0.02)


@pytest.fixture(scope="module")
def fleet_requests():
    """A 12-site synthetic fleet with two factorisation ranks (CI-sized)."""
    return synthesize_fleet(
        FLEET_SITES,
        elapsed_days=45.0,
        seed=23,
        link_count=(3, 4),
        locations_per_link=3,
        updater=UpdaterConfig(solver=SelfAugmentedConfig(max_iterations=4)),
    )


def refresh(fleet_requests, executor=None):
    """One fleet refresh: its ``FleetReport`` is the wire artifact."""
    return UpdateService().refresh_fleet(
        fleet_requests,
        elapsed_days=45.0,
        shards=ShardConfig(max_stack_bytes=SHARD_BUDGET),
        executor=executor,
    )


@pytest.fixture(scope="module")
def serial_report(fleet_requests):
    report = refresh(fleet_requests)
    assert report.plan.shard_count >= 2, "chaos fleet must span several shards"
    return report


@pytest.fixture(scope="module")
def serial_fingerprint(serial_report):
    return report_fingerprint(serial_report)


class TestRemoteParity:
    """Bit-identical to serial for any endpoint count, no faults."""

    @pytest.mark.parametrize("endpoints", [1, 2, 3])
    def test_endpoint_counts_bit_identical_to_serial(
        self, fleet_requests, serial_fingerprint, endpoints
    ):
        with running_workers(endpoints) as servers:
            executor = RemoteExecutor([s.url for s in servers], **FAST)
            report = refresh(fleet_requests, executor)
        assert report_fingerprint(report) == serial_fingerprint
        # Clean run: every shard solved on its first dispatch.
        shard_count = report.plan.shard_count
        assert sum(executor.last_attempts.values()) == shard_count
        assert sum(executor.last_retries.values()) == 0
        assert executor.last_duplicates_dropped == 0

    def test_work_spreads_across_workers(self, fleet_requests, serial_fingerprint):
        with running_workers(2) as servers:
            executor = RemoteExecutor([s.url for s in servers], **FAST)
            report = refresh(fleet_requests, executor)
            solved = [server.solved for server in servers]
        assert report_fingerprint(report) == serial_fingerprint
        assert sum(solved) == report.plan.shard_count
        assert all(count > 0 for count in solved), solved

    def test_executor_name_and_workers(self):
        executor = RemoteExecutor(["127.0.0.1:1", "127.0.0.1:2"])
        assert executor.name == "remote"
        assert executor.workers == 2
        # Bare host:port endpoints normalise to http:// URLs.
        assert executor.endpoints == ["http://127.0.0.1:1", "http://127.0.0.1:2"]


class TestChaosMatrix:
    """Every fault class: bit-identical results + accurate dispatch stats."""

    def test_fault_matrix_is_exhaustive(self):
        covered = {"drop", "delay", "duplicate", "corrupt", "kill"}
        assert covered == set(FAULT_KINDS)

    def test_dropped_response_is_retried(self, fleet_requests, serial_fingerprint):
        plans = [FaultPlan([Fault("drop", shard=0, attempt=0)])]
        with running_workers(1, plans) as (worker,):
            executor = RemoteExecutor([worker.url], **FAST)
            report = refresh(fleet_requests, executor)
            assert len(plans[0].fired) == 1
        assert report_fingerprint(report) == serial_fingerprint
        assert executor.last_retries[0] == 1
        assert executor.last_attempts[0] == 2
        shard_count = report.plan.shard_count
        assert sum(executor.last_attempts.values()) == shard_count + 1

    def test_delay_past_timeout_is_retried(
        self, fleet_requests, serial_fingerprint
    ):
        plans = [FaultPlan([Fault("delay", shard=0, attempt=0, seconds=4.0)])]
        with running_workers(2, plans) as servers:
            executor = RemoteExecutor(
                [s.url for s in servers],
                timeout=0.75,
                max_attempts=4,
                backoff=0.02,
            )
            report = refresh(fleet_requests, executor)
        assert report_fingerprint(report) == serial_fingerprint
        assert executor.last_retries[0] >= 1
        # Only the delayed shard paid extra dispatches.
        clean = [i for i in executor.last_retries if i != 0]
        assert all(executor.last_retries[i] == 0 for i in clean)

    def test_duplicate_completion_is_deduplicated(
        self, fleet_requests, serial_fingerprint
    ):
        faults = FaultPlan([Fault("duplicate", shard=0, attempt=0)])
        with running_workers(2) as servers:
            executor = RemoteExecutor(
                [s.url for s in servers], faults=faults, **FAST
            )
            report = refresh(fleet_requests, executor)
            # Both workers really solved shard 0: two full completions.
            assert sum(s.solved for s in servers) == report.plan.shard_count + 1
        assert report_fingerprint(report) == serial_fingerprint
        assert executor.last_duplicates_dropped == 1
        assert executor.last_attempts[0] == 2
        assert executor.last_redispatches[0] == 1
        assert executor.last_retries[0] == 0  # a duplicate is not a failure

    def test_corrupt_payload_is_caught_and_retried(
        self, fleet_requests, serial_fingerprint
    ):
        plans = [FaultPlan([Fault("corrupt", shard=0, attempt=0)])]
        with running_workers(2, plans) as servers:
            executor = RemoteExecutor([s.url for s in servers], **FAST)
            report = refresh(fleet_requests, executor)
            assert len(plans[0].fired) == 1
        assert report_fingerprint(report) == serial_fingerprint
        assert executor.last_retries[0] == 1
        assert executor.last_attempts[0] == 2

    def test_worker_killed_mid_shard_fails_over(
        self, fleet_requests, serial_fingerprint
    ):
        plans = [FaultPlan([Fault("kill", shard=0, attempt=0)])]
        with running_workers(2, plans) as servers:
            executor = RemoteExecutor([s.url for s in servers], **FAST)
            report = refresh(fleet_requests, executor)
            assert servers[0].killed
            # The survivor absorbed the dead worker's shards.
            assert servers[1].solved >= 1
        assert report_fingerprint(report) == serial_fingerprint
        assert executor.last_attempts[0] == 2
        assert executor.last_retries[0] == 1

    def test_each_fault_fires_once(self):
        plan = FaultPlan([Fault("drop", shard=3, attempt=1)])
        assert plan.take(3, 0) is None  # wrong attempt
        assert plan.take(2, 1) is None  # wrong shard
        fault = plan.take(3, 1)
        assert fault is not None and fault.kind == "drop"
        assert plan.take(3, 1) is None  # consumed
        assert plan.fired == (fault,)
        assert plan.pending == ()


class TestStragglerRedispatch:
    def test_straggler_races_second_worker(
        self, fleet_requests, serial_fingerprint
    ):
        plans = [FaultPlan([Fault("delay", shard=0, attempt=0, seconds=3.0)])]
        with running_workers(2, plans) as servers:
            executor = RemoteExecutor(
                [s.url for s in servers],
                timeout=30.0,  # never times out: the race must win, not retry
                max_attempts=2,
                backoff=0.02,
                straggler_after=0.3,
            )
            report = refresh(fleet_requests, executor)
        assert report_fingerprint(report) == serial_fingerprint
        assert executor.last_redispatches[0] == 1
        assert executor.last_attempts[0] == 2
        assert executor.last_retries[0] == 0  # the backup won within attempt 0


class TestRetryExhaustion:
    def test_exhausted_shard_names_its_sites(self, fleet_requests):
        plans = [FaultPlan([Fault("kill", shard=0, attempt=0)])]
        with running_workers(1, plans) as (worker,):
            executor = RemoteExecutor(
                [worker.url], timeout=2.0, max_attempts=2, backoff=0.02
            )
            with pytest.raises(RemoteShardError) as excinfo:
                refresh(fleet_requests, executor)
        message = str(excinfo.value)
        assert "shard" in message and "sites" in message
        assert "2 dispatch(es)" in message

    def test_unreachable_endpoint_fails_cleanly(self, fleet_requests):
        executor = RemoteExecutor(
            ["http://127.0.0.1:1"], timeout=1.0, max_attempts=2, backoff=0.01
        )
        with pytest.raises(RemoteShardError):
            refresh(fleet_requests, executor)


class TestFaultPlanParsing:
    def test_parse_specs(self):
        fault = Fault.parse("delay:shard=1,seconds=2.5")
        assert fault == Fault("delay", shard=1, attempt=0, seconds=2.5)
        assert Fault.parse("drop") == Fault("drop")
        assert Fault.parse("kill:shard=0,attempt=2") == Fault(
            "kill", shard=0, attempt=2
        )
        plan = FaultPlan.parse(["drop", "kill:shard=1"])
        assert len(plan) == 2

    @pytest.mark.parametrize(
        "spec",
        ["melt", "drop:bogus=1", "delay:seconds=abc", "kill:shard"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            Fault.parse(spec)

    def test_fault_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("explode")
        with pytest.raises(ValueError, match="attempt"):
            Fault("drop", attempt=-1)
        with pytest.raises(ValueError, match="seconds"):
            Fault("delay", seconds=-0.5)
        with pytest.raises(TypeError):
            FaultPlan(["drop"])  # specs need FaultPlan.parse


class TestWorkerServerEndpoints:
    def test_health_reports_counters(self):
        with running_workers(1, [FaultPlan([Fault("drop", shard=9)])]) as (worker,):
            with urllib.request.urlopen(f"{worker.url}/api/health") as response:
                payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["solved"] == 0
        assert payload["faults_armed"] == 1
        assert payload["faults_injected"] == 0

    def test_unknown_route_is_404(self):
        with running_workers(1) as (worker,):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{worker.url}/api/bogus")
            with excinfo.value as error:  # closes the response's socket
                assert error.code == 404

    def test_malformed_task_is_400(self):
        with running_workers(1) as (worker,):
            request = urllib.request.Request(
                f"{worker.url}/api/shard", data=b"not a payload", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            with excinfo.value as error:
                assert error.code == 400

    def test_wrong_fingerprint_response_is_rejected(self, fleet_requests):
        """A completion answering a different dispatch must not be gathered."""
        from repro.io.wire import requests_to_bytes
        from repro.service.remote import scatter_request
        from repro.service.prepare import prepare_request

        prepared = [prepare_request(request) for request in fleet_requests[:2]]
        payload = requests_to_bytes([scatter_request(p) for p in prepared])
        with running_workers(1) as (worker,):
            executor = RemoteExecutor([worker.url], **FAST)
            body = executor._post(
                worker.url, shard_task_to_bytes(payload, 0, attempt=0)
            )

            class FakeShard:
                index = 0
                members = (0, 1)
                sites = ("a", "b")

            with pytest.raises(WirePayloadError, match="fingerprint"):
                executor._decode(body, FakeShard(), "0" * 64)


class TestRemoteExecutorValidation:
    def test_rejects_empty_endpoints(self):
        with pytest.raises(ValueError, match="at least one"):
            RemoteExecutor([])
        with pytest.raises(ValueError, match="non-empty"):
            RemoteExecutor([""])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout=0.0),
            dict(max_attempts=0),
            dict(backoff=-1.0),
            dict(backoff_cap=-0.1),
            dict(straggler_after=0.0),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RemoteExecutor(["http://127.0.0.1:1"], **kwargs)
