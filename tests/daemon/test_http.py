"""The HTTP surface serves the coordinator's API faithfully.

One live :class:`~repro.daemon.http.DaemonServer` per module (on an
ephemeral port), driven through :class:`~repro.daemon.client.DaemonClient`
— the same pairing the CLI and CI use.  Submissions ride both transports
(path reference and base64 upload), results download bit-exactly, and
errors map to the documented status codes.
"""

import numpy as np
import pytest

from repro.daemon import (
    Coordinator,
    DaemonClient,
    DaemonConfig,
    DaemonError,
    DaemonServer,
)
from repro.io import load_report
from repro.query import QueryConfig, QueryEngine
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.types import FleetReport


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    coordinator = Coordinator(
        tmp_path_factory.mktemp("daemon") / "spool",
        config=DaemonConfig(job_workers=1, poll_interval=0.01),
    )
    server = DaemonServer(coordinator)
    server.start()
    yield server
    server.stop(timeout=30.0)


@pytest.fixture(scope="module")
def client(server):
    with DaemonClient(server.url, timeout=30.0) as client:
        client.wait_until_ready(timeout=30.0)
        yield client


@pytest.fixture(scope="module")
def offline_report(daemon_fleet_requests):
    service = UpdateService()
    reports = service.update_fleet(daemon_fleet_requests, shards=ShardConfig())
    return FleetReport(
        elapsed_days=30.0,
        reports=tuple(reports),
        stacked_sweeps=service.last_stacked_sweeps,
        plan=service.last_plan,
        executor="serial",
        workers=0,
    )


class TestHealth:
    def test_health_reports_serving(self, client):
        health = client.health()
        assert health["status"] == "serving"
        assert health["draining"] is False
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled",
        }


class TestSubmitAndResult:
    def test_submit_by_path_runs_to_done(
        self, client, fleet_payload, offline_report, tmp_path
    ):
        record = client.submit(fleet_payload, label="by-path")
        assert record["state"] == "queued"
        done = client.wait(record["id"], timeout=120.0)
        assert done["state"] == "done"
        assert done["generation"] is not None

        # The downloaded result is the spooled report, byte for byte, and
        # its estimates match the offline serial refresh bit for bit.
        raw = client.result(done["id"])
        out = tmp_path / "fetched.npz"
        assert client.fetch_result(done["id"], out) == out
        assert out.read_bytes() == raw
        report = load_report(out)
        for ours, theirs in zip(report.reports, offline_report.reports):
            np.testing.assert_array_equal(ours.estimate, theirs.estimate)

    def test_submit_bytes_uploads_payload(self, client, fleet_payload_bytes):
        record = client.submit(
            fleet_payload_bytes, priority=1, label="uploaded"
        )
        done = client.wait(record["id"], timeout=120.0)
        assert done["state"] == "done"
        assert done["payload"].startswith("payloads/")

    def test_upload_flag_ships_file_contents(self, client, fleet_payload):
        record = client.submit(fleet_payload, upload=True, label="shipped")
        assert record["payload"].startswith("payloads/")
        assert client.wait(record["id"], timeout=120.0)["state"] == "done"

    def test_jobs_listing_contains_submissions(self, client):
        jobs = client.jobs()
        assert [job["sequence"] for job in jobs] == sorted(
            job["sequence"] for job in jobs
        )
        assert {job["state"] for job in jobs} <= {
            "queued", "running", "done", "failed", "cancelled",
        }


class TestLocalizeParity:
    def test_answers_match_offline_engine_bit_for_bit(
        self, client, fleet_payload, offline_report
    ):
        record = client.submit(fleet_payload, label="serve-me")
        assert client.wait(record["id"], timeout=120.0)["state"] == "done"

        offline = QueryEngine(QueryConfig())
        offline.publish_report(offline_report, label="offline")
        site = offline_report.sites[0]
        index = offline.store.current().sites[site].index
        rng = np.random.default_rng(3)
        queries = index.values[:, :6].T + rng.normal(0.0, 0.5, (6, index.values.shape[0]))

        served = client.localize(site, queries)
        expected = offline.localize_batch(site, queries)
        np.testing.assert_array_equal(served["indices"], expected.indices)
        if expected.points is not None:
            np.testing.assert_array_equal(served["points"], expected.points)
        assert served["matcher"] == expected.matcher

    def test_unknown_site_is_client_error(self, client):
        with pytest.raises(DaemonError) as excinfo:
            client.localize("atlantis", np.zeros((1, 3)))
        assert excinfo.value.status in (400, 404)


class TestErrorMapping:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(DaemonError) as excinfo:
            client.status("j999999")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(DaemonError) as excinfo:
            client._request_json("GET", "/api/nope")
        assert excinfo.value.status == 404

    def test_result_of_unfinished_job_is_409(self, client, fleet_payload):
        # A cancelled job exists but has no result payload.
        record = client.submit(fleet_payload, priority=-100, label="doomed")
        try:
            client.cancel(record["id"])
        except DaemonError:
            # Raced to running/done on a fast machine — result then exists;
            # fall through and let the terminal state decide.
            client.wait(record["id"], timeout=120.0)
            return
        with pytest.raises(DaemonError) as excinfo:
            client.result(record["id"])
        assert excinfo.value.status == 409

    def test_submit_without_payload_is_400(self, client):
        with pytest.raises(DaemonError) as excinfo:
            client._request_json("POST", "/api/jobs", {"kind": "refresh_fleet"})
        assert excinfo.value.status == 400
        assert "payload_path" in str(excinfo.value)

    def test_submit_with_both_payloads_is_400(self, client, fleet_payload):
        with pytest.raises(DaemonError) as excinfo:
            client._request_json(
                "POST",
                "/api/jobs",
                {
                    "kind": "refresh_fleet",
                    "payload_path": str(fleet_payload),
                    "payload_b64": "QUJD",
                },
            )
        assert excinfo.value.status == 400

    def test_invalid_base64_is_400(self, client):
        with pytest.raises(DaemonError) as excinfo:
            client._request_json(
                "POST",
                "/api/jobs",
                {"kind": "refresh_fleet", "payload_b64": "!!!not-base64!!!"},
            )
        assert excinfo.value.status == 400

    def test_unknown_kind_is_400(self, client, fleet_payload):
        with pytest.raises(DaemonError) as excinfo:
            client.submit(fleet_payload, kind="compact_fleet")
        assert excinfo.value.status == 400

    def test_malformed_json_body_is_400(self, client):
        import urllib.request

        request = urllib.request.Request(
            client.url + "/api/jobs",
            data=b"{ not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "path, body",
        (
            ("/api/jobs", {"payload_path": "x", "priority": [1]}),
            ("/api/jobs", {"payload_path": "x", "max_stack_bytes": {}}),
            ("/api/localize", {"site": "a", "measurements": {"a": 1}}),
        ),
        ids=("priority-list", "max-stack-bytes-object", "measurements-object"),
    )
    def test_wrongly_typed_field_is_400(self, client, path, body):
        """A JSON field of the wrong type raises ``TypeError`` in the
        handler; it must answer 400 with a JSON error, not drop the
        connection."""
        with pytest.raises(DaemonError) as excinfo:
            client._request_json("POST", path, body)
        assert excinfo.value.status == 400
        assert str(excinfo.value)
        # The daemon is still serving.
        assert client.health()["status"]


class TestDrainOverHttp:
    """Separate server: draining is terminal for the fixture coordinator."""

    def test_drain_stops_submissions_then_closes_socket(
        self, tmp_path, fleet_payload
    ):
        coordinator = Coordinator(
            tmp_path / "spool",
            config=DaemonConfig(
                job_workers=1, poll_interval=0.01
            ),
        )
        server = DaemonServer(coordinator)
        server.start()
        client = DaemonClient(server.url, timeout=30.0)
        client.wait_until_ready(timeout=30.0)

        record = client.submit(fleet_payload, label="before-drain")
        assert client.wait(record["id"], timeout=120.0)["state"] == "done"

        assert client.drain() == {"draining": True}
        # While the socket is still up, submissions are rejected with 503
        # (the daemon may close it at any moment, which is also a refusal).
        try:
            client.submit(fleet_payload, label="too-late")
        except DaemonError as exc:
            assert exc.status in (None, 503)
        else:
            pytest.fail("submit after drain must be rejected")

        assert server.wait(timeout=30.0)
        counts = coordinator.queue.counts()
        assert counts["queued"] == counts["running"] == 0
        with pytest.raises(DaemonError):
            client.health()
