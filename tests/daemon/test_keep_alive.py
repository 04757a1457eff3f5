"""DaemonClient connection hygiene: one persistent connection per thread.

Error responses leave the connection reusable, threads sharing a client
never read each other's answers, a restarted daemon is reached on a fresh
connection, and a submit is never sent twice.  Connections are counted at
``http.client.HTTPConnection.connect``.
"""

import http.client
import sys
import threading
import time

import pytest

from repro.daemon import (
    Coordinator,
    DaemonClient,
    DaemonConfig,
    DaemonError,
    DaemonServer,
)


def _daemon(spool_parent, port=0):
    server = DaemonServer(
        Coordinator(
            spool_parent / "spool",
            config=DaemonConfig(job_workers=1, poll_interval=0.01),
        ),
        port=port,
    )
    server.start()
    return server


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    server = _daemon(tmp_path_factory.mktemp("daemon"))
    yield server
    server.stop(timeout=30.0)


@pytest.fixture(scope="module")
def served(server, fleet_payload):
    """A finished job and a query batch with the daemon's own answers."""
    with DaemonClient(server.url) as client:
        client.wait_until_ready(timeout=30.0)
        record = client.wait(client.submit(fleet_payload)["id"], timeout=120.0)
    assert record["state"] == "done"
    site, snapshot = sorted(server.coordinator.engine.store.current().sites.items())[0]
    queries = snapshot.index.values[:, :6].T
    expected = server.coordinator.localize(site, queries).indices
    return record["id"], site, queries, [int(i) for i in expected]


@pytest.fixture
def connects(monkeypatch):
    """The calling thread of every TCP connect ``http.client`` makes."""
    threads = []
    connect = http.client.HTTPConnection.connect

    def counted(self):
        threads.append(threading.get_ident())
        connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
    return threads


def test_error_responses_keep_the_connection(server, served, connects):
    job_id = served[0]
    with DaemonClient(server.url) as client:
        with pytest.raises(DaemonError) as missing:
            client.status("j999999")
        with pytest.raises(DaemonError) as malformed:
            client.submit(b"payload", kind="compact_fleet")
        assert (missing.value.status, malformed.value.status) == (404, 400)
        assert client.status(job_id)["state"] == "done"
    assert len(connects) == 1


def test_threads_sharing_a_client_get_their_own_answers(server, served, connects):
    """More threads than cores and a short switch interval: a connection
    shared between threads would hand one thread another's answer."""
    job_id, site, queries, expected = served
    problems = []

    def localize_loop(client):
        for i in range(40):
            k = i % len(expected)
            indices = client.localize(site, queries[k : k + 1])["indices"]
            if indices.tolist() != [expected[k]]:
                problems.append(("localize", k, indices))

    def status_loop(client):
        for _ in range(40):
            record = client.status(job_id)
            if (record.get("id"), record.get("state")) != (job_id, "done"):
                problems.append(("status", record))

    def guarded(loop, client):
        try:
            loop(client)
        except Exception as exc:  # noqa: BLE001 — reported below
            problems.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DaemonClient(server.url) as client:
            threads = [
                threading.Thread(target=guarded, args=(loop, client))
                for loop in (localize_loop, status_loop) * 2
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert problems == []
    assert len(connects) == len(set(connects)) == len(threads)


def test_restarted_daemon_is_reached_on_a_fresh_connection(
    tmp_path, fleet_payload, connects
):
    first = _daemon(tmp_path / "first")
    with DaemonClient(first.url) as client:
        assert client.health()["status"] == "serving"
        assert first.stop(timeout=30.0)
        # The idle connection's handler has closed its end, so the client
        # sees the close before it writes.
        deadline = time.monotonic() + 10.0
        while first._live and time.monotonic() < deadline:
            time.sleep(0.01)
        second = _daemon(tmp_path / "second", port=first.server_address[1])
        try:
            record = client.submit(fleet_payload, label="after-restart")
            # Enqueued exactly once, over the second connection.
            assert [job.id for job in second.coordinator.jobs()] == [record["id"]]
            assert len(connects) == 2
        finally:
            second.stop(timeout=30.0)
