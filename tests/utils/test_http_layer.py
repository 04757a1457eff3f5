"""The shared HTTP layer under both servers: one edge behaviour, two servers.

The daemon API (:class:`~repro.daemon.http.DaemonServer`) and the shard
worker (:class:`~repro.service.remote.WorkerServer`) are thin subclasses of
:mod:`repro.utils.http`, so the edges it owns — the body cap, the JSON
error body, unknown routes, the idempotent close — are pinned here once,
against both.
"""

import http.client
import json
import urllib.parse

import pytest

from repro.daemon import Coordinator, DaemonConfig, DaemonServer
from repro.service.remote import WorkerServer
from repro.utils.http import (
    MAX_BODY_BYTES,
    HttpStatusError,
    checked_content_length,
    http_call,
)

#: Server kind -> the POST route that reads a body.
POST_ROUTES = {"daemon": "/api/jobs", "worker": "/api/shard"}


@pytest.fixture(scope="module", params=sorted(POST_ROUTES))
def server(request, tmp_path_factory):
    if request.param == "daemon":
        coordinator = Coordinator(
            tmp_path_factory.mktemp("daemon") / "spool",
            config=DaemonConfig(job_workers=1, pool_workers=0, poll_interval=0.01),
        )
        server = DaemonServer(coordinator)
    else:
        server = WorkerServer()
    server.start()
    yield request.param, server
    server.stop()
    assert server.wait(timeout=30.0)


def _raw_request(url, method, path, headers=(), body=None):
    """One request over a bare connection: (status, decoded JSON body)."""
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5.0)
    try:
        connection.putrequest(method, path)
        for name, value in headers:
            connection.putheader(name, value)
        connection.endheaders(body)
        response = connection.getresponse()
        assert response.getheader("Content-Type") == "application/json"
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.mark.parametrize("length", (str(10**12), "-5", "ten"))
def test_bad_content_length_is_400_not_a_hang(server, length):
    """A declared length the body never delivers must not park the handler
    on ``rfile.read``: both servers answer 400 with a JSON error before
    reading, well within the client's socket timeout."""
    kind, live = server
    status, body = _raw_request(
        live.url,
        "POST",
        POST_ROUTES[kind],
        headers=[("Content-Length", length)],
        body=b"0123456789",
    )
    assert status == 400
    assert "Content-Length" in body["error"] or "body size" in body["error"]


@pytest.mark.parametrize("method", ("GET", "POST"))
def test_unknown_route_is_404_json(server, method):
    _, live = server
    status, body = _raw_request(
        live.url, method, "/api/bogus", headers=[("Content-Length", "0")]
    )
    assert status == 404
    assert body == {"error": "unknown route '/api/bogus'"}


def test_http_call_raises_the_decoded_error(server):
    _, live = server
    with pytest.raises(HttpStatusError) as excinfo:
        http_call(live.url + "/api/bogus/", timeout=5.0)
    assert excinfo.value.status == 404
    assert str(excinfo.value) == "unknown route '/api/bogus'"


def test_close_is_idempotent():
    server = WorkerServer()
    server.start()
    server.close()
    server.close()
    assert server.wait(timeout=0)


@pytest.mark.parametrize(
    "header, expected",
    ((None, 0), ("", 0), ("0", 0), ("17", 17), (str(MAX_BODY_BYTES), MAX_BODY_BYTES)),
)
def test_checked_content_length_accepts(header, expected):
    assert checked_content_length(header) == expected


@pytest.mark.parametrize("header", ("-1", "1.5", "ten", str(MAX_BODY_BYTES + 1)))
def test_checked_content_length_rejects(header):
    with pytest.raises(ValueError):
        checked_content_length(header)
