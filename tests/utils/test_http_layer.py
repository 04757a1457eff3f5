"""The shared HTTP layer under both servers: one edge behaviour, two servers.

The daemon API (:class:`~repro.daemon.http.DaemonServer`) and the shard
worker (:class:`~repro.service.remote.WorkerServer`) are thin subclasses of
:mod:`repro.utils.http`, so the edges it owns — the body cap, the JSON
error body, unknown routes, keep-alive without the Nagle stall, closing
with live connections, the idempotent close — are pinned here once,
against both.
"""

import http.client
import json
import re
import socket
import threading
import time
import urllib.parse

import pytest

from repro.daemon import Coordinator, DaemonConfig, DaemonServer
from repro.service.remote import WorkerServer
from repro.utils.http import (
    MAX_BODY_BYTES,
    HttpServer,
    HttpStatusError,
    JsonRequestHandler,
    KeepAlive,
    checked_content_length,
    http_call,
)

#: Server kind -> the POST route that reads a body.
POST_ROUTES = {"daemon": "/api/jobs", "worker": "/api/shard"}


def _start(kind, spool_parent):
    if kind == "daemon":
        coordinator = Coordinator(
            spool_parent / "spool",
            config=DaemonConfig(job_workers=1, poll_interval=0.01),
        )
        server = DaemonServer(coordinator)
    else:
        server = WorkerServer()
    server.start()
    return server


@pytest.fixture(scope="module", params=sorted(POST_ROUTES))
def server(request, tmp_path_factory):
    live = _start(request.param, tmp_path_factory.mktemp("daemon"))
    yield request.param, live
    live.stop()
    assert live.wait(timeout=30.0)


@pytest.fixture(params=sorted(POST_ROUTES))
def fresh_server(request, tmp_path):
    """A server of each kind for one test that closes it."""
    live = _start(request.param, tmp_path)
    yield request.param, live
    live.stop()


def _connect(live):
    host, port = live.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=5.0)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def _stop_within(live, seconds=10.0):
    """Stop ``live`` on another thread; ``True`` if that returned in time."""
    closer = threading.Thread(target=live.stop, daemon=True)
    closer.start()
    closer.join(timeout=seconds)
    return not closer.is_alive()


def _handler_threads():
    return {
        thread
        for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    }


def _raw_request(url, method, path, headers=(), body=None):
    """One request over a bare connection: (status, decoded JSON body,
    whether the server announced it will close the connection)."""
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5.0)
    try:
        connection.putrequest(method, path)
        for name, value in headers:
            connection.putheader(name, value)
        connection.endheaders(body)
        response = connection.getresponse()
        assert response.getheader("Content-Type") == "application/json"
        return response.status, json.loads(response.read()), response.will_close
    finally:
        connection.close()


@pytest.mark.parametrize("length", (str(10**12), "-5", "ten"))
def test_bad_content_length_is_400_not_a_hang(server, length):
    """A declared length the body never delivers must not park the handler
    on ``rfile.read``: both servers answer 400 with a JSON error before
    reading, well within the client's socket timeout."""
    kind, live = server
    status, body, will_close = _raw_request(
        live.url,
        "POST",
        POST_ROUTES[kind],
        headers=[("Content-Length", length)],
        body=b"0123456789",
    )
    assert status == 400
    assert "Content-Length" in body["error"] or "body size" in body["error"]
    # The body was never read, so a keep-alive client must not reuse it.
    assert will_close


def test_short_body_is_400_and_closes(server):
    """The client half-closes after 10 of 100 declared bytes."""
    kind, live = server
    with socket.create_connection(live.server_address[:2], timeout=5.0) as sock:
        sock.sendall(
            f"POST {POST_ROUTES[kind]} HTTP/1.1\r\nHost: test\r\n"
            "Content-Length: 100\r\n\r\n0123456789".encode("ascii")
        )
        sock.shutdown(socket.SHUT_WR)
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert response.status == 400
        assert response.will_close
        assert json.loads(response.read()) == {
            "error": "request body ended after 10 of 100 bytes"
        }


@pytest.mark.parametrize("method", ("GET", "POST"))
def test_unknown_route_is_404_json(server, method):
    _, live = server
    status, body, will_close = _raw_request(
        live.url, method, "/api/bogus", headers=[("Content-Length", "0")]
    )
    assert status == 404
    assert body == {"error": "unknown route '/api/bogus'"}
    assert not will_close


def test_http_call_raises_the_decoded_error(server):
    _, live = server
    with pytest.raises(HttpStatusError) as excinfo:
        http_call(live.url + "/api/bogus/", timeout=5.0)
    assert excinfo.value.status == 404
    assert str(excinfo.value) == "unknown route '/api/bogus'"


def test_responses_leave_without_the_nagle_stall(server):
    """Headers and body leave in two sends.  Without ``TCP_NODELAY`` the body
    of each keep-alive response waits ~40 ms for the client's delayed ACK."""
    _, live = server
    connection = _connect(live)
    try:
        start = time.perf_counter()
        for _ in range(20):
            connection.request("GET", "/api/health")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        elapsed = time.perf_counter() - start
        accepted = list(live._live)
        assert accepted
        for sock in accepted:
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        connection.close()
    assert elapsed < 20 * 0.040 / 4


def test_idle_keep_alive_connection_does_not_block_close(fresh_server):
    _, live = fresh_server
    connection = _connect(live)
    connection.request("GET", "/api/health")
    assert connection.getresponse().read()
    assert len(live._live) == 1

    assert _stop_within(live)
    assert _wait_for(lambda: len(live._live) == 0)
    with pytest.raises((OSError, http.client.HTTPException)):
        connection.request("GET", "/api/health")
        connection.getresponse()
    connection.close()
    # A connection made after close() is refused.
    with pytest.raises(ConnectionRefusedError):
        _connect(live).request("GET", "/api/health")


def test_client_stalled_mid_body_does_not_block_close(fresh_server):
    """Content-Length promises 100 bytes, 10 arrive, then nothing: close()
    still returns, the handler thread exits and the stream ends."""
    kind, live = fresh_server
    before = _handler_threads()
    stalled = socket.create_connection(live.server_address[:2], timeout=10.0)
    try:
        stalled.sendall(
            f"POST {POST_ROUTES[kind]} HTTP/1.1\r\nHost: test\r\n"
            "Content-Length: 100\r\n\r\n0123456789".encode("ascii")
        )
        assert _wait_for(lambda: len(live._live) == 1)
        time.sleep(0.2)  # let the handler block on the missing 90 bytes
        handlers = _handler_threads() - before
        assert handlers

        assert _stop_within(live)
        for thread in handlers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert len(live._live) == 0
        received = b""
        try:
            while True:
                chunk = stalled.recv(65536)
                if not chunk:
                    break
                received += chunk
        except ConnectionResetError:
            pass
        # Answered 400 (the body ended short) or dropped unanswered.
        assert received == b"" or received.startswith(b"HTTP/1.1 400")
    finally:
        stalled.close()


class _DropPosts(JsonRequestHandler):
    """Counts each POST it reads, then closes without answering."""

    def do_GET(self):  # noqa: N802 — base-class API
        self._send_json(200, {"posts": self.server.posts})

    def do_POST(self):  # noqa: N802 — base-class API
        self._read_body()
        self.server.posts += 1
        self.close_connection = True


def test_a_lost_post_is_not_retried():
    live = HttpServer("127.0.0.1", 0, _DropPosts)
    live.posts = 0
    live.start()
    keep_alive = KeepAlive()
    try:
        assert json.loads(http_call(live.url, keep_alive=keep_alive)) == {"posts": 0}
        with pytest.raises((OSError, http.client.HTTPException)):
            http_call(live.url, "POST", b"{}", keep_alive=keep_alive)
        # Sent once, and the broken connection was replaced.
        assert json.loads(http_call(live.url, keep_alive=keep_alive)) == {"posts": 1}
    finally:
        keep_alive.close()
        live.close()


@pytest.mark.parametrize(
    "url",
    ("file:///tmp/secret", "ftp://127.0.0.1/x", "https://127.0.0.1/", "127.0.0.1:80/"),
)
def test_http_call_accepts_only_http_urls(url):
    with pytest.raises(ValueError, match=re.escape(repr(url))):
        http_call(url)


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
