"""Stdlib HTTP layer under the daemon API, the shard workers and their clients.

:class:`HttpServer` and :class:`JsonRequestHandler` own what the two servers
(:mod:`repro.daemon.http`, :mod:`repro.service.remote`) share: the body cap,
the ``{"error": ...}`` body, the exception → status mapping and the serve
thread lifecycle; subclasses only route.  Both clients call
:func:`http_call`; a client that passes a :class:`KeepAlive` reuses one
persistent connection per thread.  Stdlib only: this module loads no numpy.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "MAX_BODY_BYTES", "HttpServer", "HttpStatusError", "JsonRequestHandler",
    "KeepAlive", "checked_content_length", "http_call",
]

MAX_BODY_BYTES = 256 * 1024 * 1024
"""Largest request body an HTTP endpoint (daemon API, shard worker) reads."""


def checked_content_length(header: Optional[str]) -> int:
    """Validate a ``Content-Length`` header before reading any body byte.

    A missing header means an empty body.  A negative, non-integer or
    above-:data:`MAX_BODY_BYTES` value raises ``ValueError`` so the endpoint
    can answer 400 at once instead of blocking on bytes that never come.
    """
    try:
        length = int(header or 0)
    except ValueError:
        raise ValueError(f"invalid Content-Length {header!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError(f"unreasonable request body size {length}")
    return length


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request-handler base; subclasses define ``do_GET`` / ``do_POST`` and
    ``error_statuses``, the ``(exception class(es), status)`` pairs a failed
    request is answered from (first match wins)."""

    protocol_version = "HTTP/1.1"
    #: Headers and body leave in two sends; with Nagle on, the body of every
    #: keep-alive response waits ~40 ms for the client's delayed ACK.
    disable_nagle_algorithm = True
    error_statuses: Sequence[Tuple[object, int]] = ()

    def log_message(self, format, *args):  # noqa: A002 — base-class API
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                # Tell a keep-alive client not to send its next request here.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # The client gave up (timeout, straggler race) — a response
            # to a dead socket is the expected fate of a loser.
            self.close_connection = True

    def _send_json(self, code: int, payload) -> None:
        self._send(code, json.dumps(payload).encode("utf-8"), "application/json")

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def parse_request(self) -> bool:
        # A request read after the server began closing is dropped unanswered.
        if self.server.refusing:
            self.close_connection = True
            return False
        return super().parse_request()

    def _route(self) -> str:
        """The request path without its query string or trailing slash."""
        return self.path.split("?", 1)[0].rstrip("/")

    def _read_body(self) -> bytes:
        try:
            length = checked_content_length(self.headers.get("Content-Length"))
        except ValueError:
            # The body was never read, so the connection cannot be reused.
            self.close_connection = True
            raise
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            self.close_connection = True
            raise ValueError(f"request body ended after {len(body)} of {length} bytes")
        return body

    def _send_exception(self, exc: Exception, statuses=None) -> None:
        """Answer ``exc`` with its first matching status in ``statuses``
        (default :attr:`error_statuses`); an unmapped exception re-raises.
        A ``KeyError`` answers its key, a 500 names the exception type."""
        for kinds, code in self.error_statuses if statuses is None else statuses:
            if isinstance(exc, kinds):
                break
        else:
            raise exc
        if isinstance(exc, KeyError) and exc.args:
            message = str(exc.args[0])
        elif code == 500:
            message = f"{type(exc).__name__}: {exc}"
        else:
            message = str(exc)
        self._send_error_json(code, message)


class HttpServer(ThreadingHTTPServer):
    """Serves on a named background thread until an idempotent
    :meth:`close`, which :meth:`wait` blocks on.  ``refusing`` turns true
    when :meth:`close` begins; from then on no connection is accepted."""

    daemon_threads = True
    allow_reuse_address = True
    thread_name = "repro-http"

    def __init__(self, host: str, port: int, handler) -> None:
        super().__init__((host, port), handler)
        self.verbose = False
        self.refusing = False
        self._close_lock = threading.Lock()
        self._closed = threading.Event()
        self._live_lock = threading.Lock()
        self._live: set = set()  # accepted sockets their handler has not closed

    @property
    def url(self) -> str:
        """Base URL clients should talk to (``http://host:port``)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve requests on a background daemon thread."""
        threading.Thread(
            target=self.serve_forever, name=self.thread_name, daemon=True
        ).start()

    def process_request(self, request, client_address) -> None:
        with self._live_lock:
            accepted = not self.refusing
            if accepted:
                self._live.add(request)
        if accepted:
            super().process_request(request, client_address)
        else:
            self.shutdown_request(request)

    def close_request(self, request) -> None:
        with self._live_lock:
            self._live.discard(request)
        super().close_request(request)

    def close(self) -> None:
        """Stop serving and release the socket; idempotent.

        Every live connection has its read side shut: an idle keep-alive
        handler sees end-of-stream and exits, a response already in flight
        still completes, and a request read from here on is dropped.
        """
        with self._close_lock:
            if self._closed.is_set():
                return
            with self._live_lock:
                self.refusing = True
                live = list(self._live)
            self.shutdown()
            self.server_close()
            for request in live:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # its handler closed it meanwhile
            self._closed.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`close` has run; ``False`` on timeout."""
        return self._closed.wait(timeout=timeout)


class HttpStatusError(Exception):
    """An HTTP error response: ``status`` is its code, the message its
    ``{"error"}`` text (else the raw body, else the status line)."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


class KeepAlive:
    """The persistent connections one client object owns, one per thread.

    A connection is never shared between threads.  :func:`http_call` closes
    a connection after any exception, and before reusing an idle one
    checks that the peer has not closed it.  A thread's first call closes
    the connections of threads that have ended; :meth:`close` closes the
    rest, and a later call reconnects.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._connections: Dict[threading.Thread, http.client.HTTPConnection] = {}

    def connection(
        self, host: str, port: int, timeout: float
    ) -> http.client.HTTPConnection:
        """This thread's connection to ``host:port``, ready for a request."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is None or (connection.host, connection.port) != (host, port):
            connection = http.client.HTTPConnection(host, port, timeout=timeout)
            with self._lock:
                replaced = [
                    self._connections.pop(owner)
                    for owner in list(self._connections)
                    if owner is thread or not owner.is_alive()
                ]
                self._connections[thread] = connection
            for old in replaced:
                old.close()
        elif connection.sock is not None:
            # Idle, so readable means the peer closed it (or sent bytes
            # nobody asked for): reconnect instead of writing into it.
            if select.select([connection.sock], [], [], 0)[0]:
                connection.close()
            else:
                connection.sock.settimeout(timeout)
        connection.timeout = timeout
        return connection

    def close(self) -> None:
        """Close every connection this object holds; call it when no
        request is in flight."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()


def http_call(
    url: str,
    method: str = "GET",
    body: Optional[bytes] = None,
    content_type: str = "application/octet-stream",
    timeout: float = 30.0,
    keep_alive: Optional[KeepAlive] = None,
) -> bytes:
    """Send one request and return the response body.

    ``url`` must be ``http://``; any other scheme raises ``ValueError``.
    Without ``keep_alive`` the call opens and closes its own connection;
    with one it reuses the calling thread's connection.  An error status
    raises :class:`HttpStatusError`; transport failures (refused, timeout,
    dropped connection) propagate as ``OSError`` or
    ``http.client.HTTPException``.  A failed request is never retried.
    """
    parts = urllib.parse.urlsplit(url)
    if parts.scheme != "http" or not parts.hostname:
        raise ValueError(f"http_call needs an http:// URL, got {url!r}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    headers = {} if body is None else {"Content-Type": content_type}
    address = (parts.hostname, parts.port or 80)
    if keep_alive is None:
        connection = http.client.HTTPConnection(*address, timeout=timeout)
    else:
        connection = keep_alive.connection(*address, timeout)
    try:
        connection.request(method, target, body, headers)
        response = connection.getresponse()
        raw = response.read()  # in full, even an error body: the connection is reused
    except BaseException:
        connection.close()
        raise
    if keep_alive is None:
        connection.close()
    if 200 <= response.status < 300:
        return raw
    try:
        message = json.loads(raw)["error"]
    except (ValueError, TypeError, KeyError):
        message = raw.decode("utf-8", "replace") or (
            f"HTTP Error {response.status}: {response.reason}"
        )
    raise HttpStatusError(str(message), response.status)
