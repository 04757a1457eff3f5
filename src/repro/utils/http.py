"""Stdlib HTTP layer under the daemon API, the shard workers and their clients.

:class:`HttpServer` and :class:`JsonRequestHandler` own what the two servers
(:mod:`repro.daemon.http`, :mod:`repro.service.remote`) share: the body cap,
the ``{"error": ...}`` body, the exception → status mapping and the serve
thread lifecycle; subclasses only route.  Both clients call
:func:`http_call`.  Stdlib only: this module loads no numpy.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence, Tuple

__all__ = [
    "MAX_BODY_BYTES", "HttpServer", "HttpStatusError", "JsonRequestHandler",
    "checked_content_length", "http_call",
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
    error_statuses: Sequence[Tuple[object, int]] = ()

    def log_message(self, format, *args):  # noqa: A002 — base-class API
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
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
        return self.rfile.read(length) if length else b""

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
    :meth:`close`, which :meth:`wait` blocks on."""

    daemon_threads = True
    allow_reuse_address = True
    thread_name = "repro-http"

    def __init__(self, host: str, port: int, handler) -> None:
        super().__init__((host, port), handler)
        self.verbose = False
        self._close_lock = threading.Lock()
        self._closed = threading.Event()

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

    def close(self) -> None:
        """Stop serving and release the socket; idempotent."""
        with self._close_lock:
            if not self._closed.is_set():
                self.shutdown()
                self.server_close()
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


def http_call(
    url: str,
    method: str = "GET",
    body: Optional[bytes] = None,
    content_type: str = "application/octet-stream",
    timeout: float = 30.0,
) -> bytes:
    """Send one request and return the response body.

    An error status raises :class:`HttpStatusError`; transport failures
    (refused, timeout, dropped connection) propagate as urllib raised them.
    """
    headers = {} if body is None else {"Content-Type": content_type}
    request = urllib.request.Request(url, data=body, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            message = json.loads(raw)["error"]
        except (ValueError, TypeError, KeyError):
            message = raw.decode("utf-8", "replace") or str(exc)
        raise HttpStatusError(str(message), exc.code) from exc
