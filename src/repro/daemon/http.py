"""HTTP surface of the daemon: submit / status / result / cancel / localize.

A thin layer — routes over :mod:`repro.utils.http`'s server and handler
bases — on the :class:`~repro.daemon.coordinator.Coordinator`'s
same-process API.  Bodies are JSON both ways (job payloads ride either as
a filesystem path the daemon can read, or uploaded inline as
base64-encoded NPZ wire bytes); the one binary endpoint is the result
download, which streams the report payload back as
``application/octet-stream``.

Routes::

    GET  /api/health              daemon status, queue counts, generation
    GET  /api/jobs                every job record (+ per-state counts)
    GET  /api/jobs/<id>           one job record
    GET  /api/jobs/<id>/result    completed job's report payload (NPZ bytes)
    POST /api/jobs                submit {kind, payload_path|payload_b64, ...}
    POST /api/jobs/<id>/cancel    cancel a queued job
    POST /api/localize            {site, measurements} -> indices/points
    POST /api/drain               begin graceful shutdown (idempotent)

Error responses are JSON ``{"error": ...}`` with conventional status
codes: 400 malformed, 404 unknown job/route, 409 illegal transition,
503 draining.  See :class:`~repro.daemon.client.DaemonClient` for the
matching client and ``docs/API.md`` for the full request/response shapes.
"""

from __future__ import annotations

import base64
import binascii
import json
import threading
from typing import Optional

import numpy as np

from repro.utils.http import HttpServer, JsonRequestHandler

__all__ = ["DaemonRequestHandler", "DaemonServer"]


class DaemonRequestHandler(JsonRequestHandler):
    """Maps the HTTP routes onto the owning server's coordinator."""

    server_version = "repro-daemon"
    #: POST: unknown job 404, draining 503, malformed input (a wrongly
    #: typed JSON field is a ``TypeError``) 400.
    error_statuses = (
        (KeyError, 404),
        (RuntimeError, 503),
        ((TypeError, ValueError), 400),
    )
    #: GET carries no input, so a ``ValueError`` is an illegal state.
    _get_statuses = ((KeyError, 404), (ValueError, 409))

    @property
    def coordinator(self):
        return self.server.coordinator

    def _read_json_body(self) -> dict:
        raw = self._read_body()
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    @staticmethod
    def _record_json(job) -> dict:
        from repro.io.jobs import job_to_json

        return job_to_json(job)

    # ----------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self._route()
        try:
            if path == "/api/health":
                self._send_json(200, self.coordinator.health())
            elif path == "/api/jobs":
                self._send_json(
                    200,
                    {
                        "jobs": [
                            self._record_json(job)
                            for job in self.coordinator.jobs()
                        ],
                        "counts": self.coordinator.queue.counts(),
                    },
                )
            elif path.startswith("/api/jobs/") and path.endswith("/result"):
                job_id = path[len("/api/jobs/") : -len("/result")]
                self._send(
                    200,
                    self.coordinator.result_bytes(job_id),
                    "application/octet-stream",
                )
            elif path.startswith("/api/jobs/"):
                job_id = path[len("/api/jobs/") :]
                self._send_json(
                    200, self._record_json(self.coordinator.status(job_id))
                )
            else:
                self._send_error_json(404, f"unknown route {path!r}")
        except Exception as exc:  # noqa: BLE001 — unmapped ones re-raise
            self._send_exception(exc, self._get_statuses)

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self._route()
        try:
            body = self._read_json_body()
            if path == "/api/jobs":
                self._submit(body)
            elif path.startswith("/api/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/api/jobs/") : -len("/cancel")]
                self._send_json(
                    200, self._record_json(self.coordinator.cancel(job_id))
                )
            elif path == "/api/localize":
                self._localize(body)
            elif path == "/api/drain":
                self.server.initiate_drain()
                self._send_json(202, {"draining": True})
            else:
                self._send_error_json(404, f"unknown route {path!r}")
        except Exception as exc:  # noqa: BLE001 — unmapped ones re-raise
            self._send_exception(exc)

    # ---------------------------------------------------------------- handlers
    def _submit(self, body: dict) -> None:
        kind = body.get("kind", "refresh_fleet")
        payload_path = body.get("payload_path")
        payload_b64 = body.get("payload_b64")
        if (payload_path is None) == (payload_b64 is None):
            raise ValueError(
                "submit needs exactly one of payload_path (a file the daemon "
                "can read) or payload_b64 (base64 NPZ wire bytes)"
            )
        if payload_b64 is not None:
            try:
                payload = base64.b64decode(payload_b64, validate=True)
            except (binascii.Error, TypeError) as exc:
                raise ValueError(f"payload_b64 is not valid base64: {exc}") from exc
        else:
            payload = str(payload_path)
        job = self.coordinator.submit(
            str(kind),
            payload,
            priority=int(body.get("priority", 0)),
            max_attempts=int(body.get("max_attempts", 3)),
            backoff_seconds=float(body.get("backoff_seconds", 0.5)),
            label=str(body.get("label", "")),
            max_stack_bytes=(
                None
                if body.get("max_stack_bytes") is None
                else int(body["max_stack_bytes"])
            ),
            workers=int(body.get("workers", 0)),
        )
        self._send_json(201, self._record_json(job))

    def _localize(self, body: dict) -> None:
        site = body.get("site")
        measurements = body.get("measurements")
        if not site or measurements is None:
            raise ValueError("localize needs 'site' and 'measurements'")
        answer = self.coordinator.localize(
            str(site), np.asarray(measurements, dtype=float)
        )
        self._send_json(
            200,
            {
                "site": answer.site,
                "matcher": answer.matcher,
                "generation": answer.generation,
                "indices": [int(i) for i in answer.indices],
                "points": (
                    None
                    if answer.points is None
                    else [[float(x) for x in row] for row in answer.points]
                ),
                "cache_hits": int(answer.cache_hits),
            },
        )


class DaemonServer(HttpServer):
    """The daemon's HTTP front end, owning one coordinator.

    ``start`` boots the coordinator's scheduler and serves requests on a
    background thread; ``initiate_drain`` (also triggered by the
    ``POST /api/drain`` route and the CLI's SIGTERM handler) runs the
    graceful shutdown sequence — coordinator drains first, the socket
    closes last, so status queries keep working while running jobs
    finish.  ``wait`` blocks until that sequence completes.
    """

    thread_name = "repro-daemon-http"

    def __init__(self, coordinator, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(host, port, DaemonRequestHandler)
        self.coordinator = coordinator
        self._drain_thread: Optional[threading.Thread] = None
        self._drain_lock = threading.Lock()

    def start(self) -> None:
        """Start the coordinator and serve HTTP on a background thread."""
        self.coordinator.start()
        super().start()

    def initiate_drain(self) -> None:
        """Begin graceful shutdown without blocking the calling thread."""
        with self._drain_lock:
            if self._drain_thread is not None:
                return
            # Reject new submissions immediately; the background thread
            # then waits out the running jobs before closing the socket.
            self.coordinator.stop_accepting()
            self._drain_thread = threading.Thread(
                target=self._drain_and_close,
                name="repro-daemon-drain",
                daemon=True,
            )
            self._drain_thread.start()

    def _drain_and_close(self) -> None:
        try:
            self.coordinator.drain()
        finally:
            self.close()

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Drain and wait — the blocking convenience for tests and the CLI."""
        self.initiate_drain()
        return self.wait(timeout=timeout)
