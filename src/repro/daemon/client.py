"""Stdlib HTTP client for the fleet daemon's submit/status/result API.

:class:`DaemonClient` calls the routes :mod:`repro.daemon.http` serves
through :func:`repro.utils.http.http_call`, translating error responses into
:class:`DaemonError` and job/answer JSON back into plain dicts and NumPy
arrays.  Each thread that uses a client gets its own persistent HTTP/1.1
connection, so a ``/api/localize`` stream pays no TCP handshake per call;
:meth:`DaemonClient.close` (or leaving a ``with`` block) closes them all.
A failed request is never retried, so a ``submit`` is enqueued at most
once.  The client is deliberately dependency-free so any process that can
``import repro`` — or a few lines of hand-rolled ``http.client`` in one that
cannot — can drive a running daemon.
"""

from __future__ import annotations

import base64
import http.client
import json
import time
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.utils.http import HttpStatusError, KeepAlive, http_call

__all__ = ["DaemonError", "DaemonClient"]


class DaemonError(RuntimeError):
    """An error response from the daemon (or a transport failure).

    ``status`` carries the HTTP status code, or ``None`` when the request
    never reached the daemon (connection refused, timeout).
    """

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class DaemonClient:
    """Talk to a running :class:`~repro.daemon.http.DaemonServer`.

    Parameters
    ----------
    url:
        Base URL the daemon listens on, e.g. ``http://127.0.0.1:8753``.
    timeout:
        Per-request socket timeout in seconds.

    One client may be shared between threads; each thread talks over its
    own connection.  Use it as a context manager, or call :meth:`close`.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self._keep_alive = KeepAlive()

    def close(self) -> None:
        """Close this client's connections; a later call reconnects."""
        self._keep_alive.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- plumbing
    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> bytes:
        data = None if body is None else json.dumps(body).encode("utf-8")
        try:
            return http_call(
                self.url + path, method, data, "application/json", self.timeout,
                keep_alive=self._keep_alive,
            )
        except HttpStatusError as exc:
            raise DaemonError(str(exc), status=exc.status) from exc
        except (http.client.HTTPException, OSError) as exc:
            # Refused or timed out, or the daemon closed its socket
            # mid-request while draining (``RemoteDisconnected``).
            raise DaemonError(f"cannot reach daemon at {self.url}: {exc}") from exc

    def _request_json(self, method: str, path: str, body: Optional[dict] = None):
        raw = self._request(method, path, body)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DaemonError(
                f"daemon sent a non-JSON response from {path}: {exc}"
            ) from exc

    # --------------------------------------------------------------- endpoints
    def health(self) -> dict:
        """``GET /api/health`` — status, queue counts, current generation."""
        return self._request_json("GET", "/api/health")

    def jobs(self) -> List[dict]:
        """``GET /api/jobs`` — every job record, in submission order."""
        return self._request_json("GET", "/api/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        """``GET /api/jobs/<id>`` — one job record."""
        return self._request_json("GET", f"/api/jobs/{job_id}")

    def submit(
        self,
        payload: Union[bytes, str, Path],
        kind: str = "refresh_fleet",
        *,
        priority: int = 0,
        max_attempts: int = 3,
        backoff_seconds: float = 0.5,
        label: str = "",
        max_stack_bytes: Optional[int] = None,
        workers: int = 0,
        upload: bool = False,
    ) -> dict:
        """``POST /api/jobs`` — enqueue a job, return its record.

        ``payload`` is NPZ wire bytes (always uploaded) or a path: by
        default paths are passed by reference for the daemon to read
        locally; ``upload=True`` reads the file here and ships the bytes
        instead (for clients on another machine than the daemon).
        """
        body = {
            "kind": kind,
            "priority": priority,
            "max_attempts": max_attempts,
            "backoff_seconds": backoff_seconds,
            "label": label,
            "max_stack_bytes": max_stack_bytes,
            "workers": workers,
        }
        if isinstance(payload, bytes):
            body["payload_b64"] = base64.b64encode(payload).decode("ascii")
        elif upload:
            body["payload_b64"] = base64.b64encode(
                Path(payload).read_bytes()
            ).decode("ascii")
        else:
            body["payload_path"] = str(Path(payload).resolve())
        return self._request_json("POST", "/api/jobs", body)

    def cancel(self, job_id: str) -> dict:
        """``POST /api/jobs/<id>/cancel`` — cancel a queued job."""
        return self._request_json("POST", f"/api/jobs/{job_id}/cancel", {})

    def result(self, job_id: str) -> bytes:
        """``GET /api/jobs/<id>/result`` — the report payload's NPZ bytes."""
        return self._request("GET", f"/api/jobs/{job_id}/result")

    def fetch_result(self, job_id: str, out: Union[str, Path]) -> Path:
        """Download a completed job's result payload to ``out``."""
        out = Path(out)
        out.write_bytes(self.result(job_id))
        return out

    def localize(self, site: str, measurements) -> dict:
        """``POST /api/localize`` — answer a query batch.

        Returns the answer dict with ``indices`` (and ``points``, when the
        serving index has geometry) converted to NumPy arrays.  JSON
        carries the floats via ``repr`` round-tripping, so the values
        match the in-process engine bit for bit.
        """
        measurements = np.asarray(measurements, dtype=float)
        answer = self._request_json(
            "POST",
            "/api/localize",
            {"site": site, "measurements": measurements.tolist()},
        )
        answer["indices"] = np.asarray(answer["indices"], dtype=int)
        if answer.get("points") is not None:
            answer["points"] = np.asarray(answer["points"], dtype=float)
        return answer

    def drain(self) -> dict:
        """``POST /api/drain`` — begin graceful shutdown."""
        return self._request_json("POST", "/api/drain", {})

    # ------------------------------------------------------------------ polling
    def wait(
        self, job_id: str, timeout: float = 120.0, poll: float = 0.1
    ) -> dict:
        """Poll until a job is terminal; raises ``TimeoutError`` otherwise."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id!r} still {record['state']!r} after {timeout:g}s"
                )
            time.sleep(poll)

    def wait_until_ready(self, timeout: float = 30.0, poll: float = 0.1) -> dict:
        """Poll ``/api/health`` until the daemon answers (startup barrier)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except DaemonError as exc:
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"daemon at {self.url} not ready after {timeout:g}s: {exc}"
                    ) from exc
            time.sleep(poll)
