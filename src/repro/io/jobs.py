"""Job-record wire helpers for the always-on fleet daemon.

The :mod:`repro.daemon` coordinator keeps its work durable: every job it
accepts (a fleet refresh, a report publish) is recorded as a
:class:`JobRecord` in a JSON **journal** on disk, next to the job's NPZ
wire payload.  This module is the wire layer of that queue — the record
dataclass, its validated JSON encoding, and atomic journal save/load — so
that a coordinator killed mid-queue can be restarted over the same spool
directory and resume exactly where it stopped.

Guarantees mirror :mod:`repro.io.wire`:

* **Round-trip exactness** — every field of a record survives
  ``job_to_json`` → ``job_from_json`` unchanged; float timestamps ride
  JSON via ``repr`` round-tripping.
* **Validation on load** — the journal header is checked for format tag
  and version, each record re-enters through the validating
  :class:`JobRecord` constructor, and duplicate job ids are rejected, so
  a truncated or hand-edited journal fails with a clear ``ValueError``
  instead of corrupting the queue.
* **Atomic persistence** — :func:`save_journal` writes a sibling
  temporary file and ``os.replace``\\ s it over the journal, so a crash
  mid-write leaves the previous journal intact (the crash-recovery
  invariant the daemon's restart path leans on).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Optional, Sequence

from repro.io.wire import _Family

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "JOB_STATES",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JobRecord",
    "job_to_json",
    "job_from_json",
    "save_journal",
    "load_journal",
]

JOURNAL_FORMAT = "repro-daemon-journal"
"""Format tag of a daemon job journal."""

JOURNAL_VERSION = 1
"""Journal schema version; bumped on layout changes."""

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)
"""Every legal job state.  ``queued`` and ``running`` are the *pending*
states a restarted coordinator resumes; the other three are terminal."""

# The journal is JSON, not NPZ, but its header is checked like a payload's.
_JOURNAL = _Family(
    JOURNAL_FORMAT, entries=None, versions=(("version", JOURNAL_VERSION, "journal"),)
)


@dataclass
class JobRecord:
    """One durable unit of daemon work.

    Attributes
    ----------
    id:
        Stable identifier, unique within a journal.
    kind:
        What the job does — ``"refresh_fleet"`` (run a request payload
        through the update service) or ``"serve_publish"`` (publish a
        report payload into the serving engine).  The journal itself is
        kind-agnostic; the coordinator maps kinds to runners.
    priority:
        Higher runs first; ties break FIFO on ``sequence``.
    state:
        One of :data:`JOB_STATES`.
    sequence:
        Monotonic submission counter — the FIFO-within-priority key.
    attempts, max_attempts:
        Executions started so far, and the bound after which a failing
        job goes terminally ``failed`` instead of re-queueing.
    backoff_seconds:
        Base of the exponential retry delay: attempt ``k`` re-queues with
        ``not_before = now + backoff_seconds * 2**(k-1)``.
    not_before:
        Earliest wall-clock time (``time.time()`` epoch seconds) the job
        may next be claimed; 0 means immediately.
    payload:
        The job's input wire payload: a path relative to the spool
        directory (uploaded payloads) or an absolute path (referenced
        payloads).
    result:
        Spool-relative path of the result payload once ``done``.
    error:
        Message of the most recent failure (kept across retries until a
        later attempt succeeds).
    label:
        Free-form caller annotation, also used as the published
        generation label.
    max_stack_bytes:
        Per-job shard budget: ``None`` uses the service default, 0
        disables sharding, positive values bound each shard's stack.
    workers:
        Per-job cap on concurrent remote shard dispatches when the
        coordinator has worker endpoints; 0, or a coordinator without
        endpoints, solves serially in the job's scheduler thread.
    generation:
        Ordinal of the serving-engine generation this job published,
        once it has.
    submitted_at, started_at, finished_at:
        Epoch-second timestamps of the job's lifecycle.
    """

    id: str
    kind: str
    priority: int = 0
    state: str = JOB_QUEUED
    sequence: int = 0
    attempts: int = 0
    max_attempts: int = 3
    backoff_seconds: float = 0.5
    not_before: float = 0.0
    payload: str = ""
    result: Optional[str] = None
    error: Optional[str] = None
    label: str = ""
    max_stack_bytes: Optional[int] = None
    workers: int = 0
    generation: Optional[int] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("job id must be a non-empty identifier")
        if not self.kind:
            raise ValueError(f"job {self.id!r} has an empty kind")
        if self.state not in JOB_STATES:
            raise ValueError(
                f"job {self.id!r} has unknown state {self.state!r}; "
                f"expected one of {JOB_STATES}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"job {self.id!r}: max_attempts must be at least 1, "
                f"got {self.max_attempts}"
            )
        if self.attempts < 0:
            raise ValueError(f"job {self.id!r}: attempts must be non-negative")
        if self.backoff_seconds < 0:
            raise ValueError(
                f"job {self.id!r}: backoff_seconds must be non-negative"
            )
        if self.workers < 0:
            raise ValueError(f"job {self.id!r}: workers must be non-negative")
        if self.max_stack_bytes is not None and self.max_stack_bytes < 0:
            raise ValueError(
                f"job {self.id!r}: max_stack_bytes must be non-negative or None"
            )

    @property
    def is_pending(self) -> bool:
        """Queued or running — the states a restart resumes."""
        return self.state in (JOB_QUEUED, JOB_RUNNING)

    @property
    def is_terminal(self) -> bool:
        """Done, failed or cancelled — nothing left to execute."""
        return not self.is_pending


def job_to_json(job: JobRecord) -> dict:
    """Plain-JSON representation of one record (field for field)."""
    return {f.name: getattr(job, f.name) for f in fields(job)}


def job_from_json(data: dict) -> JobRecord:
    """Rebuild a validated record; raises ``ValueError`` on corrupt input."""
    if not isinstance(data, dict):
        raise ValueError(
            f"corrupt job record: expected a JSON object, got {type(data).__name__}"
        )
    known = {f.name for f in fields(JobRecord)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"corrupt job record: unknown fields {unknown}")
    try:
        return JobRecord(**data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"corrupt job record: {exc}") from exc


def save_journal(path, jobs: Sequence[JobRecord]) -> None:
    """Atomically persist the queue's records (in sequence order).

    The journal is written to a temporary sibling and ``os.replace``\\ d
    into place, so readers never observe a half-written file and a crash
    mid-save keeps the previous journal.
    """
    path = Path(path)
    payload = {
        "format": JOURNAL_FORMAT,
        "version": JOURNAL_VERSION,
        "jobs": [job_to_json(job) for job in sorted(jobs, key=lambda j: j.sequence)],
    }
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_journal(path) -> List[JobRecord]:
    """Load and validate a journal; raises ``ValueError`` when corrupt."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read job journal {str(path)!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt job journal {str(path)!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(
            f"corrupt job journal {str(path)!r}: expected a JSON object"
        )
    _JOURNAL.check_header(data, repr(str(path)))
    entries = data.get("jobs")
    if not isinstance(entries, list):
        raise ValueError(f"corrupt job journal {str(path)!r}: no job list")
    jobs = [job_from_json(entry) for entry in entries]
    seen = set()
    for job in jobs:
        if job.id in seen:
            raise ValueError(
                f"corrupt job journal {str(path)!r}: duplicate job id {job.id!r}"
            )
        seen.add(job.id)
    return jobs


# Re-exported convenience: a fresh copy of a record (queues hand copies
# out so callers cannot mutate journaled state behind the queue's back).
def copy_record(job: JobRecord) -> JobRecord:
    """An independent copy of ``job`` (records are mutable dataclasses)."""
    return replace(job)
