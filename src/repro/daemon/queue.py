"""The daemon's persistent job queue: a spool directory plus a JSON journal.

Every mutation — submit, claim, complete, fail, cancel — rewrites the
journal atomically (:func:`repro.io.jobs.save_journal`), so the queue on
disk is always a consistent snapshot of the queue in memory.  That is the
whole crash-recovery story: a coordinator killed at any instant restarts
by loading the journal, moving interrupted ``running`` jobs back to
``queued`` (their payloads are still in the spool, their attempt counts
survive), so the job threads take them again once the daemon starts.

Every journal write also wakes the job threads blocked in ``take``, so a
job starts the moment it is submitted or its backoff window opens.

Ordering is **priority first, FIFO within priority**: ``claim`` picks the
queued job with the highest ``priority``, breaking ties on the monotonic
submission ``sequence``.  Failed jobs re-queue with exponential backoff
(``not_before = now + backoff_seconds * 2**(attempts-1)``) until their
``max_attempts`` bound, after which they park terminally ``failed`` with
the last error message preserved.

Spool layout::

    <spool>/
      journal.json          # every job record (repro-daemon-journal v1)
      payloads/<job id>.npz # inputs uploaded as bytes at submit time
      results/<job id>.npz  # refresh reports written at completion

Payloads submitted by *path* stay where the caller put them; only
byte-uploads are copied into ``payloads/``.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.io.jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobRecord,
    copy_record,
    load_journal,
    save_journal,
)

__all__ = ["JobQueue"]

RECHECK_SECONDS = 1.0
"""Longest a blocked :meth:`JobQueue.take` sleeps before it looks again,
so a backoff window still opens on time if the (injected) clock jumps."""


class JobQueue:
    """Durable, thread-safe priority queue of :class:`~repro.io.jobs.JobRecord`.

    Parameters
    ----------
    spool:
        Directory holding the journal and payload/result files; created
        (with parents) if missing.  An existing journal is loaded and
        recovered: interrupted ``running`` jobs go back to ``queued``.
    clock:
        Wall-clock source (epoch seconds); injectable for tests that
        exercise backoff without sleeping.
    """

    def __init__(
        self, spool: Union[str, Path], clock: Callable[[], float] = time.time
    ) -> None:
        self.spool = Path(spool)
        self.payload_dir = self.spool / "payloads"
        self.result_dir = self.spool / "results"
        for directory in (self.spool, self.payload_dir, self.result_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._closed = False
        self._jobs: Dict[str, JobRecord] = {}
        self._sequence = 0
        self._recovered: List[str] = []
        if self.journal_path.exists():
            for job in load_journal(self.journal_path):
                self._jobs[job.id] = job
                self._sequence = max(self._sequence, job.sequence + 1)
            with self._lock:
                self._recover()

    @property
    def journal_path(self) -> Path:
        """The queue's JSON journal file."""
        return self.spool / "journal.json"

    @property
    def recovered_jobs(self) -> List[str]:
        """Ids of ``running`` jobs this instance re-queued at load time."""
        return list(self._recovered)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called (``take`` hands out nothing)."""
        return self._closed

    # ------------------------------------------------------------- persistence
    def _persist(self) -> None:
        """Journal every record and wake the threads blocked on a change."""
        save_journal(self.journal_path, list(self._jobs.values()))
        self._changed.notify_all()

    def _recover(self) -> None:
        """Re-queue jobs a dead coordinator left ``running``.

        The interrupted attempt already counted (claims increment
        ``attempts``), so a job that keeps killing its coordinator still
        converges to ``failed`` instead of crash-looping forever.
        """
        requeued = []
        for job in self._jobs.values():
            if job.state == JOB_RUNNING:
                job.state = JOB_QUEUED
                job.started_at = None
                requeued.append(job.id)
        self._recovered = requeued
        if requeued:
            self._persist()

    # ------------------------------------------------------------------ submit
    def submit(
        self,
        kind: str,
        payload: Union[bytes, str, Path],
        *,
        priority: int = 0,
        max_attempts: int = 3,
        backoff_seconds: float = 0.5,
        label: str = "",
        max_stack_bytes: Optional[int] = None,
        workers: int = 0,
    ) -> JobRecord:
        """Durably enqueue one job and return a copy of its record.

        ``payload`` is either raw NPZ wire bytes (spooled into
        ``payloads/<id>.npz``) or a path to an existing payload file
        (referenced in place; must exist at submit time).
        """
        with self._lock:
            now = self._clock()
            job_id = f"j{self._sequence:06d}"
            if isinstance(payload, bytes):
                payload_ref = f"payloads/{job_id}.npz"
                (self.spool / payload_ref).write_bytes(payload)
            else:
                path = Path(payload)
                if not path.is_file():
                    raise ValueError(
                        f"payload path {str(path)!r} does not exist; submit "
                        "bytes to spool the payload with the job instead"
                    )
                payload_ref = str(path.resolve())
            job = JobRecord(
                id=job_id,
                kind=kind,
                priority=int(priority),
                sequence=self._sequence,
                max_attempts=max_attempts,
                backoff_seconds=backoff_seconds,
                payload=payload_ref,
                label=label,
                max_stack_bytes=max_stack_bytes,
                workers=workers,
                submitted_at=now,
            )
            self._sequence += 1
            self._jobs[job.id] = job
            self._persist()
            return copy_record(job)

    # ------------------------------------------------------------- scheduling
    def claim(self) -> Optional[JobRecord]:
        """Claim the next runnable job (highest priority, FIFO within).

        Returns a copy of the claimed record marked ``running`` with its
        attempt counted, or ``None`` when nothing is claimable (empty
        queue, or every queued job is still inside its backoff window).
        """
        with self._lock:
            now = self._clock()
            runnable = [
                job
                for job in self._jobs.values()
                if job.state == JOB_QUEUED and job.not_before <= now
            ]
            if not runnable:
                return None
            job = min(runnable, key=lambda j: (-j.priority, j.sequence))
            job.state = JOB_RUNNING
            job.attempts += 1
            job.started_at = now
            self._persist()
            return copy_record(job)

    def take(self) -> Optional[JobRecord]:
        """Block until a job is claimable, then :meth:`claim` it.

        Returns ``None`` once the queue is closed.  Each wait ends at the
        earliest queued ``not_before`` (capped at :data:`RECHECK_SECONDS`);
        every journal write and :meth:`close` end it sooner.
        """
        with self._lock:
            while not self._closed:
                job = self.claim()
                if job is not None:
                    return job
                opens = [
                    queued.not_before
                    for queued in self._jobs.values()
                    if queued.state == JOB_QUEUED
                ]
                delay = min(opens, default=float("inf")) - self._clock()
                self._changed.wait(min(max(delay, 0.0), RECHECK_SECONDS))
            return None

    def close(self) -> None:
        """Stop :meth:`take` handing out jobs and wake every taker; running
        jobs can still ``complete`` or ``fail``, queued ones stay journaled."""
        with self._lock:
            self._closed = True
            self._changed.notify_all()

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until a job is terminal (or raise ``TimeoutError``)."""
        with self._lock:
            job = self._job(job_id)
            if not self._changed.wait_for(lambda: job.is_terminal, timeout):
                raise TimeoutError(
                    f"job {job_id!r} still {job.state!r} after {timeout:g}s"
                )
            return copy_record(job)

    # ------------------------------------------------------------- transitions
    def _job(self, job_id: str) -> JobRecord:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _running(self, job_id: str) -> JobRecord:
        job = self._job(job_id)
        if job.state != JOB_RUNNING:
            raise ValueError(
                f"job {job_id!r} is {job.state!r}, not running; only claimed "
                "jobs can complete or fail"
            )
        return job

    def complete(
        self,
        job_id: str,
        result: Optional[str] = None,
        generation: Optional[int] = None,
    ) -> JobRecord:
        """Mark a running job ``done``, recording its result payload path
        (spool-relative) and the serving generation it published."""
        with self._lock:
            job = self._running(job_id)
            job.state = JOB_DONE
            job.result = result
            job.generation = generation
            job.error = None
            job.finished_at = self._clock()
            self._persist()
            return copy_record(job)

    def fail(self, job_id: str, error: str) -> JobRecord:
        """Record a failed attempt: re-queue with exponential backoff, or
        park the job terminally ``failed`` once ``max_attempts`` is spent."""
        with self._lock:
            job = self._running(job_id)
            job.error = str(error)
            now = self._clock()
            if job.attempts >= job.max_attempts:
                job.state = JOB_FAILED
                job.finished_at = now
            else:
                job.state = JOB_QUEUED
                job.started_at = None
                job.not_before = now + job.backoff_seconds * 2 ** (job.attempts - 1)
            self._persist()
            return copy_record(job)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (running and terminal jobs cannot be)."""
        with self._lock:
            job = self._job(job_id)
            if job.state != JOB_QUEUED:
                raise ValueError(
                    f"job {job_id!r} is {job.state!r}; only queued jobs can "
                    "be cancelled"
                )
            job.state = JOB_CANCELLED
            job.finished_at = self._clock()
            self._persist()
            return copy_record(job)

    # -------------------------------------------------------------- inspection
    def get(self, job_id: str) -> JobRecord:
        """A copy of one record; raises ``KeyError`` when unknown."""
        with self._lock:
            return copy_record(self._job(job_id))

    def jobs(self) -> List[JobRecord]:
        """Copies of every record, in submission order."""
        with self._lock:
            return [
                copy_record(job)
                for job in sorted(self._jobs.values(), key=lambda j: j.sequence)
            ]

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (every state present, zero or not)."""
        with self._lock:
            counts = {state: 0 for state in (
                JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED
            )}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    # ------------------------------------------------------------------- paths
    def payload_path(self, job: JobRecord) -> Path:
        """Absolute path of the job's input payload."""
        path = Path(job.payload)
        return path if path.is_absolute() else self.spool / path

    def result_path(self, job: JobRecord) -> Optional[Path]:
        """Absolute path of the job's result payload (``None`` until done)."""
        if job.result is None:
            return None
        path = Path(job.result)
        return path if path.is_absolute() else self.spool / path
