"""The always-on fleet coordinator: one lifecycle for refresh *and* serve.

Everything before this module was a script you run: ``fleet run``
refreshes a payload and exits, ``query run`` serves whatever a script
hand-published.  The :class:`Coordinator` turns those one-shots into a
system that serves traffic:

* Work arrives as durable jobs on a :class:`~repro.daemon.queue.JobQueue`
  (priorities, FIFO within priority, bounded retry with exponential
  backoff, crash recovery from the JSON journal).
* ``DaemonConfig.job_workers`` long-lived **job threads** each block in
  :meth:`~repro.daemon.queue.JobQueue.take` and run the job it hands out;
  the queue wakes them on every submit and when a backoff window opens, so
  nothing polls.  Refresh jobs solve through the existing
  :class:`~repro.service.executor.ShardExecutor` seam — serially in the
  job thread, or, when the daemon has ``endpoints``, scattered over remote
  ``fleet workers serve`` machines via
  :class:`~repro.service.remote.RemoteExecutor`, each job honoring its own
  ``workers`` budget and ``max_stack_bytes`` shard config.  Results stay
  bit-identical to an offline serial refresh.
* **Lifecycle unification**: a completed ``refresh_fleet`` job writes its
  :class:`~repro.service.types.FleetReport` to the spool *and*
  auto-publishes it as the next generation of the embedded
  :class:`~repro.query.engine.QueryEngine`, so localization queries are
  always answered from the freshest fleet.  ``serve_publish`` jobs
  publish a pre-built report payload without solving anything.
* **Graceful draining**: :meth:`drain` closes the queue — new submissions
  are rejected and every idle job thread wakes and exits — lets running
  jobs finish, and leaves everything still queued in the journal for the
  next start: the SIGTERM path of the ``daemon start`` CLI.

The coordinator itself is the same-process API (submit / status / result
/ cancel / localize); :mod:`repro.daemon.http` exposes the identical
surface over HTTP.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.daemon.queue import JobQueue
from repro.io.jobs import JobRecord
from repro.query.engine import QueryConfig, QueryEngine

__all__ = ["REFRESH_FLEET", "SERVE_PUBLISH", "DaemonConfig", "Coordinator"]

REFRESH_FLEET = "refresh_fleet"
"""Job kind: run a request payload through the update service."""

SERVE_PUBLISH = "serve_publish"
"""Job kind: publish an existing report payload into the query engine."""

#: A runner maps a claimed job to ``(result_path, generation_ordinal)``;
#: the result path is spool-relative (or ``None`` for publish-only jobs).
JobRunner = Callable[[JobRecord], Tuple[Optional[str], Optional[int]]]


@dataclass(frozen=True)
class DaemonConfig:
    """Configuration of the coordinator.

    Attributes
    ----------
    job_workers:
        Job threads, each running one job at a time off the queue.  1 gives
        strictly serial, priority-ordered execution.
    query:
        Configuration of the embedded :class:`~repro.query.engine.QueryEngine`
        (matcher, result cache).
    endpoints:
        Optional remote worker URLs (``fleet workers serve`` machines).
        When set, refresh jobs that ask for workers scatter their shards
        over a :class:`~repro.service.remote.RemoteExecutor` across these
        endpoints, the job's ``workers`` capping its concurrent dispatches
        — bit-identical to a serial solve.  Without endpoints, and for jobs
        with ``workers <= 0``, every job solves serially in-process.
    """

    job_workers: int = 2
    query: QueryConfig = field(default_factory=QueryConfig)
    endpoints: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.job_workers < 1:
            raise ValueError(
                f"job_workers must be at least 1, got {self.job_workers}"
            )
        if self.endpoints is not None:
            endpoints = tuple(str(e) for e in self.endpoints)
            if not endpoints or not all(e.strip() for e in endpoints):
                raise ValueError(
                    "endpoints must be a non-empty tuple of worker URLs, "
                    f"got {self.endpoints!r}"
                )
            object.__setattr__(self, "endpoints", endpoints)


class Coordinator:
    """Long-running fleet coordinator over a persistent job queue.

    Parameters
    ----------
    spool:
        Spool directory (journal + payloads + results); an existing
        journal is recovered — interrupted jobs re-queue and run again
        once :meth:`start` is called.
    config:
        Daemon configuration; defaults to :class:`DaemonConfig`.
    runners:
        Optional job-kind → runner overrides, merged over the built-in
        ``refresh_fleet`` / ``serve_publish`` runners.  The seam tests
        use to inject worker failures; production code never needs it.
    """

    def __init__(
        self,
        spool: Union[str, Path],
        config: Optional[DaemonConfig] = None,
        runners: Optional[Dict[str, JobRunner]] = None,
    ) -> None:
        self.config = config or DaemonConfig()
        self.queue = JobQueue(spool)
        self.engine = QueryEngine(self.config.query)
        self._runners: Dict[str, JobRunner] = {
            REFRESH_FLEET: self._run_refresh,
            SERVE_PUBLISH: self._run_publish,
        }
        if runners:
            self._runners.update(runners)
        # Last completed report per fleet (keyed by sorted site names), the
        # warm-start source for the next refresh of the same fleet; sites it
        # does not cover, or whose geometry changed, solve cold.
        self._warm_reports: Dict[Tuple[str, ...], object] = {}
        self._warm_lock = threading.Lock()
        self._job_threads: List[threading.Thread] = []

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the job threads; idempotent while running."""
        if self.queue.closed:
            raise RuntimeError("coordinator has drained; build a fresh one")
        if self._job_threads:
            return
        self._job_threads = [
            threading.Thread(
                target=self._take_jobs, name=f"repro-daemon-job-{i}", daemon=True
            )
            for i in range(self.config.job_workers)
        ]
        for thread in self._job_threads:
            thread.start()

    @property
    def is_draining(self) -> bool:
        """Whether the coordinator has stopped accepting submissions."""
        return self.queue.closed

    def stop_accepting(self) -> None:
        """Reject new submissions and stop taking jobs (first half of a drain)."""
        self.queue.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Gracefully shut down: stop accepting, finish running jobs.

        Closing the queue rejects new submissions and wakes every idle job
        thread, so everything still ``queued`` stays journaled for the
        next start.  Returns ``True`` once every job thread finished
        (``False`` on timeout — the jobs keep running on their daemon
        threads, but the journal marks them ``running`` so a restart
        would resume them).
        """
        self.queue.close()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._job_threads:
            thread.join(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
        return not any(thread.is_alive() for thread in self._job_threads)

    # -------------------------------------------------------------- job threads
    def _take_jobs(self) -> None:
        while (job := self.queue.take()) is not None:
            self._run_job(job)

    def _run_job(self, job: JobRecord) -> None:
        runner = self._runners.get(job.kind)
        try:
            if runner is None:
                raise ValueError(
                    f"no runner registered for job kind {job.kind!r}; "
                    f"known kinds: {sorted(self._runners)}"
                )
            result, generation = runner(job)
        except Exception as exc:  # noqa: BLE001 — every failure re-queues
            self.queue.fail(job.id, f"{type(exc).__name__}: {exc}")
        else:
            self.queue.complete(job.id, result=result, generation=generation)

    # ------------------------------------------------------------------ runners
    def _executor_for(self, job: JobRecord):
        if job.workers <= 0 or not self.config.endpoints:
            from repro.service.executor import SerialExecutor

            return SerialExecutor()
        from repro.service.remote import RemoteExecutor

        return RemoteExecutor(
            endpoints=self.config.endpoints,
            max_attempts=max(1, job.max_attempts),
            backoff=job.backoff_seconds,
            max_workers=job.workers,
        )

    def _run_refresh(self, job: JobRecord) -> Tuple[Optional[str], Optional[int]]:
        """Built-in ``refresh_fleet`` runner: solve, save, auto-publish."""
        from repro.io import load_requests, payload_info, save_report
        from repro.service.service import UpdateService
        from repro.service.shard import shard_config_for_budget

        payload_path = self.queue.payload_path(job)
        info = payload_info(payload_path)
        requests = load_requests(payload_path)
        fleet_key = tuple(sorted(request.site for request in requests))
        with self._warm_lock:
            warm_from = self._warm_reports.get(fleet_key)
        report = UpdateService().refresh_fleet(
            requests,
            elapsed_days=float(info.get("elapsed_days") or 0.0),
            shards=shard_config_for_budget(job.max_stack_bytes),
            executor=self._executor_for(job),
            warm_from=warm_from,
        )
        with self._warm_lock:
            self._warm_reports[fleet_key] = report
        result_rel = f"results/{job.id}.npz"
        save_report(self.queue.spool / result_rel, report)
        generation = self.engine.publish_report(
            report, label=job.label or f"job:{job.id}"
        ).ordinal
        return result_rel, generation

    def _run_publish(self, job: JobRecord) -> Tuple[Optional[str], Optional[int]]:
        """Built-in ``serve_publish`` runner: hot-swap a report payload in."""
        from repro.io import load_report

        report = load_report(self.queue.payload_path(job))
        generation = self.engine.publish_report(
            report, label=job.label or f"job:{job.id}"
        ).ordinal
        return None, generation

    # ----------------------------------------------------- same-process client
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
        """Durably enqueue a job (rejected once draining)."""
        if kind not in self._runners:
            raise ValueError(
                f"unknown job kind {kind!r}; known kinds: {sorted(self._runners)}"
            )
        if self.queue.closed:
            raise RuntimeError(
                "coordinator is draining; not accepting new jobs"
            )
        return self.queue.submit(
            kind,
            payload,
            priority=priority,
            max_attempts=max_attempts,
            backoff_seconds=backoff_seconds,
            label=label,
            max_stack_bytes=max_stack_bytes,
            workers=workers,
        )

    def status(self, job_id: str) -> JobRecord:
        """Current record of one job (raises ``KeyError`` when unknown)."""
        return self.queue.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """Every job record, in submission order."""
        return self.queue.jobs()

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job."""
        return self.queue.cancel(job_id)

    def result_path(self, job_id: str) -> Path:
        """Absolute path of a completed job's result payload."""
        job = self.queue.get(job_id)
        path = self.queue.result_path(job)
        if path is None:
            raise ValueError(
                f"job {job_id!r} is {job.state!r} and has no result payload"
            )
        return path

    def result_bytes(self, job_id: str) -> bytes:
        """A completed job's result payload as NPZ wire bytes."""
        return self.result_path(job_id).read_bytes()

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until a job reaches a terminal state (or raise ``TimeoutError``)."""
        return self.queue.wait(job_id, timeout)

    def localize(self, site: str, measurements):
        """Answer a query batch from the current generation (read path)."""
        return self.engine.localize_batch(site, measurements)

    def health(self) -> Dict[str, object]:
        """Flat status snapshot (the HTTP ``/api/health`` body)."""
        counts = self.queue.counts()
        try:
            generation = self.engine.store.current().ordinal
        except RuntimeError:
            generation = None
        return {
            "status": "draining" if self.is_draining else "serving",
            "draining": self.is_draining,
            "jobs": counts,
            "generation": generation,
            "generations_published": self.engine.store.generation_count,
            "sites": list(self.engine.sites),
            "spool": str(self.queue.spool),
        }
