"""The persistent queue's scheduling and durability contracts.

These tests drive :class:`repro.daemon.queue.JobQueue` directly with an
injected clock, so priority ordering, backoff windows and crash recovery
are all exercised without sleeping or spawning threads.
"""

import pytest

from repro.daemon import JobQueue
from repro.io.jobs import load_journal


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(tmp_path, fleet_payload, clock):
    return JobQueue(tmp_path / "spool", clock=clock)


class TestSubmit:
    def test_path_payload_referenced_in_place(self, queue, fleet_payload):
        job = queue.submit("refresh_fleet", fleet_payload)
        assert job.payload == str(fleet_payload.resolve())
        assert queue.payload_path(job) == fleet_payload.resolve()

    def test_bytes_payload_spooled(self, queue, fleet_payload_bytes):
        job = queue.submit("refresh_fleet", fleet_payload_bytes)
        assert job.payload == f"payloads/{job.id}.npz"
        assert queue.payload_path(job).read_bytes() == fleet_payload_bytes

    def test_missing_path_rejected(self, queue, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            queue.submit("refresh_fleet", tmp_path / "absent.npz")

    def test_ids_are_sequential(self, queue, fleet_payload):
        ids = [queue.submit("refresh_fleet", fleet_payload).id for _ in range(3)]
        assert ids == ["j000000", "j000001", "j000002"]

    def test_every_submit_journaled(self, queue, fleet_payload):
        queue.submit("refresh_fleet", fleet_payload, priority=7, label="x")
        jobs = load_journal(queue.journal_path)
        assert [(j.id, j.priority, j.label) for j in jobs] == [("j000000", 7, "x")]


class TestClaimOrdering:
    def test_priority_first(self, queue, fleet_payload):
        queue.submit("refresh_fleet", fleet_payload, priority=0)
        high = queue.submit("refresh_fleet", fleet_payload, priority=5)
        assert queue.claim().id == high.id

    def test_fifo_within_priority(self, queue, fleet_payload):
        first = queue.submit("refresh_fleet", fleet_payload, priority=2)
        queue.submit("refresh_fleet", fleet_payload, priority=2)
        assert queue.claim().id == first.id

    def test_claim_marks_running_and_counts_attempt(self, queue, fleet_payload):
        queue.submit("refresh_fleet", fleet_payload)
        job = queue.claim()
        assert job.state == "running"
        assert job.attempts == 1
        assert queue.get(job.id).state == "running"

    def test_empty_queue_claims_none(self, queue):
        assert queue.claim() is None

    def test_running_jobs_not_reclaimed(self, queue, fleet_payload):
        queue.submit("refresh_fleet", fleet_payload)
        assert queue.claim() is not None
        assert queue.claim() is None


class TestRetryBackoff:
    def test_failed_job_requeues_with_backoff(self, queue, clock, fleet_payload):
        queue.submit("refresh_fleet", fleet_payload, backoff_seconds=2.0)
        job = queue.claim()
        failed = queue.fail(job.id, "boom")
        assert failed.state == "queued"
        assert failed.error == "boom"
        assert failed.not_before == clock.now + 2.0
        # Inside the backoff window nothing is claimable ...
        assert queue.claim() is None
        # ... and once it opens the job runs again.
        clock.advance(2.0)
        assert queue.claim().id == job.id

    def test_backoff_doubles_per_attempt(self, queue, clock, fleet_payload):
        queue.submit(
            "refresh_fleet", fleet_payload, backoff_seconds=1.0, max_attempts=4
        )
        delays = []
        for _ in range(3):
            job = queue.claim()
            failed = queue.fail(job.id, "boom")
            delays.append(failed.not_before - clock.now)
            clock.advance(delays[-1])
        assert delays == [1.0, 2.0, 4.0]

    def test_exhausted_attempts_park_failed(self, queue, clock, fleet_payload):
        queue.submit(
            "refresh_fleet", fleet_payload, max_attempts=2, backoff_seconds=0.0
        )
        queue.fail(queue.claim().id, "first")
        job = queue.fail(queue.claim().id, "second")
        assert job.state == "failed"
        assert job.error == "second"
        assert job.is_terminal
        assert queue.claim() is None

    def test_complete_clears_error(self, queue, clock, fleet_payload):
        queue.submit("refresh_fleet", fleet_payload, backoff_seconds=0.0)
        queue.fail(queue.claim().id, "transient")
        job = queue.complete(queue.claim().id, result="results/j000000.npz",
                             generation=3)
        assert job.state == "done"
        assert job.error is None
        assert job.generation == 3
        assert queue.result_path(job) == queue.spool / "results/j000000.npz"


class TestTransitions:
    def test_only_running_jobs_complete(self, queue, fleet_payload):
        job = queue.submit("refresh_fleet", fleet_payload)
        with pytest.raises(ValueError, match="not running"):
            queue.complete(job.id)

    def test_only_running_jobs_fail(self, queue, fleet_payload):
        job = queue.submit("refresh_fleet", fleet_payload)
        with pytest.raises(ValueError, match="not running"):
            queue.fail(job.id, "boom")

    def test_cancel_queued_job(self, queue, fleet_payload):
        job = queue.submit("refresh_fleet", fleet_payload)
        assert queue.cancel(job.id).state == "cancelled"
        assert queue.claim() is None

    def test_cancel_running_job_rejected(self, queue, fleet_payload):
        queue.submit("refresh_fleet", fleet_payload)
        job = queue.claim()
        with pytest.raises(ValueError, match="only queued jobs"):
            queue.cancel(job.id)

    def test_unknown_ids_raise_key_error(self, queue):
        with pytest.raises(KeyError):
            queue.get("j999999")
        with pytest.raises(KeyError):
            queue.cancel("j999999")

    def test_returned_copies_do_not_leak_state(self, queue, fleet_payload):
        job = queue.submit("refresh_fleet", fleet_payload)
        job.state = "done"
        assert queue.get(job.id).state == "queued"


class TestRecovery:
    def test_restart_requeues_running_jobs(self, tmp_path, fleet_payload, clock):
        spool = tmp_path / "spool"
        queue = JobQueue(spool, clock=clock)
        queue.submit("refresh_fleet", fleet_payload)
        claimed = queue.claim()
        # Coordinator dies here.  A fresh queue over the same spool must
        # resume the interrupted job with its attempt already counted.
        restarted = JobQueue(spool, clock=clock)
        assert restarted.recovered_jobs == [claimed.id]
        job = restarted.get(claimed.id)
        assert job.state == "queued"
        assert job.attempts == 1
        assert restarted.claim().id == claimed.id

    def test_restart_preserves_terminal_states_and_sequence(
        self, tmp_path, fleet_payload, clock
    ):
        spool = tmp_path / "spool"
        queue = JobQueue(spool, clock=clock)
        done = queue.submit("refresh_fleet", fleet_payload)
        queue.complete(queue.claim().id, result="results/x.npz", generation=0)
        queued = queue.submit("refresh_fleet", fleet_payload, priority=1)

        restarted = JobQueue(spool, clock=clock)
        assert restarted.recovered_jobs == []
        assert restarted.get(done.id).state == "done"
        assert restarted.get(queued.id).state == "queued"
        # New submissions continue the id sequence instead of reusing ids.
        assert restarted.submit("refresh_fleet", fleet_payload).id == "j000002"

    def test_corrupt_journal_refuses_to_load(self, tmp_path, fleet_payload):
        spool = tmp_path / "spool"
        queue = JobQueue(spool)
        queue.submit("refresh_fleet", fleet_payload)
        queue.journal_path.write_text("{ not json")
        with pytest.raises(ValueError, match="corrupt job journal"):
            JobQueue(spool)


class TestInspection:
    def test_counts_cover_every_state(self, queue, clock, fleet_payload):
        queue.submit("refresh_fleet", fleet_payload)  # stays queued
        queue.submit("refresh_fleet", fleet_payload, priority=9)
        running = queue.claim()
        assert running is not None
        done_id = queue.submit("refresh_fleet", fleet_payload, priority=-1).id
        cancelled = queue.submit("refresh_fleet", fleet_payload)
        queue.cancel(cancelled.id)
        counts = queue.counts()
        assert counts == {
            "queued": 2, "running": 1, "done": 0, "failed": 0, "cancelled": 1,
        }
        assert {j.id for j in queue.jobs()} >= {running.id, done_id}
