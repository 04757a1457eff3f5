"""The persistent queue's scheduling and durability contracts.

Most of these tests drive :class:`repro.daemon.queue.JobQueue` directly
with an injected clock, so priority ordering, backoff windows and crash
recovery are all exercised without sleeping or spawning threads.
``TestBlockingTake`` uses real threads and the real clock: a taker must
wake on the event itself, well before a ``RECHECK_SECONDS`` re-check.
"""

import sys
import threading
import time

import pytest

from repro.daemon import JobQueue
from repro.daemon.queue import RECHECK_SECONDS
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


class Taker:
    """One thread blocked in ``queue.take()``, recording when it returned."""

    def __init__(self, queue):
        self.job = self.taken_at = None
        self.thread = threading.Thread(target=self._take, args=(queue,))
        self.thread.start()

    def _take(self, queue):
        self.job = queue.take()
        self.taken_at = time.time()

    def join(self, timeout=10.0):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "take() never returned"
        return self.job


class TestBlockingTake:
    """A taker wakes on the journal write or on ``close``, not on a poll."""

    PROMPT = RECHECK_SECONDS / 2

    @pytest.fixture
    def live(self, tmp_path):
        queue = JobQueue(tmp_path / "spool")
        yield queue
        queue.close()

    def test_take_wakes_on_submit(self, live, fleet_payload):
        taker = Taker(live)
        time.sleep(0.1)
        submitted_at = time.time()
        job = live.submit("refresh_fleet", fleet_payload)
        assert taker.join().id == job.id
        assert taker.taken_at - submitted_at < self.PROMPT
        assert live.get(job.id).state == "running"

    def test_close_releases_every_taker(self, live):
        takers = [Taker(live) for _ in range(3)]
        time.sleep(0.1)
        closed_at = time.time()
        live.close()
        assert [taker.join(timeout=self.PROMPT) for taker in takers] == [None] * 3
        assert max(t.taken_at for t in takers) - closed_at < self.PROMPT
        assert live.take() is None

    def test_backoff_window_opens_on_time(self, live, fleet_payload):
        live.submit("refresh_fleet", fleet_payload, backoff_seconds=0.2)
        failed = live.fail(live.claim().id, "boom")
        taker = Taker(live)
        job = taker.join()
        assert job.id == failed.id and job.attempts == 2
        assert taker.taken_at >= failed.not_before
        assert taker.taken_at - failed.not_before < self.PROMPT

    def test_two_takers_get_distinct_jobs(self, live, fleet_payload):
        takers = [Taker(live) for _ in range(2)]
        time.sleep(0.1)
        ids = {live.submit("refresh_fleet", fleet_payload).id for _ in range(2)}
        taken = {taker.join(timeout=self.PROMPT).id for taker in takers}
        assert taken == ids

    def test_running_jobs_complete_after_close(self, live, fleet_payload):
        job = live.submit("refresh_fleet", fleet_payload)
        assert live.take().id == job.id
        idle = Taker(live)
        time.sleep(0.1)
        live.close()
        assert idle.join(timeout=self.PROMPT) is None
        assert live.complete(job.id).state == "done"
        queued = live.submit("refresh_fleet", fleet_payload)
        assert live.take() is None
        assert live.get(queued.id).state == "queued"

    def test_wait_returns_on_completion(self, live, fleet_payload):
        job = live.submit("refresh_fleet", fleet_payload)
        live.claim()
        timer = threading.Timer(0.1, live.complete, args=(job.id,))
        timer.start()
        began = time.time()
        try:
            assert live.wait(job.id, timeout=10.0).state == "done"
        finally:
            timer.join()
        assert time.time() - began < 0.1 + self.PROMPT

    def test_wait_times_out_on_queued_job(self, live, fleet_payload):
        job = live.submit("refresh_fleet", fleet_payload)
        began = time.time()
        with pytest.raises(TimeoutError, match="still 'queued' after 0.2s"):
            live.wait(job.id, timeout=0.2)
        assert time.time() - began < 0.2 + self.PROMPT

    def test_many_takers_run_each_job_exactly_once(self, live, fleet_payload):
        ids = [live.submit("refresh_fleet", fleet_payload).id for _ in range(40)]
        taken = []

        def work():
            while (job := live.take()) is not None:
                taken.append(job.id)
                live.complete(job.id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work) for _ in range(8)]
            for worker in workers:
                worker.start()
            # FIFO: once the last job is done, every job has been taken.
            live.wait(ids[-1], timeout=30.0)
            live.close()
            for worker in workers:
                worker.join(timeout=30.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == ids
        assert live.counts()["done"] == len(ids)
