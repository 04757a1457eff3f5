"""Coordinator contracts: scheduling, auto-publish, recovery, draining.

The acceptance scenario of ISSUE 8 lives here: prioritized jobs with an
injected worker failure retry with backoff and still publish generations
whose answers match an offline :class:`~repro.query.engine.QueryEngine`
bit for bit, and a drain leaves nothing pending in the journal.
"""

import threading
import time

import numpy as np
import pytest

from repro.daemon import Coordinator, DaemonConfig, JobQueue
from repro.daemon.coordinator import REFRESH_FLEET, SERVE_PUBLISH
from repro.io import load_report, save_report
from repro.query import QueryConfig, QueryEngine
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig

from tests.workers import running_workers


@pytest.fixture(scope="module")
def offline_report(daemon_fleet_requests):
    """The reference: a serial in-process refresh of the same payload."""
    return UpdateService().refresh_fleet(
        daemon_fleet_requests, elapsed_days=30.0, shards=ShardConfig(), executor="serial"
    )


@pytest.fixture(scope="module")
def offline_engine(offline_report):
    engine = QueryEngine(QueryConfig())
    engine.publish_report(offline_report, label="offline")
    return engine


def serial_config(**overrides):
    """In-process config: one job at a time."""
    defaults = dict(job_workers=1)
    defaults.update(overrides)
    return DaemonConfig(**defaults)


def make_queries(engine, site, count=5, seed=0):
    """Noisy probe measurements for ``site`` from the engine's own index."""
    index = engine.store.current().sites[site].index
    rng = np.random.default_rng(seed)
    probes = index.values[:, :count].T
    return probes + rng.normal(0.0, 0.5, probes.shape)


class TestRefreshLifecycle:
    def test_refresh_job_publishes_and_matches_serial(
        self, tmp_path, fleet_payload, offline_report, offline_engine
    ):
        coordinator = Coordinator(tmp_path / "spool", config=serial_config())
        coordinator.start()
        try:
            job = coordinator.submit(REFRESH_FLEET, fleet_payload, label="first")
            done = coordinator.wait(job.id, timeout=120.0)
            assert done.state == "done"
            assert done.attempts == 1
            assert done.generation == 0

            # The spooled report is bit-identical to the offline refresh.
            report = load_report(coordinator.result_path(job.id))
            assert report.elapsed_days == offline_report.elapsed_days
            for ours, theirs in zip(report.reports, offline_report.reports):
                assert ours.site == theirs.site
                np.testing.assert_array_equal(ours.estimate, theirs.estimate)

            # ... and so are the served answers (lifecycle unification).
            assert coordinator.generations == [(0, "first")]
            site = offline_report.sites[0]
            queries = make_queries(offline_engine, site)
            served = coordinator.localize(site, queries)
            offline = offline_engine.localize_batch(site, queries)
            np.testing.assert_array_equal(served.indices, offline.indices)
            if offline.points is not None:
                np.testing.assert_array_equal(served.points, offline.points)
        finally:
            coordinator.drain(timeout=30.0)

    def test_serve_publish_job_hot_swaps_report(
        self, tmp_path, offline_report
    ):
        report_path = tmp_path / "report.npz"
        save_report(report_path, offline_report)
        coordinator = Coordinator(tmp_path / "spool", config=serial_config())
        coordinator.start()
        try:
            job = coordinator.submit(
                SERVE_PUBLISH, report_path, label="prebuilt"
            )
            done = coordinator.wait(job.id, timeout=30.0)
            assert done.state == "done"
            assert done.generation == 0
            assert done.result is None  # nothing solved, nothing spooled
            assert coordinator.generations == [(0, "prebuilt")]
            assert coordinator.health()["sites"] == sorted(offline_report.sites)
        finally:
            coordinator.drain(timeout=30.0)

    def test_unknown_kind_rejected_at_submit(self, tmp_path, fleet_payload):
        coordinator = Coordinator(tmp_path / "spool", config=serial_config())
        with pytest.raises(ValueError, match="unknown job kind"):
            coordinator.submit("compact_fleet", fleet_payload)

    def test_result_before_completion_rejected(self, tmp_path, fleet_payload):
        coordinator = Coordinator(tmp_path / "spool", config=serial_config())
        job = coordinator.submit(REFRESH_FLEET, fleet_payload)
        with pytest.raises(ValueError, match="no result payload"):
            coordinator.result_path(job.id)


class TestScatterRoute:
    """A job's ``workers`` budget scatters only over remote endpoints."""

    def _refresh(self, spool, config, fleet_payload):
        coordinator = Coordinator(spool, config=config)
        coordinator.start()
        try:
            job = coordinator.submit(REFRESH_FLEET, fleet_payload, workers=2)
            done = coordinator.wait(job.id, timeout=120.0)
            assert done.state == "done", done.error
            return load_report(coordinator.result_path(job.id))
        finally:
            coordinator.drain(timeout=30.0)

    def test_workers_without_endpoints_solve_in_process(
        self, tmp_path, fleet_payload, offline_report
    ):
        report = self._refresh(tmp_path / "spool", serial_config(), fleet_payload)
        assert report.executor == "serial"
        assert report.workers == 0
        for ours, theirs in zip(report.reports, offline_report.reports):
            np.testing.assert_array_equal(ours.estimate, theirs.estimate)

    def test_workers_with_endpoints_scatter_remotely(
        self, tmp_path, fleet_payload, offline_report
    ):
        with running_workers(1) as (worker,):
            report = self._refresh(
                tmp_path / "spool",
                serial_config(endpoints=(worker.url,)),
                fleet_payload,
            )
            assert worker.solved == report.plan.shard_count
        assert report.executor == "remote"
        assert report.workers == 1
        assert report.sites == offline_report.sites
        for ours, theirs in zip(report.reports, offline_report.reports):
            np.testing.assert_array_equal(ours.estimate, theirs.estimate)


class TestRunnersSeam:
    def test_injected_failure_retries_with_backoff_then_succeeds(
        self, tmp_path, fleet_payload
    ):
        attempts = []

        def flaky(job):
            attempts.append(job.attempts)
            if len(attempts) == 1:
                raise RuntimeError("injected worker failure")
            return None, None

        coordinator = Coordinator(
            tmp_path / "spool",
            config=serial_config(),
            runners={REFRESH_FLEET: flaky},
        )
        coordinator.start()
        try:
            job = coordinator.submit(
                REFRESH_FLEET, fleet_payload, backoff_seconds=0.05
            )
            done = coordinator.wait(job.id, timeout=30.0)
            assert done.state == "done"
            assert done.attempts == 2
            assert attempts == [1, 2]
            # The terminal record clears the error but the failed attempt
            # was journaled with it in between (exercised by the queue
            # tests); here the retry observably backed off.
            assert done.error is None
        finally:
            coordinator.drain(timeout=30.0)

    def test_exhausted_retries_park_failed_with_error(
        self, tmp_path, fleet_payload
    ):
        def always_broken(job):
            raise RuntimeError("payload rot")

        coordinator = Coordinator(
            tmp_path / "spool",
            config=serial_config(),
            runners={REFRESH_FLEET: always_broken},
        )
        coordinator.start()
        try:
            job = coordinator.submit(
                REFRESH_FLEET,
                fleet_payload,
                max_attempts=2,
                backoff_seconds=0.01,
            )
            done = coordinator.wait(job.id, timeout=30.0)
            assert done.state == "failed"
            assert done.attempts == 2
            assert "payload rot" in done.error
        finally:
            coordinator.drain(timeout=30.0)

    def test_priority_orders_execution(self, tmp_path, fleet_payload):
        order = []
        release = threading.Event()

        def recording(job):
            # The first-claimed job blocks until both are enqueued, so the
            # job thread must take the second by priority, not arrival.
            order.append(job.label)
            release.wait(timeout=10.0)
            return None, None

        coordinator = Coordinator(
            tmp_path / "spool",
            config=serial_config(),
            runners={REFRESH_FLEET: recording},
        )
        low = coordinator.submit(
            REFRESH_FLEET, fleet_payload, priority=0, label="low"
        )
        high = coordinator.submit(
            REFRESH_FLEET, fleet_payload, priority=5, label="high"
        )
        release.set()
        coordinator.start()
        try:
            assert coordinator.wait(high.id, timeout=30.0).state == "done"
            assert coordinator.wait(low.id, timeout=30.0).state == "done"
            assert order == ["high", "low"]
        finally:
            coordinator.drain(timeout=30.0)


class TestWarmRefresh:
    """ISSUE 9: consecutive refreshes of the same fleet warm-start
    automatically from the coordinator's last published report."""

    def test_second_refresh_warm_starts_from_first(
        self, tmp_path, fleet_payload
    ):
        coordinator = Coordinator(tmp_path / "spool", config=serial_config())
        coordinator.start()
        try:
            first = coordinator.submit(REFRESH_FLEET, fleet_payload)
            assert coordinator.wait(first.id, timeout=120.0).state == "done"
            second = coordinator.submit(REFRESH_FLEET, fleet_payload)
            assert coordinator.wait(second.id, timeout=120.0).state == "done"

            cold = load_report(coordinator.result_path(first.id))
            warm = load_report(coordinator.result_path(second.id))
            assert not any(r.warm_started for r in cold.reports)
            assert all(r.warm_started for r in warm.reports)
            assert sum(r.sweeps for r in warm.reports) == 0
            assert warm.sweeps_saved == {
                r.site: r.sweeps for r in cold.reports
            }
            # Identical data: the warm generation is the cold one, bit
            # for bit.
            for ours, theirs in zip(warm.reports, cold.reports):
                np.testing.assert_array_equal(ours.estimate, theirs.estimate)
        finally:
            coordinator.drain(timeout=30.0)

    def test_warm_cache_survives_for_matching_fleets_only(
        self, tmp_path, fleet_payload, daemon_fleet_requests
    ):
        from repro.io import save_requests

        # A different fleet (subset of sites) must not inherit the cache.
        subset_path = tmp_path / "subset.npz"
        save_requests(subset_path, daemon_fleet_requests[:3], elapsed_days=30.0)
        coordinator = Coordinator(tmp_path / "spool", config=serial_config())
        coordinator.start()
        try:
            first = coordinator.submit(REFRESH_FLEET, fleet_payload)
            assert coordinator.wait(first.id, timeout=120.0).state == "done"
            subset = coordinator.submit(REFRESH_FLEET, subset_path)
            assert coordinator.wait(subset.id, timeout=120.0).state == "done"
            report = load_report(coordinator.result_path(subset.id))
            assert not any(r.warm_started for r in report.reports)
        finally:
            coordinator.drain(timeout=30.0)


class TestCrashRecovery:
    """ISSUE 8 satellite: kill mid-queue, restart, run exactly once."""

    def test_interrupted_jobs_resume_exactly_once_bit_identical(
        self, tmp_path, fleet_payload, offline_report
    ):
        spool = tmp_path / "spool"
        # A coordinator accepted two jobs and died mid-execution: the
        # first job had been claimed (journaled ``running``), the second
        # was still queued.  No coordinator thread ever ran — exactly the
        # on-disk state a SIGKILL leaves.
        dead = JobQueue(spool)
        first = dead.submit(REFRESH_FLEET, fleet_payload, label="interrupted")
        second = dead.submit(REFRESH_FLEET, fleet_payload, label="queued")
        claimed = dead.claim()
        assert claimed.id == first.id
        del dead

        runs = []

        class CountingCoordinator(Coordinator):
            def _run_refresh(self, job):
                runs.append(job.id)
                return super()._run_refresh(job)

        coordinator = CountingCoordinator(spool, config=serial_config())
        assert coordinator.queue.recovered_jobs == [first.id]
        coordinator.start()
        try:
            done_first = coordinator.wait(first.id, timeout=120.0)
            done_second = coordinator.wait(second.id, timeout=120.0)
            # Exactly once each after restart; the interrupted claim still
            # counts, so the resumed job reports two attempts.
            assert runs == [first.id, second.id]
            assert done_first.state == "done"
            assert done_first.attempts == 2
            assert done_second.state == "done"
            assert done_second.attempts == 1

            # Results are bit-identical to the serial in-process refresh.
            for job_id in (first.id, second.id):
                report = load_report(coordinator.result_path(job_id))
                for ours, theirs in zip(report.reports, offline_report.reports):
                    np.testing.assert_array_equal(
                        ours.estimate, theirs.estimate
                    )
        finally:
            coordinator.drain(timeout=30.0)


class TestDrain:
    def test_drain_rejects_submissions_and_keeps_queued_jobs(
        self, tmp_path, fleet_payload
    ):
        started = threading.Event()
        release = threading.Event()

        def slow(job):
            started.set()
            release.wait(timeout=10.0)
            return None, None

        coordinator = Coordinator(
            tmp_path / "spool",
            config=serial_config(),
            runners={REFRESH_FLEET: slow},
        )
        coordinator.start()
        running = coordinator.submit(REFRESH_FLEET, fleet_payload)
        queued = coordinator.submit(REFRESH_FLEET, fleet_payload)
        assert started.wait(timeout=10.0)

        drained = threading.Event()

        def drain():
            coordinator.drain(timeout=30.0)
            drained.set()

        thread = threading.Thread(target=drain)
        thread.start()
        try:
            # Draining: new work is rejected while the running job finishes.
            with pytest.raises(RuntimeError, match="draining"):
                coordinator.submit(REFRESH_FLEET, fleet_payload)
            assert not drained.is_set()
            release.set()
            thread.join(timeout=30.0)
            assert drained.is_set()
        finally:
            release.set()
            thread.join(timeout=30.0)

        # The running job completed; the queued one is journaled for the
        # next start, untouched.
        assert coordinator.status(running.id).state == "done"
        assert coordinator.status(queued.id).state == "queued"
        restarted = JobQueue(tmp_path / "spool")
        assert restarted.recovered_jobs == []
        assert restarted.get(queued.id).state == "queued"

    def test_idle_drain_wakes_job_threads_at_once(self, tmp_path):
        coordinator = Coordinator(
            tmp_path / "spool", config=serial_config(job_workers=2)
        )
        coordinator.start()
        began = time.monotonic()
        assert coordinator.drain(timeout=5)
        assert time.monotonic() - began < 1.0

    def test_drained_coordinator_cannot_restart(self, tmp_path):
        coordinator = Coordinator(tmp_path / "spool", config=serial_config())
        coordinator.start()
        assert coordinator.drain(timeout=30.0)
        with pytest.raises(RuntimeError, match="drained"):
            coordinator.start()


class TestAcceptanceScenario:
    """The issue's end-to-end bar, in-process (the HTTP variant rides in
    ``test_http.py``): two prioritized refreshes, one injected failure."""

    def test_prioritized_jobs_with_injected_failure(
        self, tmp_path, fleet_payload, offline_report, offline_engine
    ):
        failures = {"remaining": 1}
        order = []

        def flaky_refresh(coordinator, job):
            order.append(job.label)
            if job.label == "low" and failures["remaining"]:
                failures["remaining"] -= 1
                raise RuntimeError("injected worker failure")
            return Coordinator._run_refresh(coordinator, job)

        coordinator = Coordinator(
            tmp_path / "spool", config=serial_config()
        )
        coordinator._runners[REFRESH_FLEET] = (
            lambda job: flaky_refresh(coordinator, job)
        )
        low = coordinator.submit(
            REFRESH_FLEET,
            fleet_payload,
            priority=0,
            label="low",
            backoff_seconds=0.05,
        )
        high = coordinator.submit(
            REFRESH_FLEET, fleet_payload, priority=5, label="high"
        )
        coordinator.start()
        try:
            done_high = coordinator.wait(high.id, timeout=120.0)
            done_low = coordinator.wait(low.id, timeout=120.0)

            # High priority ran first despite being submitted second; the
            # failed low-priority attempt retried after backoff.
            assert order[0] == "high"
            assert order.count("low") == 2
            assert done_high.state == "done"
            assert done_high.attempts == 1
            assert done_low.state == "done"
            assert done_low.attempts == 2

            # Both reports auto-published: generation ordinal advanced.
            assert done_high.generation == 0
            assert done_low.generation == 1
            assert coordinator.generations == [(0, "high"), (1, "low")]

            # Served answers match the offline engine bit for bit.
            for site in offline_report.sites[:3]:
                queries = make_queries(offline_engine, site, seed=7)
                served = coordinator.localize(site, queries)
                offline = offline_engine.localize_batch(site, queries)
                np.testing.assert_array_equal(served.indices, offline.indices)
                if offline.points is not None:
                    np.testing.assert_array_equal(served.points, offline.points)
        finally:
            assert coordinator.drain(timeout=30.0)
        # Graceful drain left nothing pending in the journal.
        counts = coordinator.queue.counts()
        assert counts["queued"] == counts["running"] == 0
