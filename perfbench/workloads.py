"""The four benchmark workloads: survey, refresh, serve and daemon.

Each workload is built from one ``--seed`` and runs as a closed or open loop
for a given number of seconds.  ``setup()`` prepares inputs (untimed by the
loop, but part of the run's ``setup_s``); ``measure(seconds)`` runs the loop
and returns a :class:`Measurement`; ``close()`` releases everything the
workload started.  ``measure`` may be called twice (the traced run measures
an untraced and a traced phase back to back).

Library callables are looked up on their modules at call time, never bound
at import, so the traced run's span wrappers (see ``spans.py``) are seen.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import fleet
from perfbench.hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
DAY = 45.0  # the refresh stamp of every workload (the paper's 45-day survey)
_now = time.perf_counter


@dataclass
class Size:
    """Workload scale; ``tiny`` keeps the self-test fast."""

    link_count: Optional[int] = None
    locations_per_link: Optional[int] = None
    copies: int = 8  # refresh fleet: 3 surveyed sites x copies
    daemon_copies: int = 2  # daemon fleet: 3 surveyed sites x copies
    serve_b1: int = 200  # batch-1 calls per serve round
    serve_b64: int = 4  # batch-64 calls per serve round
    daemon_rate: float = 200.0  # /api/localize requests per second
    daemon_period: float = 0.5  # seconds between refresh_fleet submissions


SIZES = {
    "paper": Size(),
    "tiny": Size(link_count=3, locations_per_link=4, copies=1, daemon_copies=1, serve_b1=20,
                 serve_b64=1, daemon_rate=50.0, daemon_period=0.25),
}


@dataclass
class Measurement:
    """What one measured phase produced."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    busy_s: float = 0.0  # summed time of the timed operations
    ops: int = 0
    covered_s: float = 0.0  # busy time attributed from records instead of spans
    e2e: Dict[str, float] = field(default_factory=dict)  # at reference host speed
    raw: Dict[str, float] = field(default_factory=dict)  # the same, wall-clock
    factor: float = 1.0  # the phase's overall host-speed factor, see hostspeed.py
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def finish(self, host: HostSpeed, rows: int, rate_timed, latency_timed,
               window: Optional[int] = None) -> None:
        """Set ``raw`` and ``e2e`` from ``(seconds, mark)`` pairs: ``ops_per_s``
        is ``rows`` over the summed time of the ``rate_timed`` calls; see
        :func:`p99_ms` for ``window``."""
        host.mark()  # closes the interval of the last operation
        self.factor = host.overall()
        for target, pick in ((self.raw, lambda s, k: s),
                             (self.e2e, lambda s, k: s * host.factor(k))):
            rate = [pick(s, k) for s, k in rate_timed]
            latencies = [pick(s, k) for s, k in latency_timed]
            target.update({
                "ops_per_s": rows / sum(rate) if rate else 0.0,
                "latency_ms_p50": percentile_ms(latencies, 50),
                "latency_ms_p99": p99_ms(latencies, window),
            })


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q)) if seconds else 0.0


def p99_ms(seconds, window: Optional[int] = None) -> float:
    """The 99th percentile, or with ``window`` the median over consecutive
    windows of that many operations of each window's 99th percentile.

    A one-second host stall delays every request due in it; over a whole
    run it alone moved the daemon's p99 from 6 ms to 10-20 ms in some runs.
    The windowed form is the tail of a typical window, which such a stall
    moves only in its own window.
    """
    if window is None or len(seconds) < 2 * window:
        return percentile_ms(seconds, 99)
    values = np.asarray(seconds[: len(seconds) // window * window]) * 1e3
    return float(np.median(np.percentile(values.reshape(-1, window), 99, axis=1)))


def refresh_fleet(requests, elapsed_days: float):
    """``fleet run``'s in-process path: default shards, serial executor."""
    from repro.service import service as service_module
    from repro.service import shard, types

    service = service_module.UpdateService()
    reports = service.update_fleet(requests, shards=shard.ShardConfig(), executor="serial")
    return types.FleetReport(
        elapsed_days=elapsed_days,
        reports=tuple(reports),
        stacked_sweeps=service.last_stacked_sweeps,
        plan=service.last_plan,
        executor="serial",
        workers=0,
        sweeps_saved=service.last_sweeps_saved,
    )


def corrupt_payload(data: bytes, suffix: str) -> bytes:
    """Self-test hook: shift the first array ending in ``suffix`` by 10 dB."""
    manifest, arrays = fleet.read_npz(data)
    key = sorted(k for k in arrays if k.endswith(suffix))[0]
    arrays[key] = arrays[key] + 10.0
    buffer = io.BytesIO()
    np.savez_compressed(buffer, manifest=np.asarray(json.dumps(manifest)), **arrays)
    return buffer.getvalue()


class Workload:
    name = ""
    #: What the traced run cannot see inside the measured time.
    unmeasured = "the benchmark loop between library calls"

    def __init__(self, seed: int, size: Size, corrupt: bool = False) -> None:
        self.seed = seed
        self.size = size
        self.corrupt = corrupt

    def setup(self) -> None:
        pass

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- survey
class Survey(Workload):
    """``fleet export``: synthesize one paper-scale site (office, hall and
    library in turn, each with a fresh seed) and encode it.  Closed loop."""

    name = "survey"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.op_index = 0

    def measure(self, seconds: float) -> Measurement:
        from repro.io import wire
        from repro.service import synthetic

        m = Measurement()
        host = HostSpeed()
        timed = []
        deadline = _now() + seconds
        while _now() < deadline:
            mark = host.mark()
            index = self.op_index
            self.op_index += 1
            m.attempted += 1
            start = _now()
            try:
                requests = synthetic.synthesize_fleet(
                    1,
                    environments=[fleet.ENVIRONMENTS[index % len(fleet.ENVIRONMENTS)]],
                    elapsed_days=DAY,
                    seed=fleet.site_seed(self.seed, index),
                    link_count=self.size.link_count,
                    locations_per_link=self.size.locations_per_link,
                )
                data = wire.requests_to_bytes(requests, elapsed_days=DAY)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                m.fail(f"fleet export raised {type(exc).__name__}: {exc}")
                continue
            elapsed = _now() - start
            timed.append((elapsed, mark))
            m.busy_s += elapsed
            m.ops += 1
            if self.corrupt:
                data = corrupt_payload(data, "__baseline_values")
            problems = fleet.check_request_payload(data, requests)
            if problems:
                m.fail(f"survey payload: {problems[0]}")
        m.finish(host, m.ops, timed, timed)
        m.named = {
            "survey_sites_per_s": (m.e2e["ops_per_s"], "1/s"),
            "survey_site_ms_p50": (m.e2e["latency_ms_p50"], "ms"),
            "survey_site_ms_p99": (m.e2e["latency_ms_p99"], "ms"),
        }
        return m


# -------------------------------------------------------------------- refresh
class Refresh(Workload):
    """``fleet run``, cold and serial: decode the payload, refresh every
    site, encode the report.  The same 24-site fleet every pass."""

    name = "refresh"

    def setup(self) -> None:
        from repro.io import wire

        base = fleet.build_sites(
            self.seed, [DAY], link_count=self.size.link_count,
            locations_per_link=self.size.locations_per_link,
        )
        self.sites = fleet.replicate(base, self.size.copies)
        self.payload = wire.requests_to_bytes(
            [site.requests[DAY] for site in self.sites], elapsed_days=DAY
        )

    def measure(self, seconds: float) -> Measurement:
        from repro.io import wire

        m = Measurement()
        host = HostSpeed()
        timed, errors, stale = [], [], []
        deadline = _now() + seconds
        while _now() < deadline:
            mark = host.mark()
            m.attempted += 1
            start = _now()
            try:
                requests = wire.requests_from_bytes(self.payload)
                report = refresh_fleet(requests, DAY)
                buffer = io.BytesIO()
                wire.save_report(buffer, report)
                data = buffer.getvalue()
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                m.fail(f"fleet run raised {type(exc).__name__}: {exc}")
                continue
            elapsed = _now() - start
            timed.append((elapsed, mark))
            m.busy_s += elapsed
            m.ops += 1
            if self.corrupt:
                data = corrupt_payload(data, "__estimate")
            check = fleet.check_report_payload(data, self.sites, DAY)
            errors.extend(check.errors_db)
            stale.extend(check.stale_db)
            if check.problems:
                m.fail(f"refresh report: {check.problems[0]}")
        m.finish(host, len(self.sites) * m.ops, timed, timed)
        error_db = float(np.mean(errors)) if errors else 0.0
        stale_db = float(np.mean(stale)) if stale else 0.0
        m.named = {
            "refresh_sites_per_s": (m.e2e["ops_per_s"], "1/s"),
            "refresh_pass_ms_p50": (m.e2e["latency_ms_p50"], "ms"),
            "refresh_error_db": (error_db, "dB"),
            "refresh_stale_db": (stale_db, "dB"),
        }
        m.layer = {"accuracy.error_db": error_db, "accuracy.stale_db": stale_db}
        return m


# ---------------------------------------------------------------------- serve
RESEND_SHARE = 0.25  # share of batch-1 calls that re-send an earlier exact vector
CACHE_SIZE = 4096


class Serve(Workload):
    """In-process ``QueryEngine`` (kNN, vectorized, result cache on) over a
    published refreshed report.  Each round sends batch-1 calls (a quarter
    are exact re-sends of a recent query) and then batch-64 calls.  Closed
    loop on one thread."""

    name = "serve"

    def setup(self) -> None:
        from repro.query import engine as engine_module

        self.sites = fleet.build_sites(
            self.seed, [DAY], link_count=self.size.link_count,
            locations_per_link=self.size.locations_per_link,
        )
        self.report = refresh_fleet([site.requests[DAY] for site in self.sites], DAY)
        self.engine = engine_module.QueryEngine(
            engine_module.QueryConfig(cache_size=CACHE_SIZE)
        )
        self.engine.publish_report(self.report)
        self.oracles = []
        for site, site_report in zip(self.sites, self.report.reports):
            matrix = site_report.result.matrix
            self.oracles.append(fleet.BruteKNN(matrix.values, matrix.locations_per_link))
        self.stream = fleet.QueryStream(self.sites, DAY, self.seed)
        self.shared = fleet.SharedAnswers(self.engine.config.cache_quantum_db, 4 * CACHE_SIZE)
        self.recent: List[tuple] = []
        self.choice = np.random.default_rng(self.seed + 1)

    def _batch1_inputs(self) -> List[tuple]:
        queries = []
        for _ in range(self.size.serve_b1):
            if self.recent and self.choice.random() < RESEND_SHARE:
                queries.append(self.recent[int(self.choice.integers(len(self.recent)))])
            else:
                query = self.stream.draw(1)[0]
                queries.append(query)
                self.recent.append(query)
        self.recent = self.recent[-self.size.serve_b1:]
        return queries

    def measure(self, seconds: float) -> Measurement:
        # Publishing again (untimed) lets a traced phase record the index
        # build and matcher bind; the new generation starts a cold cache.
        m = Measurement()
        start = _now()
        self.engine.publish_report(self.report)
        m.busy_s += _now() - start
        host = HostSpeed()
        b1_times: List[tuple] = []
        b64_times: List[tuple] = []
        b64_rows = 0
        hits = 0
        distance_sum = 0.0
        deadline = _now() + seconds
        while _now() < deadline:
            mark = host.mark()
            batch1 = self._batch1_inputs()
            batch64 = [self.stream.draw(64, site_index=k % len(self.sites))
                       for k in range(self.size.serve_b64)]
            answered = []
            round_start = _now()
            for query in batch1:
                start = _now()
                try:
                    answer = self.engine.localize_batch(self.sites[query[0]].name, query[2][None, :])
                except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
                    m.attempted += 1
                    m.fail(f"localize_batch raised {type(exc).__name__}: {exc}")
                    continue
                b1_times.append((_now() - start, mark))
                answered.append((query, int(answer.indices[0]), answer.points[0]))
                hits += int(answer.cache_hits)
            b1_end = _now()
            for rows in batch64:
                matrix = np.vstack([vector for _, _, vector in rows])
                start = _now()
                try:
                    answer = self.engine.localize_batch(self.sites[rows[0][0]].name, matrix)
                except Exception as exc:  # noqa: BLE001 - a failed batch is counted, not fatal
                    m.attempted += len(rows)
                    m.fail(f"localize_batch raised {type(exc).__name__}: {exc}", len(rows))
                    continue
                b64_times.append((_now() - start, mark))
                b64_rows += len(rows)
                answered.extend(
                    (query, int(index), point)
                    for query, index, point in zip(rows, answer.indices, answer.points)
                )
            m.busy_s += b1_end - round_start
            m.ops += 1
            if self.corrupt:
                query, index, point = answered[0]
                answered[0] = (query, (index + 1) % self.oracles[query[0]].points.shape[0], point)
            for (k, _, vector), _, _ in answered:
                self.shared.remember(k, vector)
            for (k, column, vector), index, point in answered:
                m.attempted += 1
                problem = self.shared.problem(self.oracles[k], k, vector, index, point)
                if problem:
                    m.fail(f"serve answer: {problem}")
                distance_sum += float(np.linalg.norm(point - self.oracles[k].points[column]))
        m.busy_s += sum(seconds for seconds, _ in b64_times)
        m.finish(host, b64_rows, b64_times, b1_times, window=self.size.serve_b1)
        error_m = distance_sum / m.attempted if m.attempted else 0.0
        hit_rate = hits / len(b1_times) if b1_times else 0.0
        m.named = {
            "serve_b1_ms_p50": (m.e2e["latency_ms_p50"], "ms"),
            "serve_b1_ms_p99": (m.e2e["latency_ms_p99"], "ms"),
            "serve_b64_qps": (m.e2e["ops_per_s"], "1/s"),
            "serve_error_m": (error_m, "m"),
            "serve_b1_hit_rate": (hit_rate, "ratio"),
        }
        m.layer = {"accuracy.error_m": error_m}
        return m


# --------------------------------------------------------------------- daemon
class Daemon(Workload):
    """``daemon start`` with CLI defaults (cache off, serial refresh) as a
    subprocess, driven over HTTP by ``DaemonClient``.  One thread sends
    batch-1 ``/api/localize`` requests in an open loop at a fixed rate; a
    second submits a ``refresh_fleet`` job every period, alternating two
    days of the same fleet, so every job after the cold first one
    warm-starts and publishes a new generation while reads are in flight."""

    name = "daemon"
    unmeasured = "HTTP transport: the client, sockets and request parsing before the handler"

    def __init__(self, *args, traced: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.tmp: Optional[Path] = None
        self.oracles: Dict[int, Dict[str, fleet.BruteKNN]] = {}

    # ------------------------------------------------------------ lifecycle
    def setup(self) -> None:
        from repro.daemon import client as client_module
        from repro.io import wire

        base = fleet.build_sites(
            self.seed, [DAY, DAY + 1], link_count=self.size.link_count,
            locations_per_link=self.size.locations_per_link,
        )
        self.sites = fleet.replicate(base, self.size.daemon_copies)
        self.by_name = {site.name: site for site in self.sites}
        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="daemon-", dir=OUT))
        self.payloads = {}
        for day in (DAY, DAY + 1):
            path = self.tmp / f"day{day:g}.npz"
            wire.save_requests(path, [site.requests[day] for site in self.sites], elapsed_days=day)
            self.payloads[day] = path
        self.trace_path = self.tmp / "trace.json"
        self._start_daemon()
        self.client = client_module.DaemonClient(self.url, timeout=30.0)
        self.client.wait_until_ready(timeout=60.0)
        first = self._submit(DAY)
        self.client.wait(first, timeout=120.0, poll=0.02)
        self.job_days = {first: DAY}
        cold = Measurement()
        self._check_jobs([first], cold)
        if cold.failed:
            raise RuntimeError(f"cold refresh job failed: {cold.problems[0]}")
        self.next_day = DAY + 1
        self.stream = fleet.QueryStream(self.sites, DAY, self.seed)

    def _start_daemon(self) -> None:
        command = [sys.executable]
        if self.traced:
            command.append(str(ROOT / "perfbench" / "daemon_traced.py"))
        else:
            command += ["-m", "repro.experiments.cli"]
        command += ["daemon", "start", "--spool", str(self.tmp / "spool"), "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PERFBENCH_TRACE_OUT"] = str(self.trace_path)
        with open(self.tmp / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=env, cwd=str(ROOT)
            )
        banner: List[bytes] = []
        reader = threading.Thread(target=lambda: banner.append(self.proc.stdout.readline()))
        reader.daemon = True
        reader.start()
        reader.join(timeout=60.0)
        line = banner[0].decode("utf-8", "replace") if banner else ""
        if "listening on " not in line:
            raise RuntimeError(f"daemon did not start (banner {line!r}); see {self.tmp}/daemon.log")
        self.url = line.split("listening on ", 1)[1].split()[0]

    def _submit(self, day) -> str:
        payload = b"not a payload" if day is None else str(self.payloads[day])
        label = "corrupt" if day is None else f"day{day:g}"
        return self.client.submit(payload, kind="refresh_fleet", label=label, max_attempts=1)["id"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("daemon peak RSS unavailable")

    def enable_tracing(self) -> None:
        os.kill(self.proc.pid, signal.SIGUSR1)

    def stop_daemon(self) -> Optional[dict]:
        """Drain the daemon, reap it, and return its trace (when traced)."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        try:
            if proc.poll() is None:
                try:
                    self.client.drain()
                except Exception:  # noqa: BLE001 - fall through to terminate
                    proc.terminate()
                try:
                    proc.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if self.traced and self.trace_path.exists():
            return json.loads(self.trace_path.read_text())
        return None

    def close(self) -> None:
        try:
            self.stop_daemon()
        finally:
            if self.tmp is not None:
                shutil.rmtree(self.tmp, ignore_errors=True)
                self.tmp = None

    # ----------------------------------------------------------- measuring
    def _localize_loop(self, start: float, queries, log) -> None:
        rate = self.size.daemon_rate
        for i, query in enumerate(queries):
            due = start + i / rate
            delay = due - _now()
            if delay > 0:
                time.sleep(delay)
            sent = _now()
            try:
                answer = self.client.localize(self.sites[query[0]].name, query[2][None, :])
                log.append((due, sent, _now(), query, answer, None))
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                log.append((due, sent, _now(), query, None, exc))

    def _submit_loop(self, start: float, seconds: float, submitted) -> None:
        period = self.size.daemon_period
        k = 0
        while True:
            due = start + (k + 0.5) * period
            if due >= start + seconds:
                break
            delay = due - _now()
            if delay > 0:
                time.sleep(delay)
            day = self.next_day
            self.next_day = DAY + 1 if day == DAY else DAY
            try:
                submitted.append((self._submit(day), day, None))
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                submitted.append((None, day, exc))
            k += 1
        if self.corrupt:
            try:
                submitted.append((self._submit(None), None, None))
            except Exception as exc:  # noqa: BLE001
                submitted.append((None, None, exc))

    def _check_jobs(self, job_ids, m: Measurement) -> dict:
        """Check finished jobs' reports; learn each generation's estimates."""
        records = {record["id"]: record for record in self.client.jobs()}
        stats = {"errors": [], "stale": [], "sweeps": 0, "saved": 0}
        for job_id in job_ids:
            record = records[job_id]
            day = self.job_days.get(job_id)
            if record["state"] != "done" or day is None:
                m.fail(f"job {job_id} ended {record['state']}: {record.get('error')}")
                continue
            check = fleet.check_report_payload(self.client.result(job_id), self.sites, day)
            if check.problems:
                m.fail(f"daemon report: {check.problems[0]}")
            stats["errors"] += check.errors_db
            stats["stale"] += check.stale_db
            stats["sweeps"] += sum(check.sweeps)
            stats["saved"] += check.sweeps_saved
            self.oracles[record["generation"]] = {
                name: fleet.BruteKNN(estimate, self.by_name[name].requests[day].baseline.locations_per_link)
                for name, estimate in check.estimates.items()
            }
        stats["records"] = records
        return stats

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        rate = self.size.daemon_rate
        queries = self.stream.draw(max(1, int(seconds * rate)))
        log: List[tuple] = []
        submitted: List[tuple] = []
        start = _now() + 0.05
        threads = [
            threading.Thread(target=self._localize_loop, args=(start, queries, log), daemon=True),
            threading.Thread(target=self._submit_loop, args=(start, seconds, submitted), daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        job_ids = []
        for job_id, day, error in submitted:
            if job_id is None:
                m.fail(f"submit failed: {error}")
                continue
            self.job_days[job_id] = day
            try:
                self.client.wait(job_id, timeout=120.0, poll=0.02)
            except TimeoutError as exc:
                m.fail(str(exc))
            job_ids.append(job_id)
        m.attempted += len(submitted)
        stats = self._check_jobs(job_ids, m)
        records = stats["records"]
        done = [records[j] for j in job_ids if records[j]["state"] == "done"]
        refresh_s = [r["finished_at"] - r["submitted_at"] for r in done]
        waits = [r["started_at"] - r["submitted_at"] for r in done]
        runs = [r["finished_at"] - r["started_at"] for r in done]

        latencies, late = [], []
        window = max((entry[2] for entry in log), default=start) - start
        for due, sent, finished, (k, column, vector), answer, error in log:
            m.attempted += 1
            late.append(sent - due)
            m.busy_s += finished - sent
            if error is not None:
                m.fail(f"localize failed: {error}")
                continue
            latencies.append(finished - due)
            oracle = self.oracles.get(answer["generation"], {}).get(self.sites[k].name)
            if oracle is None:
                m.fail(f"answer from unknown generation {answer['generation']}")
                continue
            points = answer.get("points")
            problem = oracle.problem(vector, int(answer["indices"][0]),
                                     None if points is None else points[0])
            if problem:
                m.fail(f"daemon answer: {problem}")
        m.busy_s += sum(refresh_s)
        m.covered_s = sum(waits)
        m.ops = len(log)
        refresh_p50 = float(np.median(refresh_s)) if refresh_s else 0.0
        # Not scaled to the reference host speed: the kernel cannot run
        # between requests without taking the GIL from the client threads,
        # and marks on both sides of the window did not track (they made
        # the p50 spread 0.27 where wall-clock read 0.06).  ops_per_s is
        # answers per second at the offered rate: it drops only when the
        # daemon cannot keep up.  Job latency moves with GIL contention too
        # much to carry a bound.
        m.e2e = m.raw = {
            "ops_per_s": len(latencies) / window if window > 0 else 0.0,
            "latency_ms_p50": percentile_ms(latencies, 50),
            # Windows of one second of offered requests.
            "latency_ms_p99": p99_ms(latencies, int(self.size.daemon_rate)),
        }
        late_max = 1e3 * max(late) if late else 0.0
        error_db = float(np.mean(stats["errors"])) if stats["errors"] else 0.0
        m.named = {
            "daemon_refresh_s_p50": (refresh_p50, "s"),
            "daemon_localize_ms_p50": (m.e2e["latency_ms_p50"], "ms"),
            "daemon_localize_ms_p99": (m.e2e["latency_ms_p99"], "ms"),
            "daemon_refresh_jobs": (len(done), "count"),
            "daemon_generator_late_ms_max": (late_max, "ms"),
        }
        m.layer = {
            "daemon.refresh_s_p50": refresh_p50,
            "daemon.queue.wait_s_p50": float(np.median(waits)) if waits else 0.0,
            "daemon.coordinator.run_s_p50": float(np.median(runs)) if runs else 0.0,
            "daemon.refresh.jobs": len(done),
            "daemon.refresh.site_sweeps": stats["sweeps"],
            "daemon.refresh.sweeps_saved": stats["saved"],
            "daemon.localize.sent": len(log),
            "daemon.generator.late_ms_max": late_max,
            "accuracy.error_db": error_db,
            "accuracy.stale_db": float(np.mean(stats["stale"])) if stats["stale"] else 0.0,
        }
        return m


WORKLOADS = {cls.name: cls for cls in (Survey, Refresh, Serve, Daemon)}


def create(name: str, seed: int, size: str = "paper", corrupt: bool = False,
           traced: bool = False) -> Workload:
    cls = WORKLOADS[name]
    kwargs = {"traced": traced} if cls is Daemon else {}
    return cls(seed, SIZES[size], corrupt=corrupt, **kwargs)
