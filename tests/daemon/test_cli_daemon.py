"""The ``daemon`` CLI: parsing, and the real-process SIGTERM drain.

The subprocess test is the one place the SIGTERM path runs for real — a
``daemon start`` child process receives the signal mid-serve, drains,
and must exit 0 with its queued work journaled.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestParser:
    def test_start_defaults(self):
        args = build_parser().parse_args(
            ["daemon", "start", "--spool", "/tmp/spool"]
        )
        assert args.command == "daemon"
        assert args.daemon_command == "start"
        assert args.host == "127.0.0.1"
        assert args.port == 8753
        assert args.job_workers == 2
        assert args.matcher == "knn"
        assert args.cache == 0

    def test_start_requires_spool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["daemon", "start"])

    def test_submit_flags(self):
        args = build_parser().parse_args(
            [
                "daemon", "submit", "--url", "http://127.0.0.1:1",
                "--in", "fleet.npz", "--kind", "serve_publish",
                "--priority", "4", "--workers", "2",
                "--max-stack-bytes", "65536", "--max-attempts", "5",
                "--backoff", "0.1", "--label", "nightly",
                "--upload", "--wait",
            ]
        )
        assert args.daemon_command == "submit"
        assert args.input == "fleet.npz"
        assert args.kind == "serve_publish"
        assert args.priority == 4
        assert args.workers == 2
        assert args.max_stack_bytes == 65536
        assert args.max_attempts == 5
        assert args.backoff == 0.1
        assert args.label == "nightly"
        assert args.upload and args.wait

    def test_status_result_stop_parse(self):
        status = build_parser().parse_args(
            ["daemon", "status", "--url", "http://h:1", "--job", "j000001"]
        )
        assert status.daemon_command == "status"
        assert status.job == "j000001"
        result = build_parser().parse_args(
            ["daemon", "result", "--url", "http://h:1", "--job", "j0",
             "--out", "r.npz"]
        )
        assert result.daemon_command == "result"
        stop = build_parser().parse_args(
            ["daemon", "stop", "--url", "http://h:1"]
        )
        assert stop.daemon_command == "stop"
        assert stop.timeout == 120.0

    def test_daemon_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["daemon"])


class TestUnreachableDaemon:
    """Client-side subcommands fail cleanly when nothing is listening."""

    def test_status_against_dead_daemon_fails(self, capsys):
        assert main(
            ["daemon", "status", "--url", "http://127.0.0.1:9"]
        ) == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_submit_against_dead_daemon_fails(
        self, capsys, fleet_payload
    ):
        assert main(
            ["daemon", "submit", "--url", "http://127.0.0.1:9",
             "--in", str(fleet_payload)]
        ) == 1
        assert "cannot reach daemon" in capsys.readouterr().err


class TestSigtermDrain:
    def _spawn_daemon(self, spool):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.cli",
                "daemon", "start", "--spool", str(spool),
                "--port", "0", "--job-workers", "1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        line = process.stdout.readline()
        assert "daemon listening on" in line, line
        url = line.split()[3]
        return process, url

    def test_sigterm_drains_and_exits_zero(self, tmp_path, fleet_payload):
        from repro.daemon import DaemonClient, JobQueue

        spool = tmp_path / "spool"
        process, url = self._spawn_daemon(spool)
        try:
            client = DaemonClient(url, timeout=30.0)
            client.wait_until_ready(timeout=30.0)
            record = client.submit(fleet_payload, label="under-sigterm")
            done = client.wait(record["id"], timeout=120.0)
            assert done["state"] == "done"

            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60.0)
        except BaseException:
            process.kill()
            process.communicate(timeout=30.0)
            raise
        assert process.returncode == 0, output
        assert "daemon drained" in output
        # The journal survives for the next start with nothing mid-flight.
        queue = JobQueue(spool)
        assert queue.recovered_jobs == []
        assert queue.get(record["id"]).state == "done"

    def test_sigterm_mid_job_finishes_it_first(self, tmp_path, fleet_payload):
        """SIGTERM while a refresh runs: the job completes, then exit 0."""
        from repro.daemon import DaemonClient, JobQueue

        spool = tmp_path / "spool"
        process, url = self._spawn_daemon(spool)
        try:
            client = DaemonClient(url, timeout=30.0)
            client.wait_until_ready(timeout=30.0)
            record = client.submit(fleet_payload, label="race-the-signal")
            # Fire the signal immediately — usually mid-claim or mid-solve.
            deadline = time.monotonic() + 30.0
            while client.status(record["id"])["state"] == "queued":
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=120.0)
        except BaseException:
            process.kill()
            process.communicate(timeout=30.0)
            raise
        assert process.returncode == 0, output
        queue = JobQueue(spool)
        job = queue.get(record["id"])
        # Either it finished before the drain or it was still queued and
        # stays journaled; a graceful drain never abandons a running job.
        assert job.state in ("done", "queued")
        assert queue.recovered_jobs == []
