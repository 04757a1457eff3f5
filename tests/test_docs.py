"""Docs drift guards: the documentation must track the code it describes.

Extends the ``docs/EXPERIMENTS.md`` sync-test pattern
(``tests/experiments/test_config_and_runner.py``) to the whole doc set:
every public symbol the package exports must be mentioned in the API
reference, and every internal link in README / docs must resolve to a file
that exists.  These run in tier-1, so a PR that adds an export or moves a
page without updating the docs fails fast.
"""

import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_PAGES = sorted((REPO_ROOT / "docs").glob("*.md"))
LINKED_PAGES = [REPO_ROOT / "README.md", *DOC_PAGES]

# Markdown inline links: [text](target), skipping images and code spans.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def _internal_links(page: Path):
    """Yield (target, resolved_path) for every relative link on the page."""
    for target in _LINK.findall(page.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:  # pure same-page anchor
            continue
        yield target, (page.parent / path_part).resolve()


class TestApiReferenceSync:
    def test_every_public_symbol_documented(self):
        """docs/API.md must mention every name exported from ``repro``."""
        text = (REPO_ROOT / "docs" / "API.md").read_text()
        missing = [
            name
            for name in repro.__all__
            if not name.startswith("__") and name not in text
        ]
        assert not missing, (
            f"docs/API.md is missing public symbols: {missing}; "
            "document them (or stop exporting them from repro/__init__.py)"
        )

    def test_all_documented_pages_exist(self):
        """The doc set itself must contain the pages README promises."""
        names = {page.name for page in DOC_PAGES}
        assert {
            "API.md",
            "ARCHITECTURE.md",
            "WIRE_FORMAT.md",
            "EXPERIMENTS.md",
        } <= names


class TestInternalLinks:
    @pytest.mark.parametrize(
        "page", LINKED_PAGES, ids=[p.name for p in LINKED_PAGES]
    )
    def test_links_resolve(self, page):
        broken = [
            target
            for target, resolved in _internal_links(page)
            if not resolved.exists()
        ]
        assert not broken, f"{page.name} has broken internal links: {broken}"

    def test_pages_actually_cross_link(self):
        """The link checker must be checking something real."""
        total = sum(len(list(_internal_links(page))) for page in LINKED_PAGES)
        assert total >= 10, f"only {total} internal links found — regex drift?"


class TestCliDocsSync:
    def test_workers_flag_documented(self):
        """The distributed-execution flag must be in the CLI's own docs."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        assert "--workers" in api
        from repro.experiments.cli import build_parser

        help_text = build_parser().format_help()
        assert "fleet" in help_text

    def test_query_subcommand_documented(self):
        """The read-path CLI and its serving flags must be in the API docs."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for flag in ("query export", "query run", "query bench"):
            assert flag in api, f"docs/API.md does not document `{flag}`"
        for flag in ("--matcher", "--qps-target", "--batch-sizes", "--repeats"):
            assert flag in api, f"docs/API.md does not document `{flag}`"
        assert "--backend" not in api, "docs/API.md documents the removed --backend"
        from repro.experiments.cli import build_parser

        assert "query" in build_parser().format_help()


class TestDaemonDocsSync:
    def test_daemon_cli_documented(self):
        """Every daemon subcommand and its serving flags must be in API.md."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for sub in (
            "daemon start",
            "daemon submit",
            "daemon status",
            "daemon result",
            "daemon stop",
        ):
            assert sub in api, f"docs/API.md does not document `{sub}`"
        for flag in ("--spool", "--job-workers", "--wait"):
            assert flag in api, f"docs/API.md does not document `{flag}`"
        from repro.experiments.cli import build_parser

        assert "daemon" in build_parser().format_help()

    def test_http_routes_documented(self):
        """The HTTP API table must cover every route the server exposes."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for route in (
            "/api/health",
            "/api/jobs",
            "/api/localize",
            "/api/drain",
        ):
            assert route in api, f"docs/API.md does not document `{route}`"

    def test_lifecycle_in_architecture(self):
        """ARCHITECTURE.md must describe the daemon lifecycle with its
        actual class names and both kill-safety invariants."""
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for name in (
            "Coordinator",
            "JobQueue",
            "DaemonServer",
            "RemoteExecutor",
        ):
            assert name in text, f"docs/ARCHITECTURE.md is missing {name}"
        for phrase in ("job queue", "publish", "drain"):
            assert phrase in text.lower(), (
                f"docs/ARCHITECTURE.md lifecycle section lost {phrase!r}"
            )

    def test_journal_format_documented(self):
        """WIRE_FORMAT.md must describe the journal with its format tag and
        every job state the queue can journal."""
        text = (REPO_ROOT / "docs" / "WIRE_FORMAT.md").read_text()
        assert "repro-daemon-journal" in text
        from repro.io.jobs import JOB_STATES

        for state in JOB_STATES:
            assert f"`{state}`" in text, (
                f"docs/WIRE_FORMAT.md does not document job state {state!r}"
            )

    def test_readme_runs_as_a_service(self):
        """README must keep the run-it-as-a-service quickstart."""
        text = (REPO_ROOT / "README.md").read_text()
        assert "daemon start" in text
        assert "daemon submit" in text
        assert "DaemonClient" in text


class TestIncrementalDocsSync:
    def test_warm_start_api_documented(self):
        """The warm-start seam must appear in API.md with its real names."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for name in (
            "refresh_fleet",
            "warm_from",
            "WarmFactors",
            "warm_started",
            "sweeps_saved",
            "last_sweeps_saved",
            'init="svd"',
        ):
            assert name in api, f"docs/API.md does not document {name!r}"

    def test_delta_format_documented(self):
        """WIRE_FORMAT.md must spec the delta payload: tag, modes, gating."""
        text = (REPO_ROOT / "docs" / "WIRE_FORMAT.md").read_text()
        assert "repro-fleet-delta" in text
        from repro.io.delta import _SITE_MODES

        for mode in _SITE_MODES:
            assert f"`{mode}`" in text, (
                f"docs/WIRE_FORMAT.md does not document delta mode {mode!r}"
            )
        for key in ("base_fingerprint", "__rows", "__data"):
            assert key in text, f"docs/WIRE_FORMAT.md is missing {key!r}"
        # The new optional request/report keys must be specified too.
        for key in ("warm_left", "warm_right", "warm_started", "sweeps_saved"):
            assert key in text, f"docs/WIRE_FORMAT.md is missing {key!r}"

    def test_incremental_cli_documented(self):
        """`fleet run --warm-from` and `fleet diff` must be in API.md and
        actually exist on the parser."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for flag in ("--warm-from", "fleet diff", "--base", "--delta"):
            assert flag in api, f"docs/API.md does not document `{flag}`"
        from repro.experiments.cli import build_parser

        help_text = build_parser().format_help()
        assert "fleet" in help_text

    def test_refresh_loop_in_architecture(self):
        """ARCHITECTURE.md must describe the steady-state refresh loop."""
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for name in ("warm_start", "warm_from", "save_delta", "apply_delta"):
            assert name in text, f"docs/ARCHITECTURE.md is missing {name}"

    def test_daemon_warm_cache_documented(self):
        """API.md must describe the coordinator's per-fleet warm cache."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        assert "last completed report per fleet" in api
        assert "warm-starts every subsequent `refresh_fleet`" in api


class TestRemoteDocsSync:
    def test_remote_api_documented(self):
        """The remote executor surface must appear in API.md by name."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for name in (
            "RemoteExecutor",
            "WorkerServer",
            "FaultPlan",
            "RemoteShardError",
            "InvalidWorkerCountError",
            "straggler_after",
            "max_attempts",
            "shard_fingerprint",
        ):
            assert name in api, f"docs/API.md does not document {name!r}"

    def test_remote_cli_documented(self):
        """`fleet workers serve` and the remote run flags must be in API.md
        and actually exist on the parser."""
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for flag in (
            "fleet workers serve",
            "--endpoints",
            "--fault",
            "--straggler-after",
        ):
            assert flag in api, f"docs/API.md does not document `{flag}`"
        from repro.experiments.cli import build_parser

        help_text = build_parser().format_help()
        assert "fleet" in help_text

    def test_fault_kinds_documented(self):
        """Every injectable fault class must be named in API.md."""
        from repro.service.remote import FAULT_KINDS

        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for kind in FAULT_KINDS:
            assert f"`{kind}`" in api, (
                f"docs/API.md does not document the {kind!r} fault"
            )

    def test_transport_layer_in_architecture(self):
        """ARCHITECTURE.md must describe the remote transport with its
        actual class names, the timeline and the failure state machine."""
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for name in (
            "RemoteExecutor",
            "WorkerServer",
            "FaultPlan",
            "RemoteShardError",
            "shard_fingerprint",
        ):
            assert name in text, f"docs/ARCHITECTURE.md is missing {name}"
        for phrase in ("scatter", "gather", "straggler", "failover", "retry"):
            assert phrase in text.lower(), (
                f"docs/ARCHITECTURE.md transport section lost {phrase!r}"
            )

    def test_shard_payloads_documented(self):
        """WIRE_FORMAT.md must spec both shard payload kinds with their
        real format tags and manifest keys."""
        from repro.io.wire import SHARD_RESULT_FORMAT, SHARD_TASK_FORMAT

        text = (REPO_ROOT / "docs" / "WIRE_FORMAT.md").read_text()
        assert SHARD_TASK_FORMAT in text
        assert SHARD_RESULT_FORMAT in text
        for key in (
            "fingerprint",
            "requests_payload",
            "WirePayloadError",
            "res####__estimate",
        ):
            assert key in text, f"docs/WIRE_FORMAT.md is missing {key!r}"


class TestQueryDocsSync:
    def test_matchers_and_backends_documented(self):
        """Every matcher the engine accepts must appear in API.md, and none
        of the removed backend knobs or test-only helpers may."""
        from repro.query import MATCHERS

        api = (REPO_ROOT / "docs" / "API.md").read_text()
        for name in MATCHERS:
            assert f'"{name}"' in api, (
                f"docs/API.md does not document the {name!r} matcher"
            )
        for gone in (
            "solver_backend",
            "matcher_backend",
            "BACKENDS",
            "run_sharded_sweeps",
            "solve_states",
        ):
            assert gone not in api, f"docs/API.md still mentions {gone!r}"

    def test_read_path_layers_in_architecture(self):
        """ARCHITECTURE.md must describe the report → index → engine → cache
        read path with its actual class names."""
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for name in (
            "QueryIndex",
            "QueryEngine",
            "GenerationStore",
            "ResultCache",
            "indexes_from_report",
        ):
            assert name in text, f"docs/ARCHITECTURE.md is missing {name}"

    def test_readme_serves_queries(self):
        """README must keep the serve-queries quickstart."""
        text = (REPO_ROOT / "README.md").read_text()
        assert "query run" in text
        assert "QueryEngine" in text
