"""Unit tests for the experiment CLI."""

import zipfile

import numpy as np
import pytest

from repro.experiments.cli import build_parser, main, render_result

from tests.workers import running_workers


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "labor_cost_savings"])
        assert args.command == "run"
        assert args.preset == "quick"
        assert args.names == ["labor_cost_savings"]

    def test_run_command_full_preset(self):
        args = build_parser().parse_args(
            ["run", "fig20_labor_cost", "--preset", "full", "--seed", "3"]
        )
        assert args.preset == "full"
        assert args.seed == 3

    def test_fleet_command_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.command == "fleet"
        assert args.environments == ["office", "hall", "library"]
        assert args.days is None
        assert args.preset == "quick"

    def test_fleet_command_parses_lists(self):
        args = build_parser().parse_args(
            ["fleet", "--environments", "office,library", "--days", "3,45"]
        )
        assert args.environments == ["office", "library"]
        assert args.days == [3.0, 45.0]

    def test_fleet_command_rejects_bad_days(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--days", "-3"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--days", "soon"])


class TestRenderResult:
    def test_scalars_rendered(self):
        text = render_result("exp", {"value": 1.5, "flag": True})
        assert "exp" in text
        assert "value" in text

    def test_scalar_mapping_rendered(self):
        text = render_result("exp", {"medians": {"a": 1.0, "b": 2.0}})
        assert "medians" in text
        assert "a" in text

    def test_series_mapping_rendered(self):
        text = render_result("exp", {"series": {"row": {1.0: 2.0}}})
        assert "row" in text

    def test_sample_mapping_rendered(self):
        text = render_result("exp", {"errors": {"x": [1.0, 2.0, 3.0]}})
        assert "median" in text

    def test_large_arrays_omitted(self):
        text = render_result("exp", {"big": np.zeros(1000)})
        assert "big" not in text


class TestMain:
    def test_list_exit_code(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "labor_cost_savings" in output
        assert "fig21_localization_cdf" in output

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "fig99_not_real"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "labor_cost_savings", "fig20_labor_cost"]) == 0
        output = capsys.readouterr().out
        assert "labor_cost_savings" in output
        assert "fig20_labor_cost" in output
        assert "saving_vs_50_samples" in output

    def test_list_includes_fleet_experiment(self, capsys):
        assert main(["list"]) == 0
        assert "fleet_refresh" in capsys.readouterr().out


class TestFleetWireCommands:
    def test_export_run_round_trip_matches_in_process(self, tmp_path, capsys):
        """CLI export → run must reproduce the in-process refresh bit-for-bit."""
        from repro.io import load_report, load_requests
        from repro.service.service import UpdateService

        requests_path = str(tmp_path / "requests.npz")
        report_path = str(tmp_path / "report.npz")
        assert (
            main(
                [
                    "fleet",
                    "export",
                    "--sites",
                    "6",
                    "--link-count",
                    "3,4",
                    "--locations-per-link",
                    "4",
                    "--out",
                    requests_path,
                ]
            )
            == 0
        )
        assert "wrote 6 requests" in capsys.readouterr().out
        assert (
            main(
                [
                    "fleet",
                    "run",
                    "--in",
                    requests_path,
                    "--out",
                    report_path,
                    "--max-stack-bytes",
                    "4096",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "loaded 6 requests" in output
        assert "plan:" in output and "rank groups" in output
        assert "fleet refresh @ 45 days" in output

        in_process = UpdateService().update_fleet(load_requests(requests_path))
        saved = load_report(report_path)
        assert saved.sites == tuple(r.site for r in in_process)
        for local, wire in zip(in_process, saved.reports):
            np.testing.assert_array_equal(local.estimate, wire.estimate)
        assert saved.plan is not None
        assert saved.plan.peak_stack_bytes <= 4096

    def test_run_on_hundred_site_payload(self, tmp_path, capsys):
        """One process refreshes a ≥100-site from-disk payload (sharded)."""
        requests_path = str(tmp_path / "requests100.npz")
        assert (
            main(
                [
                    "fleet",
                    "export",
                    "--sites",
                    "100",
                    "--link-count",
                    "3,4",
                    "--locations-per-link",
                    "4",
                    "--out",
                    requests_path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                ["fleet", "run", "--in", requests_path, "--max-stack-bytes", "8192"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "loaded 100 requests" in output
        assert "sites            : 100.000" in output

    def test_run_with_workers_matches_serial(self, tmp_path, capsys):
        """fleet run --endpoints over a shard worker, end to end: same
        payload, same report."""
        from repro.io import load_report

        requests_path = str(tmp_path / "requests.npz")
        serial_path = str(tmp_path / "serial.npz")
        scattered_path = str(tmp_path / "scattered.npz")
        assert (
            main(
                [
                    "fleet",
                    "export",
                    "--sites",
                    "6",
                    "--link-count",
                    "3,4",
                    "--locations-per-link",
                    "4",
                    "--out",
                    requests_path,
                ]
            )
            == 0
        )
        base = ["fleet", "run", "--in", requests_path, "--max-stack-bytes", "4096"]
        assert main(base + ["--out", serial_path]) == 0
        assert "executor: serial" in capsys.readouterr().out
        with running_workers(1) as (worker,):
            assert (
                main(base + ["--out", scattered_path, "--endpoints", worker.url])
                == 0
            )
        output = capsys.readouterr().out
        assert "executor: remote" in output

        serial = load_report(serial_path)
        scattered = load_report(scattered_path)
        assert serial.executor == "serial" and serial.workers == 0
        assert scattered.executor == "remote" and scattered.workers == 1
        assert scattered.sites == serial.sites
        for ours, theirs in zip(scattered.reports, serial.reports):
            np.testing.assert_array_equal(ours.estimate, theirs.estimate)
        assert scattered.plan == serial.plan

    def test_run_has_no_workers_flag(self, tmp_path, capsys):
        """The in-host process pool is gone: --workers is an unknown flag."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "run", "--in", str(tmp_path / "x.npz"), "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_run_rejects_missing_payload(self, tmp_path, capsys):
        assert main(["fleet", "run", "--in", str(tmp_path / "nope.npz")]) == 2
        assert "cannot read wire payload" in capsys.readouterr().err

    def test_export_rejects_bad_sites(self, tmp_path, capsys):
        out = str(tmp_path / "x.npz")
        assert main(["fleet", "export", "--sites", "0", "--out", out]) == 2
        assert "--sites" in capsys.readouterr().err

    def test_export_parser_rejects_bad_link_counts(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "export", "--out", "x.npz", "--link-count", "0"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "export", "--out", "x.npz", "--link-count", "many"]
            )


class TestQueryParser:
    def test_export_defaults(self):
        args = build_parser().parse_args(
            ["query", "export", "--report", "r.npz", "--out", "q.npz"]
        )
        assert args.command == "query"
        assert args.query_command == "export"
        assert args.per_site == 16
        assert args.noise_db == pytest.approx(0.5)

    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["query", "run", "--report", "r.npz", "--queries", "q.npz"]
        )
        assert args.query_command == "run"
        assert args.matcher == "knn"
        assert args.cache == 0
        assert args.out is None

    def test_run_has_no_backend_flag(self, capsys):
        """Matching has a single path, so ``--backend`` is not an option."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "query",
                    "run",
                    "--report",
                    "r.npz",
                    "--queries",
                    "q.npz",
                    "--backend",
                    "vectorized",
                ]
            )
        capsys.readouterr()

    def test_run_rejects_unknown_matcher(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "query",
                    "run",
                    "--report",
                    "r.npz",
                    "--queries",
                    "q.npz",
                    "--matcher",
                    "nearest",
                ]
            )

    def test_bench_defaults(self):
        args = build_parser().parse_args(["query", "bench"])
        assert args.query_command == "bench"
        assert args.batch_sizes == [1, 64, 1024]
        assert args.repeats == 3
        assert args.qps_target is None

    def test_bench_parses_batch_sizes(self):
        args = build_parser().parse_args(
            ["query", "bench", "--batch-sizes", "2,8", "--qps-target", "1e4"]
        )
        assert args.batch_sizes == [2, 8]
        assert args.qps_target == pytest.approx(1e4)

    def test_query_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])


class TestQueryCommands:
    @pytest.fixture()
    def report_path(self, tmp_path):
        requests_path = str(tmp_path / "requests.npz")
        path = str(tmp_path / "report.npz")
        assert (
            main(
                [
                    "fleet",
                    "export",
                    "--sites",
                    "2",
                    "--link-count",
                    "4",
                    "--locations-per-link",
                    "4",
                    "--out",
                    requests_path,
                ]
            )
            == 0
        )
        assert main(["fleet", "run", "--in", requests_path, "--out", path]) == 0
        return path

    def test_export_run_round_trip_matches_in_process(
        self, report_path, tmp_path, capsys
    ):
        """CLI query export → run must match an in-process QueryEngine."""
        from repro.io import load_answers, load_queries, load_report
        from repro.query import QueryConfig, QueryEngine

        queries_path = str(tmp_path / "queries.npz")
        answers_path = str(tmp_path / "answers.npz")
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "export",
                    "--report",
                    report_path,
                    "--out",
                    queries_path,
                    "--per-site",
                    "8",
                ]
            )
            == 0
        )
        assert "wrote 16 queries over 2 sites" in capsys.readouterr().out
        assert (
            main(
                [
                    "query",
                    "run",
                    "--report",
                    report_path,
                    "--queries",
                    queries_path,
                    "--out",
                    answers_path,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "serving generation 0" in output
        assert "accuracy vs ground truth" in output

        engine = QueryEngine(QueryConfig())
        batches = load_queries(queries_path)
        engine.publish_report(
            load_report(report_path),
            locations={b.site: b.locations for b in batches},
        )
        for batch, answer in zip(batches, load_answers(answers_path)):
            expected = engine.answer(batch)
            assert answer.site == expected.site == batch.site
            np.testing.assert_array_equal(answer.indices, expected.indices)
            np.testing.assert_allclose(answer.points, expected.points)

    def test_run_with_cache_reports_hits(self, report_path, tmp_path, capsys):
        queries_path = str(tmp_path / "queries.npz")
        assert (
            main(
                [
                    "query",
                    "export",
                    "--report",
                    report_path,
                    "--out",
                    queries_path,
                    "--per-site",
                    "4",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "run",
                    "--report",
                    report_path,
                    "--queries",
                    queries_path,
                    "--cache",
                    "64",
                ]
            )
            == 0
        )
        assert "cache:" in capsys.readouterr().out

    def test_bench_smoke(self, report_path, capsys):
        assert (
            main(
                [
                    "query",
                    "bench",
                    "--report",
                    report_path,
                    "--batch-sizes",
                    "1,16",
                    "--repeats",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "batch     1" in output
        assert "batch    16" in output
        assert "q/s" in output

    def test_bench_unreachable_target_fails(self, report_path, capsys):
        assert (
            main(
                [
                    "query",
                    "bench",
                    "--report",
                    report_path,
                    "--batch-sizes",
                    "4",
                    "--repeats",
                    "1",
                    "--qps-target",
                    "1e15",
                ]
            )
            == 1
        )
        assert "below the target" in capsys.readouterr().err

    def test_export_rejects_missing_report(self, tmp_path, capsys):
        assert (
            main(
                [
                    "query",
                    "export",
                    "--report",
                    str(tmp_path / "nope.npz"),
                    "--out",
                    str(tmp_path / "q.npz"),
                ]
            )
            == 2
        )
        assert "cannot read wire payload" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--per-site", "0"), ("--seed", "-5")])
    def test_export_rejects_bad_per_site(self, report_path, tmp_path, capsys, flag, value):
        assert (
            main(
                [
                    "query",
                    "export",
                    "--report",
                    report_path,
                    "--out",
                    str(tmp_path / "q.npz"),
                    flag,
                    value,
                ]
            )
            == 2
        )
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--noise-db"])
    def test_bench_rejects_negative_flag(self, report_path, capsys, flag):
        args = ["query", "bench", "--report", report_path, flag, "-1"]
        assert main(args) == 2
        assert flag in capsys.readouterr().err


def _flip_member_bytes(path, suffix=""):
    """Flip bytes inside the data of a payload's first array member whose
    name ends in ``suffix`` (any array member by default).

    The manifest stays intact, so the failure surfaces only when the member
    is read: a zlib error or a zip CRC mismatch for a deflated member, the
    CRC mismatch alone for a stored one.
    """
    import struct

    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        member = next(
            i
            for i in archive.infolist()
            if i.filename != "manifest.npy" and i.filename.endswith(f"{suffix}.npy")
        )
    name_length, extra_length = struct.unpack(
        "<HH", data[member.header_offset + 26 : member.header_offset + 30]
    )
    start = member.header_offset + 30 + name_length + extra_length
    middle = start + member.compress_size // 2
    for offset in range(middle, middle + 4):
        data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return member.compress_type


class TestCorruptPayloads:
    """A payload corrupted inside an array member, deflated or stored, ends
    in exit 2 and a one-line error naming the file, not a traceback."""

    @pytest.fixture(scope="class")
    def payloads(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("payloads")
        requests, report, queries = (
            root / "requests.npz",
            root / "report.npz",
            root / "queries.npz",
        )
        export = ["fleet", "export", "--sites", "2", "--link-count", "3"]
        export += ["--locations-per-link", "3", "--out", str(requests)]
        assert main(export) == 0
        assert main(["fleet", "run", "--in", str(requests), "--out", str(report)]) == 0
        assert (
            main(["query", "export", "--report", str(report), "--out", str(queries)])
            == 0
        )
        return {"requests": requests, "report": report, "queries": queries}

    @pytest.mark.parametrize(
        "command, corrupt, suffix, mode",
        [
            (
                ["fleet", "run", "--in", "{requests}"],
                "requests",
                "",
                zipfile.ZIP_DEFLATED,
            ),
            (
                ["query", "run", "--report", "{report}", "--queries", "{queries}"],
                "queries",
                "",
                zipfile.ZIP_DEFLATED,
            ),
            # A report stores its float members: only the zip CRC guards them.
            (
                ["fleet", "diff", "--base", "{report}", "--target", "{good_report}"],
                "report",
                "__estimate",
                zipfile.ZIP_STORED,
            ),
            (
                ["fleet", "diff", "--base", "{report}", "--target", "{good_report}"],
                "report",
                "__matrix_mask",
                zipfile.ZIP_DEFLATED,
            ),
        ],
        ids=[
            "fleet-run-in",
            "query-run-queries",
            "fleet-diff-base",
            "fleet-diff-base-deflated-member",
        ],
    )
    def test_corrupt_payload_exits_2_naming_the_file(
        self, payloads, tmp_path, capsys, command, corrupt, suffix, mode
    ):
        import shutil

        paths = {}
        for kind, source in payloads.items():
            paths[kind] = tmp_path / source.name
            shutil.copy(source, paths[kind])
        paths["good_report"] = payloads["report"]
        assert _flip_member_bytes(paths[corrupt], suffix) == mode
        capsys.readouterr()
        argv = [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in command]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert str(paths[corrupt]) in err
        assert "\n" not in err and "Traceback" not in err


class TestParallelRun:
    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["run", "labor_cost_savings", "--jobs", "2"])
        assert args.jobs == 2

    def test_invalid_jobs_rejected(self, capsys):
        assert main(["run", "labor_cost_savings", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_two_job_smoke(self, capsys):
        """Two cheap experiments across two worker processes."""
        assert (
            main(["run", "labor_cost_savings", "fig20_labor_cost", "--jobs", "2"]) == 0
        )
        output = capsys.readouterr().out
        assert "labor_cost_savings" in output
        assert "fig20_labor_cost" in output
        assert "saving_vs_50_samples" in output


class TestFleetCommand:
    def test_tiny_fleet_refresh(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--environments",
                    "office,library",
                    "--days",
                    "45",
                    "--link-count",
                    "3",
                    "--locations-per-link",
                    "4",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "fleet refresh @ 45 days" in output
        assert "office" in output and "library" in output
        assert "mean_error_db" in output
        assert "stacked_sweeps" in output
        assert "stop_tolerance" in output and "stop_budget" in output

    def test_unknown_environment_rejected(self, capsys):
        assert main(["fleet", "--environments", "warehouse"]) == 2
        assert "unknown environment" in capsys.readouterr().err

    def test_duplicate_environments_rejected(self, capsys):
        assert main(["fleet", "--environments", "office,office"]) == 2
        assert "duplicate environments" in capsys.readouterr().err
