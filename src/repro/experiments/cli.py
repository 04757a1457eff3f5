"""Command-line interface for the experiment harness.

Lets a downstream user list and run the per-figure experiments without
writing any code::

    python -m repro.experiments.cli list
    python -m repro.experiments.cli run labor_cost_savings
    python -m repro.experiments.cli run fig21_localization_cdf --preset full
    python -m repro.experiments.cli run fig20_labor_cost fig05_low_rank --jobs 2
    python -m repro.experiments.cli fleet --environments office,hall,library
    python -m repro.experiments.cli fleet export --sites 100 --out requests.npz
    python -m repro.experiments.cli fleet run --in requests.npz --out report.npz

The ``fleet`` subcommand drives the update service across several
environments at once (rank-grouped, cache-budgeted shards of stacked
batched solves) and reports per-site and aggregate refresh quality.  Its
``export`` sub-subcommand synthesizes a fleet of N sites from the
environment registry into an NPZ wire payload; ``run`` refreshes such a
payload from disk — no simulator required on the serving side — and
optionally writes the full report payload back out.  ``fleet run
--endpoints url1,url2`` scatters the planned shards over remote ``fleet
workers serve`` machines (bit-identical to serial execution); ``run --jobs
N`` fans independent experiments out across worker processes.

The output uses the same text formatters as the benchmark harness, so the
rows can be compared directly against the paper's figures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Iterable, Optional

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import (
    format_cdf_summary,
    format_fleet_report,
    format_key_values,
    format_series_table,
)
from repro.experiments.runner import ExperimentRunner
from repro.simulation.campaign import SITE_SEED_STRIDE

__all__ = ["main", "build_parser", "render_result", "run_fleet"]


def _parse_environments(value: str) -> list:
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated environment list")
    return names


def _parse_days(value: str) -> list:
    try:
        days = [float(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of day stamps")
    if not days or any(d <= 0 for d in days):
        raise argparse.ArgumentTypeError("day stamps must be positive")
    return days


def _parse_int_list(value: str) -> list:
    """Comma-separated positive integers (cycled per site by ``fleet export``)."""
    try:
        numbers = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    if not numbers or any(n <= 0 for n in numbers):
        raise argparse.ArgumentTypeError("values must be positive integers")
    return numbers


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the evaluation figures of the iUpdater paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("names", nargs="+", help="experiment names (see 'list')")
    run_parser.add_argument(
        "--preset",
        choices=("quick", "full"),
        default="quick",
        help="experiment preset: 'quick' (CI-sized) or 'full' (paper protocol)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override the substrate random seed"
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fan independent experiments out across N worker processes",
    )

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="refresh a fleet of environments through the batched update service",
    )
    fleet_sub = fleet_parser.add_subparsers(dest="fleet_command")

    export_parser = fleet_sub.add_parser(
        "export",
        help="synthesize a fleet of N sites into an NPZ request payload",
    )
    export_parser.add_argument(
        "--sites", type=int, default=3, help="number of sites to synthesize"
    )
    export_parser.add_argument(
        "--out", required=True, help="destination request payload (.npz)"
    )
    # These four flags also exist on the parent `fleet` parser; SUPPRESS
    # keeps argparse's sub-namespace copy-over from silently clobbering a
    # value the user passed before the `export` word (the handler resolves
    # the final defaults).
    export_parser.add_argument(
        "--environments",
        type=_parse_environments,
        default=argparse.SUPPRESS,
        help="registered environment names, cycled across the sites "
        "(default: office,hall,library)",
    )
    export_parser.add_argument(
        "--day",
        type=float,
        default=45.0,
        help="refresh stamp (days) the fresh measurements are collected at",
    )
    export_parser.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help=f"base substrate seed (site k adds k*{SITE_SEED_STRIDE}; default 7)",
    )
    export_parser.add_argument(
        "--link-count",
        type=_parse_int_list,
        default=argparse.SUPPRESS,
        help="per-site link-count override; a comma list is cycled per site",
    )
    export_parser.add_argument(
        "--locations-per-link",
        type=_parse_int_list,
        default=argparse.SUPPRESS,
        help="per-site stripe-width override; a comma list is cycled per site",
    )

    fleet_run_parser = fleet_sub.add_parser(
        "run",
        help="refresh a from-disk request payload through the sharded service",
    )
    fleet_run_parser.add_argument(
        "--in",
        dest="input",
        required=True,
        help="request payload written by 'fleet export' (.npz)",
    )
    fleet_run_parser.add_argument(
        "--out", default=None, help="optional destination report payload (.npz)"
    )
    fleet_run_parser.add_argument(
        "--max-stack-bytes",
        type=int,
        default=None,
        help=(
            "per-shard system-stack budget in bytes (default: the L3-ish "
            "32 MiB ShardConfig default; 0 disables sharding)"
        ),
    )
    fleet_run_parser.add_argument(
        "--warm-from",
        dest="warm_from",
        default=None,
        help=(
            "previous report payload (.npz) to warm-start from: sites it "
            "covers resume from its factors instead of a cold init"
        ),
    )
    fleet_run_parser.add_argument(
        "--endpoints",
        default=None,
        help=(
            "comma-separated worker URLs ('fleet workers serve' machines); "
            "scatters shards remotely (RemoteExecutor) instead of solving "
            "them in-process — results stay bit-identical to serial"
        ),
    )
    fleet_run_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-shard dispatch timeout in seconds (remote only; default 30)",
    )
    fleet_run_parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="dispatch attempts per shard before failing (remote only; default 3)",
    )
    fleet_run_parser.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        help="base retry backoff in seconds, doubling per attempt "
        "(remote only; default 0.1)",
    )
    fleet_run_parser.add_argument(
        "--straggler-after",
        dest="straggler_after",
        type=float,
        default=None,
        help="re-dispatch a silent shard to a second worker after this many "
        "seconds (remote only; default: disabled)",
    )

    workers_parser = fleet_sub.add_parser(
        "workers",
        help="manage remote shard workers for 'fleet run --endpoints'",
    )
    workers_sub = workers_parser.add_subparsers(
        dest="workers_command", required=True
    )
    workers_serve_parser = workers_sub.add_parser(
        "serve",
        help="serve shard-solve requests over HTTP (a RemoteExecutor worker)",
    )
    workers_serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    workers_serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0: pick a free port, printed at startup)",
    )
    workers_serve_parser.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "arm an injected fault: kind[:shard=N][,attempt=N][,seconds=X] "
            "with kind one of drop/delay/duplicate/corrupt/kill; repeatable "
            "(chaos testing)"
        ),
    )
    workers_serve_parser.add_argument(
        "--verbose",
        action="store_true",
        help="log each HTTP request to stderr",
    )

    fleet_diff_parser = fleet_sub.add_parser(
        "diff",
        help=(
            "compute or apply a repro-fleet-delta payload between two "
            "report payloads"
        ),
    )
    fleet_diff_parser.add_argument(
        "--base",
        required=True,
        help="base report payload (.npz) the delta is relative to",
    )
    fleet_diff_parser.add_argument(
        "--target",
        default=None,
        help="target report payload (.npz); computes target - base",
    )
    fleet_diff_parser.add_argument(
        "--delta",
        default=None,
        help="delta payload (.npz) to apply on top of --base instead",
    )
    fleet_diff_parser.add_argument(
        "--out",
        default=None,
        help=(
            "destination payload: the delta (with --target; optional, "
            "prints a summary without it) or the reconstructed report "
            "(with --delta; required)"
        ),
    )

    query_parser = subparsers.add_parser(
        "query",
        help="serve localization queries against a refreshed fleet report",
    )
    query_sub = query_parser.add_subparsers(dest="query_command", required=True)

    query_export_parser = query_sub.add_parser(
        "export",
        help="sample a query workload from a report payload into an NPZ",
    )
    query_export_parser.add_argument(
        "--report", required=True, help="report payload written by 'fleet run' (.npz)"
    )
    query_export_parser.add_argument(
        "--out", required=True, help="destination queries payload (.npz)"
    )
    query_export_parser.add_argument(
        "--per-site", type=int, default=16, help="queries sampled per site"
    )
    query_export_parser.add_argument(
        "--noise-db",
        type=float,
        default=0.5,
        help="stddev of the Gaussian noise added to each sampled fingerprint",
    )
    query_export_parser.add_argument(
        "--seed", type=int, default=7, help="workload sampling seed"
    )

    query_run_parser = query_sub.add_parser(
        "run",
        help="answer a queries payload against a report through the QueryEngine",
    )
    query_run_parser.add_argument(
        "--report", required=True, help="report payload the engine serves (.npz)"
    )
    query_run_parser.add_argument(
        "--queries", required=True, help="queries payload from 'query export' (.npz)"
    )
    query_run_parser.add_argument(
        "--out", default=None, help="optional destination answers payload (.npz)"
    )
    query_run_parser.add_argument(
        "--matcher",
        choices=("knn", "omp", "svr", "rass"),
        default="knn",
        help="localization matcher the engine binds per site",
    )
    query_run_parser.add_argument(
        "--cache",
        type=int,
        default=0,
        help="LRU result-cache capacity in entries (0 disables caching)",
    )

    query_bench_parser = query_sub.add_parser(
        "bench",
        help="measure the engine's queries/sec at several batch sizes",
    )
    query_bench_parser.add_argument(
        "--report",
        default=None,
        help="report payload to serve (default: refresh a small fleet in-process)",
    )
    query_bench_parser.add_argument(
        "--matcher",
        choices=("knn", "omp", "svr", "rass"),
        default="knn",
        help="matcher to benchmark",
    )
    query_bench_parser.add_argument(
        "--batch-sizes",
        type=_parse_int_list,
        default=[1, 64, 1024],
        help="comma-separated query batch sizes (default 1,64,1024)",
    )
    query_bench_parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best is kept)"
    )
    query_bench_parser.add_argument(
        "--noise-db", type=float, default=0.5, help="query noise stddev"
    )
    query_bench_parser.add_argument(
        "--seed", type=int, default=7, help="workload sampling seed"
    )
    query_bench_parser.add_argument(
        "--qps-target",
        type=float,
        default=None,
        help=(
            "fail (exit 1) unless the engine reaches this many "
            "queries/sec at the largest batch size"
        ),
    )

    daemon_parser = subparsers.add_parser(
        "daemon",
        help="run (or talk to) the always-on fleet coordinator",
    )
    daemon_sub = daemon_parser.add_subparsers(dest="daemon_command", required=True)

    daemon_start_parser = daemon_sub.add_parser(
        "start",
        help="start the coordinator: job queue + HTTP API + query serving",
    )
    daemon_start_parser.add_argument(
        "--spool",
        required=True,
        help="spool directory (journal + payloads + results); created if missing",
    )
    daemon_start_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    daemon_start_parser.add_argument(
        "--port",
        type=int,
        default=8753,
        help="listen port (default 8753; 0 picks a free port, printed at startup)",
    )
    daemon_start_parser.add_argument(
        "--job-workers",
        type=int,
        default=2,
        help="jobs executed concurrently (default 2)",
    )
    daemon_start_parser.add_argument(
        "--endpoints",
        default=None,
        help=(
            "comma-separated remote worker URLs ('fleet workers serve'); "
            "refresh jobs with a worker budget scatter shards over these "
            "machines; without it every job solves in-process"
        ),
    )
    daemon_start_parser.add_argument(
        "--matcher",
        choices=("knn", "omp", "svr", "rass"),
        default="knn",
        help="matcher the embedded query engine binds at each publish",
    )
    daemon_start_parser.add_argument(
        "--cache",
        type=int,
        default=0,
        help="LRU result-cache capacity of the query engine (0 disables)",
    )
    daemon_start_parser.add_argument(
        "--verbose",
        action="store_true",
        help="log each HTTP request to stderr",
    )

    daemon_submit_parser = daemon_sub.add_parser(
        "submit", help="submit a job to a running daemon over HTTP"
    )
    daemon_submit_parser.add_argument(
        "--url", required=True, help="daemon base URL, e.g. http://127.0.0.1:8753"
    )
    daemon_submit_parser.add_argument(
        "--in",
        dest="input",
        required=True,
        help="job payload: a 'fleet export' request payload (refresh_fleet) "
        "or a report payload (serve_publish)",
    )
    daemon_submit_parser.add_argument(
        "--kind",
        choices=("refresh_fleet", "serve_publish"),
        default="refresh_fleet",
        help="job kind (default refresh_fleet)",
    )
    daemon_submit_parser.add_argument(
        "--priority", type=int, default=0, help="higher runs first (default 0)"
    )
    daemon_submit_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="per-job cap on concurrent remote shard dispatches when the "
        "daemon has --endpoints (0 = solve serially); a daemon without "
        "endpoints solves every job in-process and records executor "
        "'serial' with 0 workers",
    )
    daemon_submit_parser.add_argument(
        "--max-stack-bytes",
        type=int,
        default=None,
        help="per-shard stack budget (default: service default; 0 unsharded)",
    )
    daemon_submit_parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="retry bound before the job parks as failed (default 3)",
    )
    daemon_submit_parser.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        help="base retry backoff in seconds, doubling per attempt (default 0.5)",
    )
    daemon_submit_parser.add_argument(
        "--label", default="", help="free-form label (also the generation label)"
    )
    daemon_submit_parser.add_argument(
        "--upload",
        action="store_true",
        help="ship the payload bytes in the request instead of passing the path",
    )
    daemon_submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the job is terminal; exit 1 unless it completed",
    )
    daemon_submit_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait polling budget in seconds (default 600)",
    )

    daemon_status_parser = daemon_sub.add_parser(
        "status", help="show the daemon's health, or one job's record"
    )
    daemon_status_parser.add_argument("--url", required=True, help="daemon base URL")
    daemon_status_parser.add_argument(
        "--job", default=None, help="job id (default: overall health + queue)"
    )

    daemon_result_parser = daemon_sub.add_parser(
        "result", help="download a completed job's report payload"
    )
    daemon_result_parser.add_argument("--url", required=True, help="daemon base URL")
    daemon_result_parser.add_argument("--job", required=True, help="job id")
    daemon_result_parser.add_argument(
        "--out", required=True, help="destination report payload (.npz)"
    )

    daemon_stop_parser = daemon_sub.add_parser(
        "stop", help="gracefully drain a running daemon over HTTP"
    )
    daemon_stop_parser.add_argument("--url", required=True, help="daemon base URL")
    daemon_stop_parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for the drain to finish (default 120)",
    )

    fleet_parser.add_argument(
        "--environments",
        type=_parse_environments,
        default=["office", "hall", "library"],
        help="comma-separated registered environment names (default: all three)",
    )
    fleet_parser.add_argument(
        "--days",
        type=_parse_days,
        default=None,
        help="comma-separated refresh stamps in days (default: the preset's stamps)",
    )
    fleet_parser.add_argument(
        "--preset",
        choices=("quick", "full"),
        default="quick",
        help="collection preset: 'quick' (CI-sized) or 'full' (paper protocol)",
    )
    fleet_parser.add_argument(
        "--seed", type=int, default=None, help="override the substrate random seed"
    )
    fleet_parser.add_argument(
        "--link-count",
        type=int,
        default=None,
        help="override every site's link count (shrinks the deployments for CI)",
    )
    fleet_parser.add_argument(
        "--locations-per-link",
        type=int,
        default=None,
        help="override every site's stripe width (shrinks the deployments for CI)",
    )
    return parser


def _is_scalar_mapping(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(v, (int, float, bool, np.floating, np.integer)) for v in value.values()
    )


def _is_series_mapping(value) -> bool:
    return isinstance(value, dict) and all(isinstance(v, dict) for v in value.values()) and value


def _is_sample_mapping(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(v, (list, tuple, np.ndarray)) for v in value.values()
    ) and value


def render_result(name: str, result: dict) -> str:
    """Render an experiment's result dictionary as plain text."""
    lines = [f"== {name} =="]
    scalars = {}
    for key, value in result.items():
        if isinstance(value, (int, float, bool, str, np.floating, np.integer)):
            scalars[key] = value
        elif _is_scalar_mapping(value):
            lines.append(format_key_values(key, value))
        elif _is_series_mapping(value):
            lines.append(format_series_table(key, value))
        elif _is_sample_mapping(value):
            lines.append(format_cdf_summary(key, value))
        elif isinstance(value, np.ndarray) and value.ndim == 1 and value.size <= 16:
            scalars[key] = np.array2string(value, precision=3)
        # Large arrays are omitted from the textual report.
    if scalars:
        lines.insert(1, format_key_values("summary", scalars))
    return "\n".join(lines)


def run_fleet_export(args) -> int:
    """Run ``fleet export``: synthesize N sites into a request payload."""
    from repro.io import save_requests
    from repro.service.synthetic import synthesize_fleet

    if args.sites <= 0:
        print(f"--sites must be positive, got {args.sites}", file=sys.stderr)
        return 2
    # Flags may come from the export subparser or (when typed before the
    # `export` word) from the parent `fleet` parser, whose defaults differ.
    seed = getattr(args, "seed", None)
    try:
        requests = synthesize_fleet(
            args.sites,
            environments=getattr(args, "environments", None)
            or ["office", "hall", "library"],
            elapsed_days=args.day,
            seed=7 if seed is None else seed,
            link_count=getattr(args, "link_count", None),
            locations_per_link=getattr(args, "locations_per_link", None),
        )
        save_requests(args.out, requests, elapsed_days=args.day)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    total_locations = sum(r.baseline.location_count for r in requests)
    print(
        f"wrote {len(requests)} requests ({total_locations} grid locations total) "
        f"to {args.out}"
    )
    return 0


def run_fleet_run(args) -> int:
    """Run ``fleet run``: refresh a from-disk payload through the sharded service."""
    from repro.io import load_report, load_requests, payload_info, save_report
    from repro.service.executor import SerialExecutor
    from repro.service.remote import RemoteExecutor, RemoteShardError
    from repro.service.service import UpdateService
    from repro.service.shard import ShardConfig
    from repro.service.types import FleetReport

    if args.max_stack_bytes is None:
        shards = ShardConfig()
    elif args.max_stack_bytes == 0:
        shards = None
    elif args.max_stack_bytes > 0:
        shards = ShardConfig(max_stack_bytes=args.max_stack_bytes)
    else:
        print("--max-stack-bytes must be non-negative", file=sys.stderr)
        return 2
    endpoints = getattr(args, "endpoints", None)
    if endpoints:
        try:
            executor = RemoteExecutor(
                endpoints=[e for e in endpoints.split(",") if e.strip()],
                timeout=args.timeout,
                max_attempts=args.max_attempts,
                backoff=args.backoff,
                straggler_after=args.straggler_after,
            )
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    else:
        executor = SerialExecutor()

    try:
        info = payload_info(args.input)
        requests = load_requests(args.input)
        warm_from = (
            load_report(args.warm_from) if args.warm_from else None
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    service = UpdateService()
    try:
        reports = service.update_fleet(
            requests, shards=shards, executor=executor, warm_from=warm_from
        )
    except RemoteShardError as error:
        print(error, file=sys.stderr)
        return 1
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    plan = service.last_plan
    report = FleetReport(
        elapsed_days=float(info.get("elapsed_days") or 0.0),
        reports=tuple(reports),
        stacked_sweeps=service.last_stacked_sweeps,
        plan=plan,
        executor=executor.name,
        workers=executor.workers,
        sweeps_saved=service.last_sweeps_saved,
    )
    print(f"loaded {len(requests)} requests from {args.input}")
    if warm_from is not None:
        warm_sites = sum(r.warm_started for r in reports)
        saved = sum(service.last_sweeps_saved.values())
        print(
            f"warm start from {args.warm_from}: {warm_sites}/{len(reports)} "
            f"sites resumed, {saved} sweeps saved"
        )
    if plan is not None and plan.shard_count:
        print(
            f"plan: {plan.shard_count} shards over {plan.site_count} sites "
            f"in {len(plan.ranks)} rank groups, peak stack "
            f"{plan.peak_stack_bytes} bytes"
            + (
                f" (budget {plan.max_stack_bytes})"
                if plan.max_stack_bytes is not None
                else " (unbounded)"
            )
        )
        if isinstance(executor, RemoteExecutor):
            attempts = sum(executor.last_attempts.values())
            retries = sum(executor.last_retries.values())
            redispatched = sum(executor.last_redispatches.values())
            print(
                f"executor: remote ({len(executor.endpoints)} endpoint(s); "
                f"{attempts} dispatch(es), {retries} retried, "
                f"{redispatched} re-dispatched, "
                f"{executor.last_duplicates_dropped} duplicate(s) dropped)"
            )
        else:
            print(f"executor: {executor.name}")
    print()
    print(format_fleet_report(report))
    if args.out:
        save_report(args.out, report)
        print(f"wrote report to {args.out}")
    return 0


def _serve_until_signalled(server, stop, banner: str) -> None:
    """Start ``server``, print ``banner``, block until it has closed.

    SIGTERM and SIGINT run ``stop`` on its own thread, so a stop that joins
    the serve loop never blocks inside the signal handler.
    """
    import signal
    import threading

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(
            signum, lambda *_: threading.Thread(target=stop, daemon=True).start()
        )
    server.start()
    print(banner, flush=True)
    server.wait()


def run_fleet_workers_serve(args) -> int:
    """Run ``fleet workers serve``: one remote shard worker, until signalled."""
    from repro.service.remote import FaultPlan, WorkerServer

    faults = None
    if args.fault:
        try:
            faults = FaultPlan.parse(args.fault)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    try:
        server = WorkerServer(host=args.host, port=args.port, faults=faults)
    except OSError as error:
        print(f"cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    server.verbose = args.verbose
    armed = 0 if faults is None else len(faults.pending)
    _serve_until_signalled(
        server,
        server.stop,
        f"worker listening on {server.url}"
        + (f" ({armed} fault(s) armed)" if armed else ""),
    )
    print(f"worker stopped after solving {server.solved} shard(s)", flush=True)
    return 0


def run_fleet_diff(args) -> int:
    """Run ``fleet diff``: compute or apply a ``repro-fleet-delta`` payload.

    With ``--target``, computes the delta of target vs base (written to
    ``--out`` when given, summarized either way).  With ``--delta``, applies
    a previously computed delta on top of the base and writes the
    reconstructed report to ``--out``.
    """
    from repro.io import (
        apply_delta,
        load_delta,
        load_report,
        save_delta,
        save_report,
    )

    if (args.target is None) == (args.delta is None):
        print(
            "fleet diff needs exactly one of --target (compute a delta) or "
            "--delta (apply one)",
            file=sys.stderr,
        )
        return 2
    try:
        base = load_report(args.base)
        if args.target is not None:
            target = load_report(args.target)
            if args.out:
                save_delta(args.out, base, target)
                delta = load_delta(args.out)
            else:
                import io as _io

                buffer = _io.BytesIO()
                save_delta(buffer, base, target)
                buffer.seek(0)
                delta = load_delta(buffer)
        else:
            if not args.out:
                print(
                    "fleet diff --delta needs --out for the reconstructed "
                    "report",
                    file=sys.stderr,
                )
                return 2
            delta = load_delta(args.delta)
            report = apply_delta(base, delta)
            save_report(args.out, report)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    modes = delta.modes
    counts = {
        mode: sum(1 for m in modes.values() if m == mode)
        for mode in ("same", "patch", "full")
    }
    print(
        f"delta over {len(modes)} sites: "
        f"{counts['same']} same, {counts['patch']} patched, "
        f"{counts['full']} full"
    )
    if args.target is not None and args.out:
        print(f"wrote delta to {args.out}")
    if args.delta is not None:
        print(f"applied {args.delta} onto {args.base}; wrote {args.out}")
    return 0


def run_query_export(args) -> int:
    """Run ``query export``: sample a query workload from a report payload."""
    import numpy as np

    from repro.io import load_report, save_queries
    from repro.query import QueryBatch, grid_locations

    if args.per_site <= 0:
        print(f"--per-site must be positive, got {args.per_site}", file=sys.stderr)
        return 2
    if args.noise_db < 0:
        print("--noise-db must be non-negative", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"--seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2
    try:
        report = load_report(args.report)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    batches = []
    for offset, site_report in enumerate(report.reports):
        matrix = site_report.matrix
        rng = np.random.default_rng(args.seed + offset * 1009)
        true_indices = rng.integers(0, matrix.location_count, size=args.per_site)
        measurements = matrix.values.T[true_indices] + rng.normal(
            0.0, args.noise_db, size=(args.per_site, matrix.link_count)
        )
        batches.append(
            QueryBatch(
                site=site_report.site,
                measurements=measurements,
                true_indices=true_indices,
                locations=grid_locations(
                    matrix.link_count, matrix.locations_per_link
                ),
            )
        )
    save_queries(args.out, batches)
    total = sum(batch.count for batch in batches)
    print(f"wrote {total} queries over {len(batches)} sites to {args.out}")
    return 0


def run_query_run(args) -> int:
    """Run ``query run``: answer a queries payload against a report payload."""
    import time

    import numpy as np

    from repro.io import load_queries, load_report, save_answers
    from repro.localization.metrics import localization_errors
    from repro.query import QueryConfig, QueryEngine

    if args.cache < 0:
        print("--cache must be non-negative", file=sys.stderr)
        return 2
    try:
        report = load_report(args.report)
        batches = load_queries(args.queries)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    engine = QueryEngine(
        QueryConfig(matcher=args.matcher, cache_size=args.cache)
    )
    locations = {
        batch.site: batch.locations
        for batch in batches
        if batch.locations is not None
    }
    try:
        generation = engine.publish_report(report, locations=locations)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    print(
        f"serving generation {generation.ordinal} ({generation.label}): "
        f"{len(generation.sites)} sites, matcher={args.matcher}"
    )

    answers = []
    total_queries = 0
    start = time.perf_counter()
    for batch in batches:
        try:
            answers.append(engine.answer(batch))
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        total_queries += batch.count
    elapsed = time.perf_counter() - start

    errors = []
    for batch, answer in zip(batches, answers):
        if batch.true_indices is None or batch.locations is None:
            continue
        if answer.points is None:
            continue
        errors.extend(
            localization_errors(batch.locations[batch.true_indices], answer.points)
        )
    qps = total_queries / elapsed if elapsed > 0 else float("inf")
    print(
        f"answered {total_queries} queries in {elapsed:.3f}s ({qps:,.0f} queries/s)"
    )
    if args.cache:
        hits = sum(answer.cache_hits for answer in answers)
        print(f"cache: {hits}/{total_queries} hits")
    if errors:
        errors = np.asarray(errors)
        print(
            f"accuracy vs ground truth: mean {errors.mean():.3f} m, "
            f"median {np.median(errors):.3f} m over {errors.size} queries"
        )
    if args.out:
        save_answers(args.out, answers)
        print(f"wrote {len(answers)} answer batches to {args.out}")
    return 0


def run_query_bench(args) -> int:
    """Run ``query bench``: the engine's queries/sec at several batch sizes."""
    import time

    import numpy as np

    from repro.query import QueryConfig, QueryEngine

    if args.repeats <= 0:
        print("--repeats must be positive", file=sys.stderr)
        return 2
    if args.noise_db < 0:
        print("--noise-db must be non-negative", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"--seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2
    if args.report is not None:
        from repro.io import load_report

        try:
            report = load_report(args.report)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    else:
        from repro.service.service import UpdateService
        from repro.service.synthetic import synthesize_fleet
        from repro.service.types import FleetReport

        requests = synthesize_fleet(
            1, link_count=8, locations_per_link=8, seed=args.seed
        )
        reports = UpdateService().update_fleet(requests)
        report = FleetReport(elapsed_days=45.0, reports=tuple(reports))
        print("no --report given; refreshed a 1-site fleet in-process")

    engine = QueryEngine(QueryConfig(matcher=args.matcher))
    engine.publish_report(report)
    site = engine.sites[0]
    matrix = report.report_for(site).matrix
    rng = np.random.default_rng(args.seed)

    print(
        f"site {site!r}: {matrix.link_count} links x "
        f"{matrix.location_count} grids, matcher={args.matcher}"
    )
    target_met = True
    for batch_size in args.batch_sizes:
        truth = rng.integers(0, matrix.location_count, size=batch_size)
        queries = matrix.values.T[truth] + rng.normal(
            0.0, args.noise_db, size=(batch_size, matrix.link_count)
        )
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            engine.localize_batch(site, queries)
            best = min(best, time.perf_counter() - start)
        qps = batch_size / best if best > 0 else float("inf")
        print(f"batch {batch_size:>5}: {qps:>12,.0f} q/s")
        if (
            args.qps_target is not None
            and batch_size == max(args.batch_sizes)
            and qps < args.qps_target
        ):
            target_met = False
            print(
                f"engine reached {qps:,.0f} q/s at batch {batch_size}, "
                f"below the target {args.qps_target:,.0f}",
                file=sys.stderr,
            )
    return 0 if target_met else 1


def run_fleet(args) -> int:
    """Run the ``fleet`` subcommand: refresh several sites per survey stamp."""
    from repro.environments import environment_by_name
    from repro.service.fleet import FleetCampaign, FleetConfig

    config = ExperimentConfig.full() if args.preset == "full" else ExperimentConfig.quick()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    days = list(args.days) if args.days else list(config.later_timestamps)
    config = replace(config, timestamps_days=(0.0, *sorted(set(days))))

    if len(set(args.environments)) != len(args.environments):
        print(f"duplicate environments: {', '.join(args.environments)}", file=sys.stderr)
        return 2
    overrides = {}
    if args.link_count is not None:
        overrides["link_count"] = args.link_count
    if args.locations_per_link is not None:
        overrides["locations_per_link"] = args.locations_per_link
    try:
        specs = {
            name: environment_by_name(name, **overrides) for name in args.environments
        }
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    fleet = FleetCampaign(
        specs=specs,
        config=FleetConfig(
            environments=tuple(specs), campaign=config.campaign_config()
        ),
    )
    print(
        f"fleet: {', '.join(fleet.sites)} "
        f"({sum(spec.total_locations for spec in specs.values())} grid locations total)"
    )
    for elapsed_days in sorted(set(days)):
        report = fleet.refresh(elapsed_days)
        print()
        print(format_fleet_report(report))
    return 0


def run_daemon_start(args) -> int:
    """Run the ``daemon start`` subcommand: serve until drained."""
    from repro.daemon import Coordinator, DaemonConfig, DaemonServer
    from repro.query import QueryConfig

    if args.cache < 0:
        print("--cache must be non-negative", file=sys.stderr)
        return 2
    try:
        endpoints = None
        if getattr(args, "endpoints", None):
            endpoints = tuple(
                e.strip() for e in args.endpoints.split(",") if e.strip()
            )
        config = DaemonConfig(
            job_workers=args.job_workers,
            query=QueryConfig(matcher=args.matcher, cache_size=args.cache),
            endpoints=endpoints,
        )
        coordinator = Coordinator(args.spool, config=config)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    recovered = coordinator.queue.recovered_jobs
    if recovered:
        print(
            f"recovered {len(recovered)} interrupted job(s): "
            f"{', '.join(recovered)}",
            file=sys.stderr,
        )

    server = DaemonServer(coordinator, host=args.host, port=args.port)
    server.verbose = args.verbose
    _serve_until_signalled(
        server,
        server.initiate_drain,
        f"daemon listening on {server.url} (spool: {coordinator.queue.spool})",
    )
    print("daemon drained; queued jobs are journaled for the next start", flush=True)
    return 0


def run_daemon_submit(args) -> int:
    """Run the ``daemon submit`` subcommand."""
    from repro.daemon import DaemonClient

    client = DaemonClient(args.url)
    record = client.submit(
        args.input,
        kind=args.kind,
        priority=args.priority,
        max_attempts=args.max_attempts,
        backoff_seconds=args.backoff,
        label=args.label,
        max_stack_bytes=args.max_stack_bytes,
        workers=args.workers,
        upload=args.upload,
    )
    print(f"submitted {record['id']} ({record['kind']}, priority {record['priority']})")
    if not args.wait:
        return 0
    record = client.wait(record["id"], timeout=args.timeout)
    line = f"{record['id']}: {record['state']} after {record['attempts']} attempt(s)"
    if record.get("generation") is not None:
        line += f", published generation {record['generation']}"
    if record.get("error"):
        line += f" — {record['error']}"
    print(line)
    return 0 if record["state"] == "done" else 1


def run_daemon_status(args) -> int:
    """Run the ``daemon status`` subcommand."""
    import json as _json

    from repro.daemon import DaemonClient

    client = DaemonClient(args.url)
    payload = client.status(args.job) if args.job else client.health()
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def run_daemon_result(args) -> int:
    """Run the ``daemon result`` subcommand."""
    from repro.daemon import DaemonClient

    client = DaemonClient(args.url)
    out = client.fetch_result(args.job, args.out)
    print(f"wrote {out} ({out.stat().st_size:,} bytes)")
    return 0


def run_daemon_stop(args) -> int:
    """Run the ``daemon stop`` subcommand: drain over HTTP."""
    import time as _time

    from repro.daemon import DaemonClient, DaemonError

    client = DaemonClient(args.url)
    client.drain()
    deadline = _time.monotonic() + args.timeout
    health = {"jobs": {}}
    while _time.monotonic() < deadline:
        try:
            health = client.health()
        except DaemonError:
            print("daemon drained")
            return 0
        _time.sleep(min(0.2, max(0.0, deadline - _time.monotonic())))
    print(
        f"daemon still draining after {args.timeout:g}s "
        f"({health['jobs'].get('running', 0)} job(s) running)",
        file=sys.stderr,
    )
    return 1


def main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.command == "list":
        for name in ExperimentRunner.available():
            print(name)
        return 0

    if args.command == "fleet":
        fleet_command = getattr(args, "fleet_command", None)
        if fleet_command == "export":
            return run_fleet_export(args)
        if fleet_command == "run":
            return run_fleet_run(args)
        if fleet_command == "workers":
            return run_fleet_workers_serve(args)
        if fleet_command == "diff":
            return run_fleet_diff(args)
        return run_fleet(args)

    if args.command == "daemon":
        if args.daemon_command == "start":
            return run_daemon_start(args)
        from repro.daemon import DaemonError

        try:
            if args.daemon_command == "submit":
                return run_daemon_submit(args)
            if args.daemon_command == "status":
                return run_daemon_status(args)
            if args.daemon_command == "result":
                return run_daemon_result(args)
            return run_daemon_stop(args)
        except (DaemonError, TimeoutError) as error:
            print(error, file=sys.stderr)
            return 1

    if args.command == "query":
        if args.query_command == "export":
            return run_query_export(args)
        if args.query_command == "run":
            return run_query_run(args)
        return run_query_bench(args)

    config = ExperimentConfig.full() if args.preset == "full" else ExperimentConfig.quick()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    runner = ExperimentRunner(config)

    available = set(ExperimentRunner.available())
    unknown = [name for name in args.names if name not in available]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print("use 'list' to see the available names", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2

    results = runner.run_many(args.names, jobs=args.jobs)
    for name in args.names:
        print(render_result(name, results[name]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
