"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures untraced and
reports the end-to-end metrics, their times scaled to the reference host
speed (``hostspeed.py``); ``--trace 1`` measures half the time untraced and
half traced and reports the per-layer metrics, as measured.  Human-readable
lines (run environment, the workload's named metrics) come first; the last
line of standard output is the JSON result.  The exit code is 1 when an
output check failed and 2 when the run could not start.  A full record of
each run, raw spans included, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-ups per untraced run: this process plus fresh interpreters
SETUP_HOST_SAMPLES = 10  # host-speed kernel runs right after each set-up

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
}

PER_LAYER = {
    "repro.import_s": "s",
    "rf.mean_rss_calls": "count",
    "rf.drift_calls": "count",
    "rf.self_s": "s",
    "simulation.collect_s": "s",
    "core.mic.self_s": "s",
    "core.lrr.self_s": "s",
    "io.wire.encode_s": "s",
    "io.wire.decode_s": "s",
    "io.wire.bytes": "bytes",
    "service.prepare.self_s": "s",
    "service.shard.plan_s": "s",
    "service.shard.shards": "count",
    "service.executor.fallbacks": "count",
    "core.self_augmented.structure_s": "s",
    "core.self_augmented.systems_s": "s",
    "core.self_augmented.objective_s": "s",
    "core.self_augmented.finalize_s": "s",
    "core.self_augmented.site_sweeps": "count",
    "core.self_augmented.sites": "count",
    "core.self_augmented.budget_stop_frac": "ratio",
    "core.stacked.lapack_s": "s",
    "core.stacked.lapack_calls": "count",
    "core.stacked.sweeps": "count",
    "query.index.build_s": "s",
    "query.matchers.bind_s": "s",
    "query.matchers.match_s": "s",
    "query.matchers.rows": "count",
    "query.cache.lookup_s": "s",
    "query.cache.lookups": "count",
    "query.cache.hit_rate": "ratio",
    "query.engine.self_s": "s",
    "daemon.refresh_s_p50": "s",
    "daemon.queue.wait_s_p50": "s",
    "daemon.coordinator.run_s_p50": "s",
    "daemon.http.submit_ms_p50": "ms",
    "daemon.refresh.jobs": "count",
    "daemon.refresh.site_sweeps": "count",
    "daemon.refresh.sweeps_saved": "count",
    "daemon.localize.sent": "count",
    "daemon.generator.late_ms_max": "ms",
    "accuracy.error_db": "dB",
    "accuracy.stale_db": "dB",
    "accuracy.error_m": "m",
    "ops.attempted": "count",
    "ops.failed_frac": "ratio",
    "trace.ops": "count",
    "trace.measured_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("survey", "refresh", "serve", "daemon"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper",
                        help="input scale; 'tiny' is for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test only: corrupt one output before its check")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through every cleanup block


def run_environment(args) -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # noqa: BLE001 - informational only
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in threads},
    }


def probe_setup(args):
    """Set up once in a fresh interpreter; its set-up time, scaled and raw."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    scaled, raw = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    return float(scaled), float(raw)


def traced_run(workload, seconds: float, import_s: float):
    """Half the time untraced, half traced; per-layer metrics of the latter."""
    from perfbench import spans

    untraced = workload.measure(seconds / 2)
    in_process = not hasattr(workload, "enable_tracing")
    if in_process:
        tracer = spans.Tracer()
        spans.install_layers(tracer)
        tracer.enabled = True
    else:
        workload.enable_tracing()
    traced = workload.measure(seconds / 2)
    if in_process:
        tracer.enabled = False
        snapshot = tracer.snapshot()
    else:
        snapshot = workload.stop_daemon()
    overhead = traced.e2e["latency_ms_p50"] / untraced.e2e["latency_ms_p50"] - 1.0
    covered = spans.self_time_total(snapshot) + traced.covered_s
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(spans.layer_metrics(snapshot))
    metrics.update(traced.layer)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    metrics.update({
        "repro.import_s": import_s,
        "ops.attempted": attempted,
        "ops.failed_frac": failed / attempted if attempted else 0.0,
        "trace.ops": traced.ops,
        "trace.measured_s": traced.busy_s,
        "trace.coverage": covered / traced.busy_s if traced.busy_s else 0.0,
        "trace.overhead_frac": overhead,
    })
    outside = max(0.0, traced.busy_s - covered)
    notes = [
        f"coverage {metrics['trace.coverage']:.3f}: {outside:.3f} s of {traced.busy_s:.3f} s "
        f"measured lies outside every span ({workload.unmeasured})",
        "top self time: " + ", ".join(
            f"{name} {value:.3f}s" for name, value in spans.top_self(snapshot)
        ),
    ]
    if snapshot["missing_targets"]:
        notes.append("unmeasured (target gone): " + ", ".join(snapshot["missing_targets"]))
    problems = untraced.problems + traced.problems
    record = {"snapshot": {**snapshot, "spans": snapshot["spans"][:20000]}}
    return metrics, PER_LAYER, attempted, failed, problems, traced.named, notes, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGTERM, _terminate)

    start = time.perf_counter()
    import repro  # noqa: F401 - timed: the import is part of set-up
    import_s = time.perf_counter() - start
    from perfbench import workloads
    from perfbench.hostspeed import HostSpeed

    # Set-up is scaled by kernel marks on both sides of its main part; the
    # time spent in the first mark is not set-up.
    host = HostSpeed(runs_per_mark=SETUP_HOST_SAMPLES)
    start = time.perf_counter()
    host.mark()
    marking_s = time.perf_counter() - start
    workload = workloads.create(args.workload, args.seed, args.size, args.corrupt,
                                traced=bool(args.trace))
    try:
        workload.setup()
        setup_raw = time.perf_counter() - _T0 - marking_s
        host.mark()
        setup = (setup_raw * host.factor(0), setup_raw)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.trace:
            metrics, units, attempted, failed, problems, named, notes, record = traced_run(
                workload, args.seconds, import_s
            )
        else:
            measured = workload.measure(args.seconds)
            metrics = dict(measured.e2e, peak_rss_mb=workload.peak_rss_mb())
            units, attempted, failed = END_TO_END, measured.attempted, measured.failed
            problems, named, record = measured.problems, measured.named, {}
            notes = ["wall-clock (host-speed factor {:.4f}): {}".format(
                measured.factor, ", ".join(f"{k} {v:.6g}" for k, v in measured.raw.items()))]
    finally:
        workload.close()
    if not args.trace:
        samples = [setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(scaled for scaled, _ in samples)
        notes.append("setup_s samples (wall-clock): " + ", ".join(
            f"{scaled:.4f} ({raw:.4f})" for scaled, raw in samples))

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    env = run_environment(args)
    print("# env " + json.dumps(env))
    named = dict(named, ops_failed_frac=(failed / attempted if attempted else 0.0, "ratio"))
    for name, (value, unit) in named.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print("# " + note)
    for problem in problems:
        print("# check failed: " + problem)
    out = workloads.OUT
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "env": env, "named": named, "notes": notes,
                                "problems": problems, **record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
