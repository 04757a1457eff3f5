"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` untraced and traced at the tiny
size and checks that each run passes its output checks and emits exactly
the declared metric names and units, with every end-to-end value non-zero.
Then it corrupts one output per workload (a perturbed payload or estimate,
a swapped kNN answer, a failed daemon job) and checks that the run reports
the failure and exits 1.  Last, it checks that the benchmark refuses to run,
without printing a result, from a directory holding only ``BENCHMARK.json``
and the benchmark's own files.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, corrupt: bool = False, cwd: Path = ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, cwd=str(cwd), capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, result, stderr = run(workload, trace)
            if result is None or set(result) != RESULT_KEYS:
                failures.append(f"{label}: no result line (exit {code}): {stderr[-300:]}")
                continue
            if code != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: exit {code}, result {result['correct']}, "
                                f"{result['failed']}/{result['attempted']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metric names/units differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                if zero:
                    failures.append(f"{label}: end-to-end metrics not positive: {zero}")
        code, result, _ = run(workload, 0, corrupt=True)
        if code != 1 or result is None or result["correct"] or result["failed"] < 1:
            failures.append(f"{workload} --corrupt: check did not fail (exit {code}, {result})")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result, _ = run("survey", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        failures.append(f"bare directory: exit {code}, result {result}")

    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
