"""Scatter-gather fleet execution: wall-clock scaling, zero deviation.

A 128-site synthetic fleet is refreshed five ways — serially in-process,
through :class:`~repro.service.executor.ProcessExecutor` with 1, 2 and 4
workers on a pool each call starts and shuts down, and with 2 workers on a
caller-owned pool started and warmed before timing (``warm_workers2``, so
pool start-up is outside that row) — and every variant must produce
**bit-identical** per-site results and the same executed plan.  Timings are
printed as ``BENCH_distributed_fleet_*`` rows (and optionally written as
JSON for CI artifacts via the ``REPRO_BENCH_JSON`` environment variable),
so performance sweeps can track the scatter-gather overhead and, on
multi-core machines, the scaling.

Wall-clock assertions are deliberately conservative: result parity is the
hard invariant; speedup depends on the host's core count (a single-core CI
runner *cannot* scale, and the rows record that honestly via ``cpu_count``).
Runs without the ``benchmark`` fixture so the rows are recorded even when
pytest-benchmark is unavailable.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.service.executor import ProcessExecutor
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.synthetic import synthesize_fleet

from benchmarks._harness import record

FLEET_SITES = 128
SHARD_BUDGET = 32 * 1024  # ~a dozen shards at this fleet size
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def distributed_fleet_requests():
    """A 128-site synthetic fleet with three factorisation ranks."""
    return synthesize_fleet(
        FLEET_SITES,
        elapsed_days=45.0,
        seed=11,
        link_count=(3, 4, 5),
        locations_per_link=4,
        updater=UpdaterConfig(
            # A tight tolerance keeps every site sweeping, so the measured
            # work is the stacked solve rather than early convergence.
            solver=SelfAugmentedConfig(max_iterations=40, tolerance=1e-12)
        ),
    )


@pytest.fixture
def warm_pool(distributed_fleet_requests):
    """Two started worker processes, warmed by one untimed refresh."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        UpdateService().update_fleet(
            distributed_fleet_requests,
            shards=ShardConfig(max_stack_bytes=SHARD_BUDGET),
            executor=ProcessExecutor(2, pool=pool),
        )
        yield pool


def test_distributed_fleet_scaling(distributed_fleet_requests, warm_pool):
    """Scatter a 128-site refresh over {1, 2, 4} fresh and 2 warm workers vs
    serial."""
    shards = ShardConfig(max_stack_bytes=SHARD_BUDGET)
    service = UpdateService()

    variants = {"serial": None}
    for workers in WORKER_COUNTS:
        variants[f"workers{workers}"] = ProcessExecutor(workers)
    variants["warm_workers2"] = ProcessExecutor(2, pool=warm_pool)

    timings = {}
    estimates = {}
    plans = {}
    for name, executor in variants.items():
        start = time.perf_counter()
        reports = service.update_fleet(
            distributed_fleet_requests, shards=shards, executor=executor
        )
        timings[name] = time.perf_counter() - start
        estimates[name] = [report.estimate for report in reports]
        plans[name] = service.last_plan

    deviation = max(
        float(np.max(np.abs(a - b)))
        for name in variants
        if name != "serial"
        for a, b in zip(estimates["serial"], estimates[name])
    )

    cpu_count = os.cpu_count() or 1
    rows = {
        "sites": FLEET_SITES,
        "shards": plans["serial"].shard_count,
        "cpu_count": cpu_count,
        "max_deviation_db": deviation,
        **{f"{name}_seconds": round(timings[name], 4) for name in variants},
        "speedup_w4_vs_w1": round(timings["workers1"] / timings["workers4"], 2),
    }
    print()
    for key, value in rows.items():
        print(f"BENCH_distributed_fleet_{key}: {value}")

    record("distributed_fleet", rows)

    # Hard invariants: scattering over worker processes must be invisible in
    # the results — bit-identical estimates, identical executed plans, no
    # singularity fallbacks triggered by the transport.
    assert deviation == 0.0
    for name in variants:
        if name == "serial":
            continue
        assert plans[name].shard_count == plans["serial"].shard_count
        for ours, theirs in zip(plans[name].shards, plans["serial"].shards):
            assert ours.members == theirs.members
            assert ours.sweeps == theirs.sweeps
            assert not ours.fallback

    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        pytest.skip("REPRO_SKIP_PERF_ASSERT set; BENCH_ rows recorded above")
    # Scatter-gather overhead (payload encode, pool spawn, result pickle)
    # must stay sane even on a single-core runner.
    assert timings["workers1"] < 5.0 * timings["serial"] + 2.0, (
        f"1-worker scatter pathologically slow: {timings['workers1']:.2f}s vs "
        f"{timings['serial']:.2f}s serial"
    )
    if cpu_count >= 4 and os.environ.get("REPRO_ASSERT_SCALING"):
        # Wall-clock scaling is hardware- and load-dependent (tiny shards on
        # a busy shared runner can anti-scale from scheduling noise alone),
        # so this assertion is opt-in for dedicated perf sweeps; the rows
        # above record the ratio everywhere.
        assert timings["workers4"] < 1.25 * timings["workers1"], (
            f"4 workers anti-scale on a {cpu_count}-core host: "
            f"{timings['workers4']:.2f}s vs {timings['workers1']:.2f}s"
        )
