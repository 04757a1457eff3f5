"""Scatter-gather fleet execution: zero deviation at benchmark scale.

A 128-site synthetic fleet is refreshed twice with the same shard budget —
serially in-process, and through :class:`~repro.service.remote.RemoteExecutor`
over two in-process :class:`~repro.service.remote.WorkerServer`s — and the
remote refresh must produce **bit-identical** per-site results, the same
executed plan and no singularity fallbacks.  Timings are printed as
``BENCH_distributed_fleet_*`` rows (and optionally written as JSON for CI
artifacts via the ``REPRO_BENCH_JSON`` environment variable), report only:
both workers share this interpreter, so ``remote2_seconds`` measures the
transport's overhead (task encode, HTTP, result decode), not scaling.

Runs without the ``benchmark`` fixture so the rows are recorded even when
pytest-benchmark is unavailable.
"""

import os
import time

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.service.remote import RemoteExecutor
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.synthetic import synthesize_fleet

from benchmarks._harness import record
from tests.workers import running_workers

FLEET_SITES = 128
SHARD_BUDGET = 32 * 1024  # ~a dozen shards at this fleet size


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


def test_distributed_fleet_scaling(distributed_fleet_requests):
    """Scatter a 128-site refresh over two remote workers vs serial."""
    shards = ShardConfig(max_stack_bytes=SHARD_BUDGET)
    service = UpdateService()

    timings = {}
    estimates = {}
    plans = {}
    with running_workers(2) as servers:
        variants = {
            "serial": None,
            "remote2": RemoteExecutor([server.url for server in servers]),
        }
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
        for a, b in zip(estimates["serial"], estimates["remote2"])
    )

    rows = {
        "sites": FLEET_SITES,
        "shards": plans["serial"].shard_count,
        "cpu_count": os.cpu_count() or 1,
        "max_deviation_db": deviation,
        **{f"{name}_seconds": round(timings[name], 4) for name in timings},
    }
    print()
    for key, value in rows.items():
        print(f"BENCH_distributed_fleet_{key}: {value}")

    record("distributed_fleet", rows)

    # Hard invariants: scattering over remote workers must be invisible in
    # the results — bit-identical estimates, identical executed plans, no
    # singularity fallbacks triggered by the transport.
    assert deviation == 0.0
    assert plans["remote2"].shard_count == plans["serial"].shard_count
    for ours, theirs in zip(plans["remote2"].shards, plans["serial"].shards):
        assert ours.members == theirs.members
        assert ours.sweeps == theirs.sweeps
        assert not ours.fallback
