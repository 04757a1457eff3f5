"""Micro-benchmarks of the heavy numerical kernels.

Unlike the figure benchmarks (which run a full experiment once and assert the
paper's qualitative shape), these time the individual solvers with repeated
pytest-benchmark rounds so performance regressions are visible.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.lrr import low_rank_representation
from repro.core.mic import select_reference_locations
from repro.core.self_augmented import SelfAugmentedConfig, self_augmented_rsvd
from repro.core.updater import UpdaterConfig
from repro.localization.omp import OMPLocalizer
from repro.service.fleet import FleetCampaign, FleetConfig
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.synthetic import synthesize_fleet
from repro.simulation.campaign import CampaignConfig
from repro.simulation.collector import CollectionConfig
from tests.oracles import self_augmented_rsvd_looped, update_looped


@pytest.fixture(scope="module")
def office_matrix(runner):
    campaign = runner.cache.campaign("office")
    return campaign, campaign.database.original


def test_kernel_mic_selection(benchmark, office_matrix):
    _, original = office_matrix
    result = benchmark(select_reference_locations, original.values)
    assert result.count <= original.link_count


def test_kernel_lrr_solve(benchmark, office_matrix):
    _, original = office_matrix
    mic = select_reference_locations(original.values)
    result = benchmark(low_rank_representation, original.values, mic.mic_matrix)
    assert result.correlation.shape == (mic.count, original.location_count)


def test_kernel_self_augmented_solver(benchmark, office_matrix):
    campaign, original = office_matrix
    observed, mask = campaign.collector.collect_no_decrease(elapsed_days=45.0)
    mic = select_reference_locations(original.values)
    lrr = low_rank_representation(original.values, mic.mic_matrix)
    reference = campaign.collector.collect_reference(mic.indices, elapsed_days=45.0)
    prediction = lrr.predict(reference)
    config = SelfAugmentedConfig(max_iterations=10)

    result = benchmark.pedantic(
        self_augmented_rsvd,
        args=(observed, mask, original.locations_per_link),
        kwargs={"prediction": prediction, "config": config, "rng": 1},
        rounds=3,
        iterations=1,
    )
    assert result.estimate.shape == original.shape


def test_kernel_solver_backend_comparison(office_matrix):
    """Time the batched ALS solver vs its looped oracle on the office-sized
    problem.

    Runs without the ``benchmark`` fixture so the comparison is recorded even
    when pytest-benchmark is unavailable; results are printed as ``BENCH_*``
    rows so performance sweeps can grep them out of the log.
    """
    campaign, original = office_matrix
    observed, mask = campaign.collector.collect_no_decrease(elapsed_days=45.0)
    mic = select_reference_locations(original.values)
    lrr = low_rank_representation(original.values, mic.mic_matrix)
    reference = campaign.collector.collect_reference(mic.indices, elapsed_days=45.0)
    prediction = lrr.predict(reference)

    config = SelfAugmentedConfig(max_iterations=10)
    solvers = {"looped": self_augmented_rsvd_looped, "batched": self_augmented_rsvd}
    timings = {}
    estimates = {}
    for name, solve in solvers.items():
        rounds = []
        # Best-of-3 so one scheduler stall on a loaded CI runner cannot sink
        # the measured ratio below the assertion threshold.
        for _ in range(3):
            start = time.perf_counter()
            result = solve(
                observed,
                mask,
                original.locations_per_link,
                prediction=prediction,
                config=config,
                rng=1,
            )
            rounds.append(time.perf_counter() - start)
        timings[name] = min(rounds)
        estimates[name] = result.estimate

    speedup = timings["looped"] / timings["batched"]
    deviation = float(np.max(np.abs(estimates["batched"] - estimates["looped"])))
    print()
    print(f"BENCH_solver_backend_looped_seconds: {timings['looped']:.4f}")
    print(f"BENCH_solver_backend_batched_seconds: {timings['batched']:.4f}")
    print(f"BENCH_solver_backend_speedup: {speedup:.2f}x")
    print(f"BENCH_solver_backend_max_deviation_db: {deviation:.3e}")

    # The two paths iterate the same fixed-point map; at the default
    # (ill-conditioned) rank the iterates may drift apart by BLAS rounding
    # noise, but never by a physically meaningful RSS amount.
    assert deviation < 1e-4
    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        pytest.skip("REPRO_SKIP_PERF_ASSERT set; BENCH_ rows recorded above")
    assert speedup > 1.5, f"batched solver not measurably faster ({speedup:.2f}x)"


@pytest.fixture(scope="module")
def paper_fleet_requests():
    """Fresh measurements for one 3-site refresh at the paper's scale."""
    fleet = FleetCampaign(
        config=FleetConfig(
            campaign=CampaignConfig(
                timestamps_days=(0.0, 45.0),
                collection=CollectionConfig(survey_samples=8, reference_samples=5),
                seed=7,
            )
        )
    )
    return fleet.build_requests(45.0)


def test_fleet_vs_looped_updates(paper_fleet_requests):
    """Time a 3-site fleet refresh: stacked vs per-site update loops.

    Compares three ways of refreshing the office + hall + library databases
    from identical measurements:

    * ``stacked``  — one ``UpdateService.update_fleet`` call; every sweep is
      a single stacked batched solve across all sites.
    * ``persite``  — a Python loop over single-site service calls, each with
      the batched ALS solver (what looping ``IUpdater.update`` costs).
    * ``looped``   — the same per-site loop on the per-column reference
      solver of ``tests/oracles.py`` (the pre-batching baseline).

    Runs without the ``benchmark`` fixture so the BENCH_ rows are recorded
    even when pytest-benchmark is unavailable.
    """
    solver = SelfAugmentedConfig(max_iterations=10)
    service = UpdateService()
    requests = [
        replace(request, config=replace(request.config, solver=solver))
        for request in paper_fleet_requests
    ]

    variants = {
        "stacked": lambda: service.update_fleet(requests),
        "persite": lambda: [service.update(r) for r in requests],
        "looped": lambda: [update_looped(r) for r in requests],
    }
    timings = {}
    estimates = {}
    for name, run in variants.items():
        rounds = []
        # Best-of-3 so one scheduler stall on a loaded CI runner cannot sink
        # the measured ratio below the assertion threshold.
        for _ in range(3):
            start = time.perf_counter()
            reports = run()
            rounds.append(time.perf_counter() - start)
        timings[name] = min(rounds)
        estimates[name] = [report.estimate for report in reports]

    deviation = max(
        float(np.max(np.abs(stacked - persite)))
        for stacked, persite in zip(estimates["stacked"], estimates["persite"])
    )
    vs_looped = timings["looped"] / timings["stacked"]
    vs_persite = timings["persite"] / timings["stacked"]
    print()
    print(f"BENCH_fleet_vs_looped_stacked_seconds: {timings['stacked']:.4f}")
    print(f"BENCH_fleet_vs_looped_persite_seconds: {timings['persite']:.4f}")
    print(f"BENCH_fleet_vs_looped_looped_seconds: {timings['looped']:.4f}")
    print(f"BENCH_fleet_vs_looped_speedup: {vs_looped:.2f}x")
    print(f"BENCH_fleet_vs_looped_persite_speedup: {vs_persite:.2f}x")
    print(f"BENCH_fleet_vs_looped_max_deviation_db: {deviation:.3e}")

    # Stacking must not perturb any site's result: batched LU factorises each
    # slice independently and ranks are solved per rank group.
    assert deviation == 0.0
    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        pytest.skip("REPRO_SKIP_PERF_ASSERT set; BENCH_ rows recorded above")
    assert vs_looped > 1.5, f"stacked fleet not faster than looped updates ({vs_looped:.2f}x)"
    # At 3-site scale the stacked path is ~parity with a per-site batched
    # loop (the win over that baseline grows with fleet size); the ratio
    # hovers around 1.0x, so only guard against a pathological slowdown —
    # a tight floor here flakes on loaded runners.
    assert vs_persite > 0.5, f"stacked fleet much slower than per-site batched loop ({vs_persite:.2f}x)"


@pytest.fixture(scope="module")
def shard_fleet_requests():
    """A 64-site synthetic fleet with three factorisation ranks."""
    return synthesize_fleet(
        64,
        elapsed_days=45.0,
        seed=11,
        link_count=(4, 5, 6),
        locations_per_link=6,
        collection=CollectionConfig(
            survey_samples=3, reference_samples=2, online_samples=1
        ),
        updater=UpdaterConfig(solver=SelfAugmentedConfig(max_iterations=10)),
    )


def test_shard_scaling(shard_fleet_requests):
    """Time a 64-site fleet refresh: unsharded vs byte-budget-sharded.

    Sharding must bound the peak per-sweep system-stack bytes (the plan's
    memory high-water mark) without giving back the stacked-solve speedup
    over a per-site service loop.  Runs without the ``benchmark`` fixture so
    the BENCH_ rows are recorded even when pytest-benchmark is unavailable.
    """
    service = UpdateService()
    budget = 64 * 1024  # forces several shards per rank group at this size

    variants = {
        "unsharded": lambda: service.update_fleet(shard_fleet_requests),
        "sharded": lambda: service.update_fleet(
            shard_fleet_requests, shards=ShardConfig(max_stack_bytes=budget)
        ),
        "persite": lambda: [service.update(r) for r in shard_fleet_requests],
    }
    rounds = {name: [] for name in variants}
    estimates = {}
    plans = {}
    # Best-of-5, the variants interleaved round-robin: a host slowdown then
    # hits all three alike instead of sinking one variant's every round.
    for _ in range(5):
        for name, run in variants.items():
            start = time.perf_counter()
            reports = run()
            rounds[name].append(time.perf_counter() - start)
            estimates[name] = [report.estimate for report in reports]
            plans[name] = service.last_plan
    timings = {name: min(times) for name, times in rounds.items()}

    deviation = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(estimates["unsharded"], estimates["sharded"])
    )
    unsharded_peak = plans["unsharded"].peak_stack_bytes
    sharded_peak = plans["sharded"].peak_stack_bytes
    vs_persite = timings["persite"] / timings["sharded"]
    print()
    print(f"BENCH_shard_scaling_sites: {len(shard_fleet_requests)}")
    print(f"BENCH_shard_scaling_unsharded_seconds: {timings['unsharded']:.4f}")
    print(f"BENCH_shard_scaling_sharded_seconds: {timings['sharded']:.4f}")
    print(f"BENCH_shard_scaling_persite_seconds: {timings['persite']:.4f}")
    print(f"BENCH_shard_scaling_unsharded_peak_stack_bytes: {unsharded_peak}")
    print(f"BENCH_shard_scaling_sharded_peak_stack_bytes: {sharded_peak}")
    print(f"BENCH_shard_scaling_shard_count: {plans['sharded'].shard_count}")
    print(f"BENCH_shard_scaling_speedup_vs_persite: {vs_persite:.2f}x")
    print(f"BENCH_shard_scaling_max_deviation_db: {deviation:.3e}")

    # Sharding must not perturb any site's result (rank grouping + per-slice
    # batched LU), and the byte budget must actually bound the stack.
    assert deviation == 0.0
    assert sharded_peak <= budget
    assert sharded_peak < unsharded_peak
    assert plans["sharded"].shard_count > plans["unsharded"].shard_count
    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        pytest.skip("REPRO_SKIP_PERF_ASSERT set; BENCH_ rows recorded above")
    # The stacked solve's win over a per-site service loop must survive
    # sharding (loose floors: CI runners are noisy).
    assert vs_persite > 1.1, f"sharded fleet not faster than per-site loop ({vs_persite:.2f}x)"
    assert timings["sharded"] < 3.0 * timings["unsharded"], (
        f"sharding overhead pathological: {timings['sharded']:.3f}s vs "
        f"{timings['unsharded']:.3f}s unsharded"
    )


def test_kernel_omp_localization(benchmark, office_matrix):
    campaign, original = office_matrix
    locations = campaign.deployment.location_array()
    localizer = OMPLocalizer(original, locations)
    measurement = original.column(10) + 0.5

    index = benchmark(localizer.localize_index, measurement)
    assert 0 <= index < original.location_count
