"""Incremental refresh: warm-started sweeps vs cold across a drift schedule.

A 10-site synthetic fleet is refreshed cold once (the previous generation),
then re-refreshed at three drift magnitudes — unchanged data, a small
additive measurement drift, and a large one — both cold and warm-started
from the previous generation's factors (``update_fleet(..., warm_from=...)``).
Sweeps-to-converge and wall time are printed as
``BENCH_incremental_refresh_*`` rows (JSON via ``REPRO_BENCH_JSON``).

Hard invariants (always asserted, deterministic on any host):

* the unchanged refresh converges with **zero** sweeps and reproduces the
  previous generation bit for bit;
* at small drift the warm path uses **>= 2x fewer sweeps** than cold;
* warm and cold land on estimates within a small dB tolerance of each other
  at every drift level (accuracy parity — warm starting must not trade
  accuracy for sweeps).

Wall-clock assertions are skipped under ``REPRO_SKIP_PERF_ASSERT`` (hosted
runners are noisy); the timings still land in the JSON artifact.  Runs
without the ``benchmark`` fixture so the rows are recorded even when
pytest-benchmark is unavailable.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.service.service import UpdateService
from repro.service.synthetic import synthesize_fleet
from repro.service.types import FleetReport

from benchmarks._harness import record

FLEET_SITES = 10
#: (label, additive measurement-noise scale in dB) refresh schedule.
DRIFT_SCHEDULE = (("zero", 0.0), ("small", 0.003), ("large", 1.0))
ACCURACY_TOLERANCE_DB = 0.5


@pytest.fixture(scope="module")
def previous_generation():
    """The base fleet and its cold refresh (the daemon's last report)."""
    requests = synthesize_fleet(
        FLEET_SITES,
        elapsed_days=45.0,
        seed=11,
        link_count=(3, 4),
        locations_per_link=4,
    )
    service = UpdateService()
    reports = service.update_fleet(requests)
    report = FleetReport(elapsed_days=45.0, reports=tuple(reports))
    return requests, report


def drifted_requests(base_requests, scale, seed=5):
    """The base fleet with additive measurement drift of magnitude ``scale``.

    Observed no-decrease entries and the fresh reference columns move by
    ``scale`` dB of Gaussian noise; masks, baselines and seeds stay fixed, so
    ``scale`` is the *only* thing that changes between generations.
    """
    rng = np.random.default_rng(seed)
    drifted = []
    for request in base_requests:
        observed = (
            request.no_decrease_matrix
            + scale
            * request.no_decrease_mask
            * rng.standard_normal(request.no_decrease_matrix.shape)
        )
        reference = request.reference_matrix + scale * rng.standard_normal(
            request.reference_matrix.shape
        )
        drifted.append(
            replace(
                request,
                no_decrease_matrix=observed,
                reference_matrix=reference,
            )
        )
    return drifted


def test_incremental_refresh_drift_schedule(previous_generation):
    """Cold vs warm refresh at zero / small / large drift."""
    base_requests, base_report = previous_generation
    service = UpdateService()

    rows = {
        "sites": FLEET_SITES,
        "tolerance": SelfAugmentedConfig().tolerance,
        "base_sweeps": sum(r.sweeps for r in base_report.reports),
    }
    results = {}
    for label, scale in DRIFT_SCHEDULE:
        requests = drifted_requests(base_requests, scale)

        start = time.perf_counter()
        cold = service.update_fleet(requests)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = service.update_fleet(requests, warm_from=base_report)
        warm_seconds = time.perf_counter() - start

        cold_sweeps = sum(r.sweeps for r in cold)
        warm_sweeps = sum(r.sweeps for r in warm)
        accuracy_gap = max(
            float(np.abs(a.estimate - b.estimate).mean())
            for a, b in zip(cold, warm)
        )
        results[label] = {
            "cold": cold,
            "warm": warm,
            "sweeps_saved": service.last_sweeps_saved,
        }
        rows.update(
            {
                f"{label}_drift_db": scale,
                f"{label}_cold_sweeps": cold_sweeps,
                f"{label}_warm_sweeps": warm_sweeps,
                f"{label}_sweep_ratio": round(
                    cold_sweeps / max(warm_sweeps, 1), 2
                ),
                f"{label}_cold_seconds": round(cold_seconds, 4),
                f"{label}_warm_seconds": round(warm_seconds, 4),
                f"{label}_accuracy_gap_db": round(accuracy_gap, 5),
            }
        )

    print()
    for key, value in rows.items():
        print(f"BENCH_incremental_refresh_{key}: {value}")

    record("incremental_refresh", rows)

    # Hard invariants — deterministic, always on.
    # (1) Unchanged fleet: zero sweeps, previous generation reproduced bit
    # for bit, every saved sweep accounted for.
    zero = results["zero"]
    assert all(r.warm_started for r in zero["warm"])
    assert sum(r.sweeps for r in zero["warm"]) == 0
    for previous, warm in zip(base_report.reports, zero["warm"]):
        np.testing.assert_array_equal(previous.estimate, warm.estimate)
        np.testing.assert_array_equal(
            previous.result.solver.left, warm.result.solver.left
        )
    assert zero["sweeps_saved"] == {
        r.site: r.sweeps for r in base_report.reports
    }
    # (2) Small drift: warm start must save at least 2x the sweeps.
    small_cold = sum(r.sweeps for r in results["small"]["cold"])
    small_warm = sum(r.sweeps for r in results["small"]["warm"])
    assert small_warm * 2 <= small_cold, (
        f"warm refresh at small drift used {small_warm} sweeps vs "
        f"{small_cold} cold; expected >= 2x fewer"
    )
    # (3) Accuracy parity at every drift level.
    for label, _ in DRIFT_SCHEDULE:
        gap = rows[f"{label}_accuracy_gap_db"]
        assert gap <= ACCURACY_TOLERANCE_DB, (
            f"warm vs cold estimates diverge by {gap} dB at {label} drift"
        )
    # (4) The cold path itself stays deterministic: same requests, same
    # sweep counts as the base generation (the bit-parity pins live in
    # tests/; this guards the bench's own baseline).
    assert sum(r.sweeps for r in results["zero"]["cold"]) == rows["base_sweeps"]

    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        pytest.skip("REPRO_SKIP_PERF_ASSERT set; BENCH_ rows recorded above")
    # Fewer sweeps must show up as wall time at small drift; generous slack
    # because prepare (MIC + LRR) is a fixed cost both paths pay.
    assert rows["small_warm_seconds"] < rows["small_cold_seconds"] * 1.05, (
        f"warm refresh not faster: {rows['small_warm_seconds']}s vs "
        f"{rows['small_cold_seconds']}s cold"
    )
