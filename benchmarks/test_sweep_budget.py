"""Sweep budget: the default estimate-change stop against the 40-sweep cap.

Every site of ten seeded paper-scale fleets (office, hall and library at
day 45, surveyed the way ``perfbench``'s ``build_sites`` does it: a
``FleetCampaign`` with ``synthesize_fleet``'s sampling depths and a
campaign seed of ``1000 * seed``) is refreshed twice through the public
``repro`` API:

* at the default ``SelfAugmentedConfig()``, which stops a site once its
  estimate's relative change per sweep falls below ``tolerance``;
* forced to the full 40-sweep budget (``tolerance=1e-12`` never fires).

Per-site error against the simulated ground truth, sweep counts and pass
times are printed as ``BENCH_sweep_budget_*`` rows (JSON via
``REPRO_BENCH_JSON``).  Hard invariants, deterministic on any host: every
site's error at the default stop is within +0.05 dB of its 40-sweep error,
and fewer than a tenth of the sites run to the cap at the default.
Runs without the ``benchmark`` fixture so the rows are recorded even when
pytest-benchmark is unavailable.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.environments import environment_by_name
from repro.service.fleet import FleetCampaign, FleetConfig
from repro.service.service import UpdateService
from repro.simulation.campaign import CampaignConfig
from repro.simulation.collector import CollectionConfig

from benchmarks._harness import record

SEEDS = tuple(range(1, 11))
ENVIRONMENTS = ("office", "hall", "library")
DAY = 45.0
BUDGET_TOLERANCE = 1e-12
ACCURACY_GATE_DB = 0.05


def fleet_inputs(seed):
    """``(requests, truths)`` of one seeded three-environment fleet at ``DAY``."""
    specs = {
        f"{env}-{index:03d}": environment_by_name(env)
        for index, env in enumerate(ENVIRONMENTS)
    }
    campaign = FleetCampaign(
        specs,
        FleetConfig(
            campaign=CampaignConfig(
                timestamps_days=(0.0, DAY),
                collection=CollectionConfig(
                    survey_samples=3, reference_samples=2, online_samples=1
                ),
                seed=1000 * seed,
            )
        ),
    )
    requests = campaign.build_requests(DAY)
    truths = [campaign.campaign(site).ground_truth(DAY) for site in campaign.sites]
    return requests, truths


def at_budget(request):
    """``request`` with its solver forced to run its whole sweep budget."""
    solver = replace(request.config.solver, tolerance=BUDGET_TOLERANCE)
    return replace(request, config=replace(request.config, solver=solver))


def timed_refresh(requests):
    start = time.perf_counter()
    reports = UpdateService().update_fleet(requests)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def outcomes():
    """Per site: ``(name, default report, budget report, truth)``; plus the
    summed pass times of both configurations."""
    sites = []
    seconds = {"default": 0.0, "budget": 0.0}
    for seed in SEEDS:
        requests, truths = fleet_inputs(seed)
        default, seconds_default = timed_refresh(requests)
        budget, seconds_budget = timed_refresh([at_budget(r) for r in requests])
        seconds["default"] += seconds_default
        seconds["budget"] += seconds_budget
        for request, a, b, truth in zip(requests, default, budget, truths):
            sites.append((f"s{seed}_{request.site}", a, b, truth))
    return sites, seconds


def test_default_stop_within_gate_of_the_budget(outcomes):
    sites, seconds = outcomes
    rows = {
        "sites": len(sites),
        "default_pass_seconds": round(seconds["default"], 4),
        "budget_pass_seconds": round(seconds["budget"], 4),
    }
    gaps = {}
    for name, default, budget, truth in sites:
        error = default.matrix.reconstruction_error_db(truth)
        budget_error = budget.matrix.reconstruction_error_db(truth)
        gaps[name] = error - budget_error
        rows.update(
            {
                f"{name}_error_db": round(error, 5),
                f"{name}_budget_error_db": round(budget_error, 5),
                f"{name}_sweeps": default.sweeps,
                f"{name}_budget_sweeps": budget.sweeps,
                f"{name}_stop_reason": default.stop_reason,
            }
        )
    rows["mean_sweeps"] = round(float(np.mean([s[1].sweeps for s in sites])), 2)
    rows["max_gap_db"] = round(max(gaps.values()), 5)
    budget_stops = sum(s[1].stop_reason == "budget" for s in sites)
    rows["budget_stop_frac"] = round(budget_stops / len(sites), 4)

    print()
    for key, value in rows.items():
        print(f"BENCH_sweep_budget_{key}: {value}")

    record("sweep_budget", rows)

    assert all(budget.sweeps == 40 for _, _, budget, _ in sites)
    worse = {name: gap for name, gap in gaps.items() if gap > ACCURACY_GATE_DB}
    assert not worse, f"sites over the +{ACCURACY_GATE_DB} dB gate: {worse}"
    assert rows["budget_stop_frac"] < 0.1, "the default stop rarely fires"
