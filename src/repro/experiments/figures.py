"""One experiment function per figure of the paper's evaluation.

Every function takes an :class:`~repro.experiments.config.ExperimentConfig`
(plus, where useful, a pre-built :class:`CampaignCache`) and returns a plain
dictionary with the measured series/rows and, where the paper states concrete
numbers, the corresponding ``paper_*`` entries for side-by-side comparison in
EXPERIMENTS.md and the benchmark output.

The functions are deliberately deterministic given the configuration seed so
that repeated benchmark runs produce identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.analysis import (
    als_values,
    difference_stability,
    low_rank_report,
    nlc_values,
    singular_value_profile,
)
from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.experiments.config import ExperimentConfig
from repro.fingerprint.matrix import FingerprintMatrix
from repro.localization.knn import KNNLocalizer
from repro.localization.omp import OMPLocalizer
from repro.localization.rass import RASSLocalizer
from repro.service.fleet import FleetCampaign, FleetConfig
from repro.simulation.campaign import SurveyCampaign
from repro.simulation.labor import LaborCostModel

__all__ = [
    "CampaignCache",
    "fig01_short_term_variation",
    "fig02_long_term_shift",
    "fig05_low_rank",
    "fig06_difference_stability",
    "fig08_nlc_cdf",
    "fig09_als_cdf",
    "fig14_reference_count_cdf",
    "fig15_reference_count_over_time",
    "fig16_constraint_ablation",
    "fig17_partial_data",
    "fig18_reconstruction_cdf",
    "fig19_environments",
    "fig20_labor_cost",
    "fig21_localization_cdf",
    "fig22_localization_environments",
    "fig23_rass_cdf",
    "fig24_rass_over_time",
    "fleet_refresh",
    "labor_cost_savings",
]


@dataclass
class CampaignCache:
    """Caches survey campaigns so several experiments can share one substrate.

    Building the ground-truth database is the expensive part of every
    experiment (a full survey per time stamp); sharing it across figures
    keeps the benchmark suite tractable.
    """

    config: ExperimentConfig
    _campaigns: Dict[str, SurveyCampaign] = field(default_factory=dict)

    def campaign(self, environment: str = "office") -> SurveyCampaign:
        """Return (building if necessary) the campaign for an environment."""
        if environment not in self._campaigns:
            specs = self.config.environments()
            if environment not in specs:
                raise ValueError(
                    f"unknown environment {environment!r}; expected one of {sorted(specs)}"
                )
            self._campaigns[environment] = SurveyCampaign(
                specs[environment], self.config.campaign_config()
            )
        return self._campaigns[environment]


def _cache(config: ExperimentConfig, cache: Optional[CampaignCache]) -> CampaignCache:
    return cache if cache is not None else CampaignCache(config)


def _fixed_test_set(campaign: SurveyCampaign, trials: int) -> np.ndarray:
    rng = np.random.default_rng(campaign.config.seed + 1)
    n = campaign.deployment.location_count
    return rng.choice(n, size=min(trials, n), replace=False)


def _localization_errors(
    campaign: SurveyCampaign,
    matrix: FingerprintMatrix,
    test_indices: np.ndarray,
    measurements: np.ndarray,
    localizer: str = "omp",
) -> np.ndarray:
    """Per-trial localization errors with pre-drawn online measurements."""
    locations = campaign.deployment.location_array()
    if localizer == "omp":
        model = OMPLocalizer(matrix, locations)
    elif localizer == "knn":
        model = KNNLocalizer(matrix, locations)
    elif localizer == "rass":
        model = RASSLocalizer().fit(matrix, locations)
    else:
        raise ValueError(f"unknown localizer {localizer!r}")
    errors = []
    for row, true_index in zip(measurements, test_indices):
        estimate = model.localize_point(row)
        truth = locations[int(true_index)]
        errors.append(float(np.linalg.norm(estimate - truth)))
    return np.asarray(errors)


# --------------------------------------------------------------------------
# Motivation figures (Section I / II)
# --------------------------------------------------------------------------

def fig01_short_term_variation(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 1 — RSS at a fixed location varies by several dB over 100 s."""
    campaign = _cache(config, cache).campaign("office")
    channel = campaign.deployment.channel
    location = campaign.deployment.location_point(3)
    series = channel.rss_time_series(
        link_index=0, duration_s=100.0, sample_interval_s=0.5, target_location=location
    )
    return {
        "series_dbm": series,
        "span_db": float(series.max() - series.min()),
        "paper_span_db": 5.0,
    }


def fig02_long_term_shift(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 2 — average RSS shifts by ~2.5 dB after 5 days, ~6 dB after 45 days."""
    campaign = _cache(config, cache).campaign("office")
    channel = campaign.deployment.channel
    location = campaign.deployment.location_point(10)
    shifts = {}
    base = np.mean(channel.mean_rss_field([location], 0.0)[:, 0])
    for days in (5.0, 45.0):
        later = np.mean(channel.mean_rss_field([location], days)[:, 0])
        shifts[days] = float(abs(later - base))
    return {
        "shift_5_days_db": shifts[5.0],
        "shift_45_days_db": shifts[45.0],
        "paper_shift_5_days_db": 2.5,
        "paper_shift_45_days_db": 6.0,
    }


def fig05_low_rank(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 5 — normalised singular values of the six fingerprint matrices."""
    campaign = _cache(config, cache).campaign("office")
    database = campaign.database
    profiles = {}
    reports = {}
    for days in database.timestamps:
        matrix = database.get(days)
        profiles[days] = singular_value_profile(matrix.values)
        reports[days] = low_rank_report(matrix.values)
    return {
        "singular_value_profiles": profiles,
        "approximately_low_rank": {
            days: report.approximately_low_rank for days, report in reports.items()
        },
        "leading_energy_fraction": {
            days: report.leading_energy_fraction for days, report in reports.items()
        },
        "paper_rank": campaign.deployment.link_count,
    }


def fig06_difference_stability(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 6 — RSS differences are more stable than raw RSS over 100 s."""
    campaign = _cache(config, cache).campaign("office")
    channel = campaign.deployment.channel
    deployment = campaign.deployment
    location = deployment.location_point(2)
    neighbour = deployment.location_point(3)

    duration, interval = 100.0, 0.5
    rss = channel.rss_time_series(0, duration, interval, target_location=location)
    rss_neighbour = channel.rss_time_series(0, duration, interval, target_location=neighbour)
    # Same relative position on the adjacent link (one stripe width away).
    adjacent_index = 2 + deployment.locations_per_link
    rss_adjacent = channel.rss_time_series(
        1, duration, interval, target_location=deployment.location_point(adjacent_index)
    )
    stats = difference_stability(rss, rss - rss_neighbour, rss - rss_adjacent)
    return {
        **stats,
        "paper_observation": "difference variations are much smaller than RSS variations",
        "differences_more_stable": bool(
            stats["neighbour_stability_ratio"] < 1.0
            and stats["adjacent_stability_ratio"] < 1.0
        ),
    }


def fig08_nlc_cdf(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 8 — CDF of the neighbouring-location continuity statistic."""
    campaign = _cache(config, cache).campaign("office")
    database = campaign.database
    fraction_below = {}
    values = {}
    for days in database.timestamps:
        nlc = nlc_values(database.get(days).largely_decrease_matrix())
        values[days] = nlc
        fraction_below[days] = float(np.mean(nlc < 0.2))
    return {
        "nlc_values": values,
        "fraction_below_0_2": fraction_below,
        "paper_fraction_below_0_2": 0.9,
    }


def fig09_als_cdf(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 9 — CDF of the adjacent-link similarity statistic."""
    campaign = _cache(config, cache).campaign("office")
    database = campaign.database
    fraction_below = {}
    values = {}
    for days in database.timestamps:
        als = als_values(database.get(days).largely_decrease_matrix())
        values[days] = als
        fraction_below[days] = float(np.mean(als < 0.4))
    return {
        "als_values": values,
        "fraction_below_0_4": fraction_below,
        "paper_fraction_below_0_4": 0.8,
    }


# --------------------------------------------------------------------------
# Benchmark verifications (Section VI-B)
# --------------------------------------------------------------------------

def _reference_variants(campaign: SurveyCampaign) -> Dict[str, Sequence[int]]:
    """The four reference-location sets of the Fig. 14/15 experiment."""
    updater = campaign.make_updater()
    mic_indices = list(updater.reference_indices)
    rng = np.random.default_rng(campaign.config.seed + 11)
    n = campaign.deployment.location_count
    remaining = [j for j in range(n) if j not in mic_indices]
    extra = int(rng.choice(remaining))
    random_11 = list(rng.choice(n, size=min(11, n), replace=False))
    return {
        "7 reference locations": mic_indices[:-1],
        "8 reference locations (iUpdater)": mic_indices,
        "(8 reference + 1 random) locations": mic_indices + [extra],
        "11 random locations": random_11,
    }


def _reconstruction_with_references(
    campaign: SurveyCampaign,
    reference_indices: Sequence[int],
    elapsed_days: float,
) -> FingerprintMatrix:
    updater = campaign.make_updater()
    result = campaign.run_update(
        elapsed_days, updater=updater, reference_indices=list(reference_indices)
    )
    return result.matrix


def fig14_reference_count_cdf(
    config: ExperimentConfig,
    cache: Optional[CampaignCache] = None,
    elapsed_days: float = 45.0,
) -> dict:
    """Fig. 14 — reconstruction-error CDFs for different reference sets (45 days)."""
    campaign = _cache(config, cache).campaign("office")
    ground_truth = campaign.ground_truth(elapsed_days)
    results = {}
    medians = {}
    for label, indices in _reference_variants(campaign).items():
        estimate = _reconstruction_with_references(campaign, indices, elapsed_days)
        errors = estimate.per_column_errors_db(ground_truth)
        results[label] = errors
        medians[label] = float(np.median(errors))
    return {
        "per_column_errors_db": results,
        "median_errors_db": medians,
        "paper_expectation": (
            "dropping to 7 reference locations raises the median error by ~27 %; "
            "11 random locations raise it by ~47 %; adding a 9th location changes little"
        ),
    }


def fig15_reference_count_over_time(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 15 — average reconstruction errors for each reference set over time."""
    campaign = _cache(config, cache).campaign("office")
    variants = _reference_variants(campaign)
    series: Dict[str, Dict[float, float]] = {label: {} for label in variants}
    for days in config.later_timestamps:
        ground_truth = campaign.ground_truth(days)
        for label, indices in variants.items():
            estimate = _reconstruction_with_references(campaign, indices, days)
            series[label][days] = estimate.reconstruction_error_db(ground_truth)
    return {"mean_errors_db": series}


def fig16_constraint_ablation(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 16 — RSVD vs RSVD+Constraint1 vs RSVD+Constraint1+Constraint2."""
    campaign = _cache(config, cache).campaign("office")
    variants = {
        "RSVD": UpdaterConfig(
            solver=SelfAugmentedConfig(
                use_reference_constraint=False, use_structure_constraint=False
            )
        ),
        "RSVD + Constraint 1": UpdaterConfig(
            solver=SelfAugmentedConfig(use_structure_constraint=False)
        ),
        "RSVD + Constraint 1 + Constraint 2": UpdaterConfig(),
    }
    series: Dict[str, Dict[float, float]] = {label: {} for label in variants}
    for days in config.later_timestamps:
        ground_truth = campaign.ground_truth(days)
        for label, updater_config in variants.items():
            updater = campaign.make_updater(updater_config)
            result = campaign.run_update(days, updater=updater)
            series[label][days] = result.matrix.reconstruction_error_db(ground_truth)
    return {
        "mean_errors_db": series,
        "paper_expectation": (
            "basic RSVD has the largest error; Constraint 1 reduces it sharply; "
            "Constraint 2 reduces it further"
        ),
    }


def fig17_partial_data(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 17 — 50 % / 80 % surveyed data + Constraint 2 vs 100 % measured."""
    campaign = _cache(config, cache).campaign("office")
    test_indices = _fixed_test_set(campaign, config.localization_trials)
    results: Dict[str, Dict[float, float]] = {
        "80% data + Constraint 2": {},
        "50% data + Constraint 2": {},
        "Measured (ground truth)": {},
    }
    rng = np.random.default_rng(config.seed + 23)
    for days in config.later_timestamps:
        ground_truth = campaign.ground_truth(days)
        measurements = campaign.online_measurements(test_indices, days)
        errors_gt = _localization_errors(
            campaign, ground_truth, test_indices, measurements
        )
        results["Measured (ground truth)"][days] = float(np.mean(errors_gt))
        for fraction, label in ((0.8, "80% data + Constraint 2"), (0.5, "50% data + Constraint 2")):
            observed, mask = campaign.collector.collect_partial_survey(
                fraction, elapsed_days=days, rng=rng
            )
            updater = campaign.make_updater()
            mic, lrr = updater.acquire_correlation()
            reference = campaign.collector.collect_reference(mic.indices, elapsed_days=days)
            result = updater.update(
                no_decrease_matrix=observed,
                no_decrease_mask=mask,
                reference_matrix=reference,
                reference_indices=mic.indices,
            )
            errors = _localization_errors(
                campaign, result.matrix, test_indices, measurements
            )
            results[label][days] = float(np.mean(errors))
    return {
        "mean_localization_errors_m": results,
        "paper_expectation": (
            "80 % measured + Constraint 2 performs on par with (or better than) the "
            "100 % measured matrix; 50 % + Constraint 2 is comparable to 100 %"
        ),
    }


# --------------------------------------------------------------------------
# Reconstruction efficiency (Section VI-C)
# --------------------------------------------------------------------------

def fig18_reconstruction_cdf(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 18 — reconstruction-error CDFs at the five later time stamps."""
    campaign = _cache(config, cache).campaign("office")
    per_stamp = {}
    medians = {}
    for days in config.later_timestamps:
        ground_truth = campaign.ground_truth(days)
        result = campaign.run_update(days)
        errors = result.matrix.per_column_errors_db(ground_truth)
        per_stamp[days] = errors
        medians[days] = float(np.median(errors))
    return {
        "per_column_errors_db": per_stamp,
        "median_errors_db": medians,
        "paper_median_errors_db": {3.0: 2.7, 5.0: 2.5, 15.0: 3.3, 45.0: 3.6, 90.0: 4.1},
    }


def fig19_environments(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 19 — average reconstruction errors in hall / office / library."""
    store = _cache(config, cache)
    series: Dict[str, Dict[float, float]] = {}
    for name in ("hall", "office", "library"):
        campaign = store.campaign(name)
        series[name] = {}
        for days in config.later_timestamps:
            ground_truth = campaign.ground_truth(days)
            result = campaign.run_update(days)
            series[name][days] = result.matrix.reconstruction_error_db(ground_truth)
    return {
        "mean_errors_db": series,
        "paper_expectation": (
            "errors are lowest in the hall (low multipath) and highest in the "
            "library (rich multipath)"
        ),
    }


def fig20_labor_cost(config: ExperimentConfig, cache: Optional[CampaignCache] = None) -> dict:
    """Fig. 20 — update time cost as the deployment area grows."""
    model = LaborCostModel()
    curves = model.cost_versus_area(
        base_edge_locations=94,
        base_reference_locations=8,
        scale_factors=list(range(1, 11)),
    )
    return {
        **curves,
        "paper_expectation": "iUpdater's cost grows far more slowly than a full re-survey",
    }


def labor_cost_savings(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Section VI-C text — 97.9 % / 92.1 % labor-cost savings in the office."""
    model = LaborCostModel()
    traditional_50 = model.traditional_cost(94, samples=50)
    traditional_5 = model.traditional_cost(94, samples=5)
    iupdater = model.iupdater_cost(8, samples=5)
    saving_50 = 1.0 - iupdater.seconds / traditional_50.seconds
    saving_5 = 1.0 - iupdater.seconds / traditional_5.seconds
    return {
        "iupdater_seconds": iupdater.seconds,
        "traditional_50_samples_minutes": traditional_50.minutes,
        "traditional_5_samples_minutes": traditional_5.minutes,
        "saving_vs_50_samples": float(saving_50),
        "saving_vs_5_samples": float(saving_5),
        "paper_iupdater_seconds": 55.0,
        "paper_traditional_minutes": 46.9,
        "paper_saving_vs_50_samples": 0.979,
        "paper_saving_vs_5_samples": 0.921,
    }


def fleet_refresh(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fleet service — refresh all three environments per stamp in one stacked solve."""
    fleet = FleetCampaign(
        specs=config.environments(),
        config=FleetConfig(campaign=config.campaign_config()),
    )
    refreshes = fleet.refresh_all()
    updated: Dict[str, Dict[float, float]] = {site: {} for site in fleet.sites}
    stale: Dict[str, Dict[float, float]] = {site: {} for site in fleet.sites}
    sweeps: Dict[str, float] = {}
    for days, report in refreshes.items():
        for site, error in report.errors_db.items():
            updated[site][days] = error
        for site, error in report.stale_errors_db.items():
            stale[site][days] = error
        sweeps[f"day_{days:g}"] = float(report.stacked_sweeps)
    return {
        "sites": len(fleet.sites),
        "updated_error_db": updated,
        "stale_error_db": stale,
        "stacked_sweeps": sweeps,
    }


# --------------------------------------------------------------------------
# Localization performance (Section VI-D)
# --------------------------------------------------------------------------

def fig21_localization_cdf(
    config: ExperimentConfig,
    cache: Optional[CampaignCache] = None,
    elapsed_days: float = 45.0,
) -> dict:
    """Fig. 21 — localization-error CDFs (ground truth / iUpdater / stale DB)."""
    campaign = _cache(config, cache).campaign("office")
    ground_truth = campaign.ground_truth(elapsed_days)
    stale = campaign.database.original
    reconstructed = campaign.run_update(elapsed_days).matrix
    test_indices = _fixed_test_set(campaign, config.localization_trials)
    measurements = campaign.online_measurements(test_indices, elapsed_days)
    errors = {
        "Groundtruth": _localization_errors(campaign, ground_truth, test_indices, measurements),
        "iUpdater": _localization_errors(campaign, reconstructed, test_indices, measurements),
        "OMP w/o rec.": _localization_errors(campaign, stale, test_indices, measurements),
    }
    medians = {label: float(np.median(values)) for label, values in errors.items()}
    improvement = (
        (np.mean(errors["OMP w/o rec."]) - np.mean(errors["iUpdater"]))
        / np.mean(errors["OMP w/o rec."])
    )
    return {
        "errors_m": errors,
        "median_errors_m": medians,
        "improvement_over_stale": float(improvement),
        "paper_median_errors_m": {"Groundtruth": 0.78, "iUpdater": 1.1},
        "paper_improvement_over_stale": 0.54,
    }


def fig22_localization_environments(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 22 — average localization errors in the three environments over time."""
    store = _cache(config, cache)
    series: Dict[str, Dict[str, Dict[float, float]]] = {}
    improvements: Dict[str, float] = {}
    for name in ("hall", "office", "library"):
        campaign = store.campaign(name)
        test_indices = _fixed_test_set(campaign, config.localization_trials)
        series[name] = {"Groundtruth": {}, "iUpdater": {}, "OMP w/o rec.": {}}
        stale_means, updated_means = [], []
        for days in config.later_timestamps:
            ground_truth = campaign.ground_truth(days)
            reconstructed = campaign.run_update(days).matrix
            stale = campaign.database.original
            measurements = campaign.online_measurements(test_indices, days)
            for label, matrix in (
                ("Groundtruth", ground_truth),
                ("iUpdater", reconstructed),
                ("OMP w/o rec.", stale),
            ):
                errors = _localization_errors(campaign, matrix, test_indices, measurements)
                series[name][label][days] = float(np.mean(errors))
            stale_means.append(series[name]["OMP w/o rec."][days])
            updated_means.append(series[name]["iUpdater"][days])
        improvements[name] = float(
            (np.mean(stale_means) - np.mean(updated_means)) / np.mean(stale_means)
        )
    return {
        "mean_errors_m": series,
        "improvement_over_stale": improvements,
        "paper_improvements": {"hall": 0.667, "office": 0.574, "library": 0.551},
    }


def fig23_rass_cdf(
    config: ExperimentConfig,
    cache: Optional[CampaignCache] = None,
    elapsed_days: float = 45.0,
) -> dict:
    """Fig. 23 — comparison with RASS (w/ and w/o reconstruction) at 45 days."""
    campaign = _cache(config, cache).campaign("office")
    reconstructed = campaign.run_update(elapsed_days).matrix
    stale = campaign.database.original
    test_indices = _fixed_test_set(campaign, config.localization_trials)
    measurements = campaign.online_measurements(test_indices, elapsed_days)
    errors = {
        "iUpdater": _localization_errors(
            campaign, reconstructed, test_indices, measurements, localizer="omp"
        ),
        "RASS w/ rec.": _localization_errors(
            campaign, reconstructed, test_indices, measurements, localizer="rass"
        ),
        "RASS w/o rec.": _localization_errors(
            campaign, stale, test_indices, measurements, localizer="rass"
        ),
    }
    medians = {label: float(np.median(values)) for label, values in errors.items()}
    return {
        "errors_m": errors,
        "median_errors_m": medians,
        "paper_median_errors_m": {
            "iUpdater": 1.1,
            "RASS w/ rec.": 1.6,
            "RASS w/o rec.": 3.3,
        },
    }


def fig24_rass_over_time(
    config: ExperimentConfig, cache: Optional[CampaignCache] = None
) -> dict:
    """Fig. 24 — average errors of iUpdater vs RASS at the five time stamps."""
    campaign = _cache(config, cache).campaign("office")
    test_indices = _fixed_test_set(campaign, config.localization_trials)
    series: Dict[str, Dict[float, float]] = {
        "iUpdater": {},
        "RASS w/ rec.": {},
        "RASS w/o rec.": {},
    }
    stale = campaign.database.original
    for days in config.later_timestamps:
        reconstructed = campaign.run_update(days).matrix
        measurements = campaign.online_measurements(test_indices, days)
        series["iUpdater"][days] = float(
            np.mean(
                _localization_errors(
                    campaign, reconstructed, test_indices, measurements, localizer="omp"
                )
            )
        )
        series["RASS w/ rec."][days] = float(
            np.mean(
                _localization_errors(
                    campaign, reconstructed, test_indices, measurements, localizer="rass"
                )
            )
        )
        series["RASS w/o rec."][days] = float(
            np.mean(
                _localization_errors(
                    campaign, stale, test_indices, measurements, localizer="rass"
                )
            )
        )
    return {
        "mean_errors_m": series,
        "paper_expectation": "iUpdater achieves the lowest error at every time stamp",
    }
