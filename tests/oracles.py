"""Reference loops the production paths are pinned against (test oracles).

The production solver stacks every ridge system of an ALS sweep into one
batched LAPACK call, the matchers answer a whole query batch with a few
GEMMs, and the simulated radio evaluates a whole site as one array field.
This module keeps the paper-faithful loops those paths replaced —
Algorithm 1's ``MyInverse`` one column (and one row) at a time, the
localizers one query at a time, the result cache one row at a time, the
radio one (sample, link, location) at a time through scalar ``math`` — so
tests and benchmarks can compare the fast paths against them.  Nothing in
``src/`` imports it; tests and benchmarks import it as ``tests.oracles``
(``pytest.ini`` puts the repository root on the path).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.self_augmented import SelfAugmentedConfig, SelfAugmentedResult, SweepState
from repro.environments.base import Deployment
from repro.fingerprint.masks import DecreaseClassification, ElementCategory
from repro.fingerprint.matrix import FingerprintMatrix
from repro.query.engine import QueryEngine
from repro.query.matchers import BoundMatcher
from repro.query.types import QueryAnswer
from repro.rf.channel import LinkChannel
from repro.rf.geometry import Link, Point
from repro.rf.multipath import MultipathField
from repro.rf.target import ObstructionState, TargetConfig
from repro.rf.variation import LongTermDrift, ShortTermNoise
from repro.service.prepare import prepare_request
from repro.service.types import UpdateReport, UpdateRequest
from repro.utils.linalg import safe_solve
from repro.utils.random import RngLike, derive_rng
from repro.utils.validation import check_2d


# ---------------------------------------------------------- self-augmented RSVD
def solve_state_looped(state: SweepState) -> SelfAugmentedResult:
    """Drive a prepared :class:`SweepState` with per-column / per-row solves.

    Shares the state's sweep lifecycle (structural targets, convergence
    bookkeeping, result packaging) with
    :func:`repro.core.self_augmented.solve_state` and re-derives only the
    inner normal-equation solves, one system at a time.
    """
    observed, mask = state.observed, state.mask
    prediction = state.prediction
    use_reference = state.use_reference
    g, h = state.g, state.h
    lam, identity = state.lam, state.identity
    w1, w2 = state.w1, state.w2
    left, right = state.left, state.right

    while state.active:
        state.begin_sweep()
        structure_active = state._structure_active
        estimate_stripe = state._estimate_stripe

        for j in range(state.n):
            ii, jj = divmod(j, state.locations_per_link)  # (link, stripe offset)
            lw = left * mask[:, j][:, None]
            lhs = lam * identity + lw.T @ left
            rhs = lw.T @ observed[:, j]
            if use_reference:
                lhs = lhs + w1 * (left.T @ left)
                rhs = rhs + w1 * (left.T @ np.asarray(prediction)[:, j])
            if structure_active:
                l_row = left[ii, :]
                # Column jj of G weighs the element's part in the continuity
                # penalty; column ii of H its part in the similarity penalty.
                g_weight = float(np.sum(np.asarray(g)[:, jj] ** 2))
                h_weight = float(np.sum(np.asarray(h)[:, ii] ** 2))
                lhs = lhs + w2 * (g_weight + h_weight) * np.outer(l_row, l_row)
                rhs = rhs + w2 * (
                    g_weight * neighbour_average(estimate_stripe, ii, jj)
                    + h_weight * adjacent_link_value(estimate_stripe, ii, jj)
                ) * l_row
            right[j, :] = safe_solve(lhs, rhs)

        for i in range(state.m):
            rw = right * mask[i, :][:, None]
            lhs = lam * identity + rw.T @ right
            rhs = rw.T @ observed[i, :]
            if use_reference:
                lhs = lhs + w1 * (right.T @ right)
                rhs = rhs + w1 * (right.T @ np.asarray(prediction)[i, :])
            left[i, :] = safe_solve(lhs, rhs)

        state.finish_sweep()

    return state.finalize()


def self_augmented_rsvd_looped(
    observed: np.ndarray,
    mask: np.ndarray,
    locations_per_link: int,
    prediction: Optional[np.ndarray] = None,
    config: Optional[SelfAugmentedConfig] = None,
    rng: RngLike = None,
) -> SelfAugmentedResult:
    """:func:`repro.core.self_augmented.self_augmented_rsvd` on the
    per-column reference loop."""
    return solve_state_looped(
        SweepState(observed, mask, locations_per_link, prediction, config, rng)
    )


def update_looped(request: UpdateRequest) -> UpdateReport:
    """One site through the service's prepare stage and the reference loop."""
    site = prepare_request(request)
    return site.report(solve_state_looped(site.state))


# ------------------------------------------------------------- stripe helpers
def neighbour_average(stripes: np.ndarray, link: int, offset: int) -> float:
    """Average of the stripe neighbours of element (link, offset)."""
    width = stripes.shape[1]
    neighbours = []
    if offset > 0:
        neighbours.append(stripes[link, offset - 1])
    if offset < width - 1:
        neighbours.append(stripes[link, offset + 1])
    if not neighbours:
        return float(stripes[link, offset])
    return float(np.mean(neighbours))


def adjacent_link_value(stripes: np.ndarray, link: int, offset: int) -> float:
    """Value of the adjacent link at the same relative stripe position."""
    m = stripes.shape[0]
    if link > 0:
        return float(stripes[link - 1, offset])
    if link + 1 < m:
        return float(stripes[link + 1, offset])
    return float(stripes[link, offset])


def extract_stripes_looped(matrix: np.ndarray, locations_per_link: int) -> np.ndarray:
    """Largely-decrease matrix of an estimate, one link at a time."""
    m = matrix.shape[0]
    xd = np.zeros((m, locations_per_link))
    for i in range(m):
        xd[i, :] = matrix[i, i * locations_per_link : (i + 1) * locations_per_link]
    return xd


def smooth_stripes_looped(
    estimate: np.ndarray,
    locations_per_link: int,
    weight: float,
    outlier_sigmas: float = 2.0,
) -> np.ndarray:
    """Constraint-2 outlier-removal pass, one stripe element at a time."""
    m = estimate.shape[0]
    result = estimate.copy()
    stripes = extract_stripes_looped(estimate, locations_per_link)
    deviations = np.zeros_like(stripes)
    targets = np.zeros_like(stripes)
    for i in range(m):
        for u in range(locations_per_link):
            neighbour = neighbour_average(stripes, i, u)
            adjacent = adjacent_link_value(stripes, i, u)
            targets[i, u] = 0.7 * neighbour + 0.3 * adjacent
            deviations[i, u] = stripes[i, u] - neighbour
    scale = float(np.std(deviations))
    if scale <= 0:
        return result
    smoothed = stripes.copy()
    outliers = np.abs(deviations) > outlier_sigmas * scale
    smoothed[outliers] = (1.0 - weight) * stripes[outliers] + weight * targets[outliers]
    for i in range(m):
        result[i, i * locations_per_link : (i + 1) * locations_per_link] = smoothed[i, :]
    return result


# ------------------------------------------------------------------- matchers
def localize_looped(
    matcher: BoundMatcher, measurements: np.ndarray
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Answer a batch row by row through the bound matcher's
    :mod:`repro.localization` object (``localize_index`` /
    ``localize_point``), the per-query path the batched matchers replaced."""
    localizer = matcher._localizer
    indices = np.array(
        [localizer.localize_index(row) for row in measurements], dtype=int
    )
    points = None
    if matcher.index.locations is not None:
        points = np.vstack([localizer.localize_point(row) for row in measurements])
    return indices, points


# --------------------------------------------------------------- result cache
def cache_key_looped(
    quantum_db: float, site: str, generation: int, matcher: str, row: np.ndarray
) -> Tuple:
    """The result-cache key of one query, quantized on its own."""
    quantized = np.round(np.asarray(row, dtype=float) / quantum_db).astype(np.int64)
    return (site, int(generation), matcher, quantized.tobytes())


def localize_cached_looped(
    engine: QueryEngine, site: str, measurements: np.ndarray
) -> QueryAnswer:
    """The cached branch of :meth:`QueryEngine.localize_batch` one row at a
    time: a key per row, a copied entry per miss and per-row assembly,
    against ``engine``'s own generation store and cache."""
    generation = engine.store.current()
    bound = generation.sites[site]
    measurements = check_2d(measurements, "measurements")
    matcher = bound.matcher
    cache = engine.cache
    keys = [
        cache_key_looped(cache.quantum_db, site, generation.ordinal, matcher.name, row)
        for row in measurements
    ]
    cached = [cache.get(key) for key in keys]
    miss_rows = [i for i, entry in enumerate(cached) if entry is None]

    count = measurements.shape[0]
    indices = np.empty(count, dtype=int)
    points = np.empty((count, 2)) if bound.index.locations is not None else None
    if miss_rows:
        miss_indices, miss_points = matcher.localize(measurements[miss_rows])
        for position, row in enumerate(miss_rows):
            point = miss_points[position].copy() if miss_points is not None else None
            cache.put(keys[row], (int(miss_indices[position]), point))
            indices[row] = miss_indices[position]
            if points is not None:
                points[row] = point
    for row, entry in enumerate(cached):
        if entry is None:
            continue
        indices[row] = entry[0]
        if points is not None:
            points[row] = entry[1]
    return QueryAnswer(
        site=site,
        matcher=matcher.name,
        generation=generation.ordinal,
        indices=indices,
        points=points,
        cache_hits=count - len(miss_rows),
    )


# -------------------------------------------------------------- scalar radio
# The simulated radio one (link, location) pair at a time, through scalar
# ``math`` and ``Point`` arithmetic: the model as it was written before the
# field-at-a-time evaluation.  The channel's own components (configs,
# scatterers, shadowing cache, drift seed, noise generator) supply the state.
def projection_scalar(location: Point, start: Point, end: Point) -> float:
    """Projection of ``location`` onto segment ``start``-``end``, clipped to [0, 1]."""
    sx, sy = start.x, start.y
    ex, ey = end.x, end.y
    px, py = location.x, location.y
    seg_dx, seg_dy = ex - sx, ey - sy
    seg_len_sq = seg_dx**2 + seg_dy**2
    if seg_len_sq == 0:
        return 0.0
    t = ((px - sx) * seg_dx + (py - sy) * seg_dy) / seg_len_sq
    return min(1.0, max(0.0, t))


def segment_distance_scalar(location: Point, start: Point, end: Point) -> float:
    """Shortest distance from ``location`` to the segment ``start``-``end``."""
    t = projection_scalar(location, start, end)
    closest = Point(start.x + t * (end.x - start.x), start.y + t * (end.y - start.y))
    return location.distance_to(closest)


def fresnel_radius_scalar(link: Link, location: Point) -> float:
    """First-Fresnel-zone radius of ``link`` at the projection of ``location``."""
    fraction = projection_scalar(location, link.transmitter, link.receiver)
    d1 = fraction * link.length
    d2 = (1.0 - fraction) * link.length
    total = d1 + d2
    if total == 0:
        return 0.0
    return math.sqrt(max(link.wavelength * d1 * d2 / total, 0.0))


def obstruction_state_scalar(
    config: TargetConfig, link: Link, location: Point
) -> ObstructionState:
    """Blocking / FFZ / outside classification of one link and location."""
    distance = segment_distance_scalar(location, link.transmitter, link.receiver)
    fresnel = max(fresnel_radius_scalar(link, location), 1e-6)
    if distance <= config.body_radius_m + 0.5 * fresnel:
        return ObstructionState.BLOCKING
    if distance <= config.body_radius_m + config.fresnel_margin * fresnel:
        return ObstructionState.FRESNEL
    return ObstructionState.OUTSIDE


def attenuation_db_scalar(config: TargetConfig, link: Link, location: Point) -> float:
    """Target attenuation (positive dB) on one link."""
    state = obstruction_state_scalar(config, link, location)
    if state is ObstructionState.OUTSIDE:
        return config.outside_epsilon_db
    fraction = projection_scalar(location, link.transmitter, link.receiver)
    end_weight = abs(2.0 * fraction - 1.0)
    peak = (
        config.midpoint_attenuation_db
        + (config.blocking_attenuation_db - config.midpoint_attenuation_db) * end_weight
    )
    asym_factor = 1.0 + config.asymmetry * (1.0 - 2.0 * fraction)
    peak *= max(asym_factor, 0.1)
    distance = segment_distance_scalar(location, link.transmitter, link.receiver)
    fresnel = max(fresnel_radius_scalar(link, location), 1e-6)
    lateral_scale = config.body_radius_m + fresnel
    if state is ObstructionState.BLOCKING:
        decay = math.exp(-((distance / lateral_scale) ** 2))
        return float(max(peak * decay, config.fresnel_attenuation_db))
    outer = config.body_radius_m + config.fresnel_margin * fresnel
    inner = config.body_radius_m + 0.5 * fresnel
    span = max(outer - inner, 1e-6)
    closeness = max(0.0, min(1.0, (outer - distance) / span))
    return float(
        max(
            config.fresnel_attenuation_db * closeness * max(asym_factor, 0.1),
            config.outside_epsilon_db,
        )
    )


def static_offset_db_scalar(field: MultipathField, link: Link) -> float:
    """Target-independent multipath ripple of one link."""
    offset = 0.0
    for scatterer in field.scatterers:
        distance = segment_distance_scalar(scatterer.position, link.transmitter, link.receiver)
        weight = np.exp(-distance / field.config.interaction_range_m)
        offset += scatterer.strength_db * weight
    return float(offset)


def target_offset_db_scalar(field: MultipathField, link: Link, location: Point) -> float:
    """Target-position-dependent multipath perturbation of one link."""
    offset = 0.0
    for scatterer in field.scatterers:
        link_distance = segment_distance_scalar(
            scatterer.position, link.transmitter, link.receiver
        )
        link_weight = np.exp(-link_distance / field.config.interaction_range_m)
        target_distance = location.distance_to(scatterer.position)
        target_weight = np.exp(-target_distance / field.config.interaction_range_m)
        offset += scatterer.strength_db * link_weight * target_weight
    return float(field.config.target_coupling_db * offset)


def _saturation(drift: LongTermDrift, elapsed_days: float) -> float:
    if elapsed_days < 0:
        raise ValueError("elapsed_days must be non-negative")
    return 1.0 - math.exp(-elapsed_days / drift.config.drift_time_constant_days)


def global_shift_db_scalar(drift: LongTermDrift, elapsed_days: float) -> float:
    """Environment-wide drift, its generator derived on every call."""
    rng = derive_rng(drift._seed, 101, int(round(elapsed_days * 1000)))
    direction = 1.0 if rng.random() < 0.5 else -1.0
    magnitude = drift.config.drift_scale_db * _saturation(drift, elapsed_days)
    modulation = 1.0 + 0.15 * float(rng.normal())
    return direction * magnitude * max(modulation, 0.5)


def link_shift_db_scalar(drift: LongTermDrift, link_index: int, elapsed_days: float) -> float:
    """Per-link drift of one link."""
    rng = derive_rng(drift._seed, 211, link_index, int(round(elapsed_days * 1000)))
    return float(
        rng.normal(0.0, drift.config.link_drift_std_db) * _saturation(drift, elapsed_days)
    )


def spatial_shift_db_scalar(drift: LongTermDrift, location: Point, elapsed_days: float) -> float:
    """Spatial drift at one location."""
    rng = derive_rng(drift._seed, 307, int(round(elapsed_days * 1000)))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    amplitude = float(
        abs(rng.normal(0.0, drift.config.spatial_drift_std_db))
        * _saturation(drift, elapsed_days)
    )
    wave_number = 2.0 * math.pi / (2.0 * drift.config.spatial_drift_length_m)
    projected = location.x * math.cos(angle) + location.y * math.sin(angle)
    return amplitude * math.cos(wave_number * projected + phase)


def total_shift_db_scalar(
    drift: LongTermDrift, link_index: int, location: Point, elapsed_days: float
) -> float:
    """Total long-term drift of one link / location pair."""
    return (
        global_shift_db_scalar(drift, elapsed_days)
        + link_shift_db_scalar(drift, link_index, elapsed_days)
        + spatial_shift_db_scalar(drift, location, elapsed_days)
    )


def mean_rss_dbm_scalar(
    channel: LinkChannel,
    link_index: int,
    target_location: Optional[Point] = None,
    elapsed_days: float = 0.0,
) -> float:
    """Noise-free mean RSS of one link (draws its shadowing at first touch)."""
    link = channel.links[link_index]
    rss = channel.path_loss.baseline_rss_dbm(link.length, link_index)
    rss += static_offset_db_scalar(channel.multipath, link)
    if target_location is not None:
        rss -= attenuation_db_scalar(channel.target_model.config, link, target_location)
        rss += target_offset_db_scalar(channel.multipath, link, target_location)
        drift_point = target_location
    else:
        drift_point = link.midpoint()
    rss += total_shift_db_scalar(channel.drift, link_index, drift_point, elapsed_days)
    return max(rss, channel.config.rss_floor_dbm)


def noise_sample_scalar(noise: ShortTermNoise) -> float:
    """Next AR(1) short-term noise sample, advancing ``noise``'s state."""
    cfg = noise.config
    innovation_std = cfg.short_term_std_db * math.sqrt(
        max(1.0 - cfg.short_term_correlation**2, 1e-9)
    )
    noise._state = cfg.short_term_correlation * noise._state + float(
        noise._rng.normal(0.0, innovation_std)
    )
    value = noise._state
    if noise._rng.random() < cfg.outlier_probability:
        value += float(noise._rng.normal(0.0, cfg.outlier_std_db))
    return value


def measure_rss_dbm_scalar(
    channel: LinkChannel,
    link_index: int,
    target_location: Optional[Point] = None,
    elapsed_days: float = 0.0,
    with_noise: bool = True,
) -> float:
    """One quantised RSS reading: the mean, then one noise draw."""
    rss = mean_rss_dbm_scalar(channel, link_index, target_location, elapsed_days)
    if with_noise:
        rss += noise_sample_scalar(channel._noise)
    rss = max(rss, channel.config.rss_floor_dbm)
    step = channel.config.rss_quantization_db
    return rss if step <= 0 else round(rss / step) * step


def measure_vector_looped(
    channel: LinkChannel,
    target_location: Optional[Point] = None,
    elapsed_days: float = 0.0,
    samples: int = 1,
    with_noise: bool = True,
) -> np.ndarray:
    """Readings averaged over ``samples``, sample by sample, link by link."""
    readings = np.zeros((samples, channel.link_count))
    for s in range(samples):
        for i in range(channel.link_count):
            readings[s, i] = measure_rss_dbm_scalar(
                channel, i, target_location, elapsed_days, with_noise
            )
    return readings.mean(axis=0)


def survey_fingerprint_looped(
    collector, elapsed_days: float = 0.0, samples: Optional[int] = None
) -> FingerprintMatrix:
    """``MeasurementCollector.survey_fingerprint``, one column at a time."""
    samples = samples or collector.config.survey_samples
    deployment = collector.deployment
    values = np.zeros((deployment.link_count, deployment.location_count))
    for j in range(deployment.location_count):
        values[:, j] = measure_vector_looped(
            deployment.channel,
            deployment.location_point(j),
            elapsed_days,
            samples,
            collector.config.with_noise,
        )
    return FingerprintMatrix(
        values=values,
        locations_per_link=deployment.locations_per_link,
        no_decrease_mask=collector.classification.no_decrease_mask,
    )


def collect_no_decrease_looped(
    collector, elapsed_days: float = 0.0, samples: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``MeasurementCollector.collect_no_decrease``, link by link."""
    samples = samples or collector.config.reference_samples
    deployment = collector.deployment
    mask = collector.classification.no_decrease_mask
    baseline = np.zeros(deployment.link_count)
    for i in range(deployment.link_count):
        readings = [
            measure_rss_dbm_scalar(
                deployment.channel, i, None, elapsed_days, collector.config.with_noise
            )
            for _ in range(samples)
        ]
        baseline[i] = float(np.mean(readings))
    observed = np.tile(baseline[:, None], (1, deployment.location_count)) * mask
    return observed, mask.copy()


def collect_reference_looped(
    collector,
    reference_indices: Sequence[int],
    elapsed_days: float = 0.0,
    samples: Optional[int] = None,
) -> np.ndarray:
    """``MeasurementCollector.collect_reference``, one column at a time."""
    samples = samples or collector.config.reference_samples
    deployment = collector.deployment
    columns = [
        measure_vector_looped(
            deployment.channel,
            deployment.location_point(int(j)),
            elapsed_days,
            samples,
            collector.config.with_noise,
        )
        for j in reference_indices
    ]
    return np.stack(columns, axis=1)


def classify_elements_looped(
    deployment: Deployment, use_geometry: bool = True
) -> DecreaseClassification:
    """``classify_elements``, one (link, location) pair at a time."""
    m, n = deployment.link_count, deployment.location_count
    categories = np.zeros((m, n), dtype=int)
    config = deployment.channel.target_model.config
    for j in range(n):
        location = deployment.location_point(j)
        own_link = deployment.link_of_location(j)
        for i in range(m):
            if use_geometry:
                state = obstruction_state_scalar(config, deployment.links[i], location)
                if state is ObstructionState.BLOCKING:
                    categories[i, j] = ElementCategory.LARGE.value
                elif state is ObstructionState.FRESNEL:
                    categories[i, j] = ElementCategory.SMALL.value
            elif i == own_link:
                categories[i, j] = ElementCategory.LARGE.value
            elif abs(i - own_link) == 1:
                categories[i, j] = ElementCategory.SMALL.value
        categories[own_link, j] = ElementCategory.LARGE.value
    return DecreaseClassification(categories=categories)
