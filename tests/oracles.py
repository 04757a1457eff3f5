"""Reference loops the production paths are pinned against (test oracles).

The production solver stacks every ridge system of an ALS sweep into one
batched LAPACK call, and the matchers answer a whole query batch with a few
GEMMs.  This module keeps the paper-faithful loops those paths replaced —
Algorithm 1's ``MyInverse`` one column (and one row) at a time, the
localizers one query at a time — so tests and benchmarks can compare the
fast paths against them.  Nothing in ``src/`` imports it; tests and
benchmarks import it as ``tests.oracles`` (``pytest.ini`` puts the
repository root on the path).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.rsvd import RSVDConfig, RSVDResult
from repro.core.rsvd import _objective as _rsvd_objective
from repro.core.self_augmented import SelfAugmentedConfig, SelfAugmentedResult, SweepState
from repro.query.matchers import BoundMatcher
from repro.service.prepare import prepare_request
from repro.service.types import UpdateReport, UpdateRequest
from repro.utils.linalg import safe_solve
from repro.utils.random import RngLike, make_rng
from repro.utils.validation import check_2d, check_matching_shapes


# ------------------------------------------------------------------ basic RSVD
def rsvd_complete_looped(
    observed: np.ndarray,
    mask: np.ndarray,
    config: Optional[RSVDConfig] = None,
    rng: RngLike = None,
) -> RSVDResult:
    """:func:`repro.core.rsvd.rsvd_complete` with one ridge solve per column
    of ``R`` and per row of ``L``."""
    observed = check_2d(observed, "observed")
    mask = check_2d(mask, "mask")
    check_matching_shapes(observed, mask, "observed", "mask")
    cfg = config or RSVDConfig()
    rng = make_rng(rng)

    m, n = observed.shape
    rank = min(cfg.rank if cfg.rank is not None else m, m, n)
    left = cfg.init_scale * rng.standard_normal((m, rank))
    right = np.zeros((n, rank))
    lam = cfg.regularization
    identity = np.eye(rank)

    previous_objective = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        # Update each column of R^T given L: ridge LS on the observed rows.
        for j in range(n):
            lw = left * mask[:, j][:, None]
            right[j, :] = safe_solve(lam * identity + lw.T @ left, lw.T @ observed[:, j])
        # Update each row of L given R: symmetric problem on the transpose.
        for i in range(m):
            rw = right * mask[i, :][:, None]
            left[i, :] = safe_solve(lam * identity + rw.T @ right, rw.T @ observed[i, :])

        objective = _rsvd_objective(left, right, observed, mask, lam)
        if previous_objective < np.inf:
            change = abs(previous_objective - objective) / max(previous_objective, 1e-12)
            if change < cfg.tolerance:
                converged = True
                previous_objective = objective
                break
        previous_objective = objective

    return RSVDResult(
        estimate=left @ right.T,
        left=left,
        right=right,
        objective=float(previous_objective),
        iterations=iterations,
        converged=converged,
    )


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
            ii, jj = int(state.stripe_map[j, 0]), int(state.stripe_map[j, 1])
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
