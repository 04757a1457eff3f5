"""Basic Regularized SVD (RSVD) matrix completion (Section IV-A).

The fingerprint matrix is approximately low rank, so iUpdater recovers it
from the observable (no-decrease) entries by solving the regularised
factorisation problem of Eq. (11)::

    min_{L, R}  lambda * (||L||_F^2 + ||R||_F^2) + ||B o (L R^T) - X_B||_F^2

where ``B`` is the 0/1 index matrix of observable entries, ``X_B = B o X``
holds the observable values and ``X_hat = L R^T`` is the reconstruction.
The solver alternates exact per-column / per-row ridge least-squares updates
(the ``MyInverse`` routine of Algorithm 1 restricted to the data-fit terms).

This module implements only the *basic* RSVD used as the ablation baseline in
Fig. 16; the full self-augmented method with Constraints 1 and 2 lives in
:mod:`repro.core.self_augmented`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.linalg import batched_safe_solve, masked_gram_stack
from repro.utils.random import RngLike, make_rng
from repro.utils.validation import check_2d, check_binary_mask, check_matching_shapes

__all__ = [
    "RSVDConfig",
    "RSVDResult",
    "rsvd_complete",
]

@dataclass(frozen=True)
class RSVDConfig:
    """Configuration of the basic RSVD solver.

    Attributes
    ----------
    rank:
        Factorisation rank ``r``.  ``None`` defaults to the number of rows
        (the paper uses ``r = M`` because the matrix is approximately, not
        exactly, low rank).
    regularization:
        The Lagrange multiplier ``lambda`` trading off rank minimisation
        against fitting the observed entries.
    max_iterations:
        Number of alternating update sweeps.
    tolerance:
        Relative change in the objective below which iteration stops early.
    init_scale:
        Standard deviation of the random initialisation of ``L``.
    """

    rank: Optional[int] = None
    regularization: float = 0.1
    max_iterations: int = 60
    tolerance: float = 1e-7
    init_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.rank is not None and self.rank <= 0:
            raise ValueError("rank must be positive when given")
        if self.regularization < 0:
            raise ValueError("regularization must be non-negative")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


@dataclass(frozen=True)
class RSVDResult:
    """Outcome of an RSVD completion.

    Attributes
    ----------
    estimate:
        The reconstructed matrix ``X_hat = L R^T``.
    left, right:
        The factors ``L`` (``M x r``) and ``R`` (``N x r``).
    objective:
        Final value of the regularised objective.
    iterations:
        Number of alternating sweeps executed.
    converged:
        Whether the relative objective change fell below the tolerance.
    """

    estimate: np.ndarray
    left: np.ndarray
    right: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _objective(
    left: np.ndarray,
    right: np.ndarray,
    observed: np.ndarray,
    mask: np.ndarray,
    regularization: float,
) -> float:
    estimate = left @ right.T
    fit = np.sum((mask * estimate - observed) ** 2)
    reg = regularization * (np.sum(left**2) + np.sum(right**2))
    return float(fit + reg)


def rsvd_complete(
    observed: np.ndarray,
    mask: np.ndarray,
    config: Optional[RSVDConfig] = None,
    rng: RngLike = None,
) -> RSVDResult:
    """Reconstruct a matrix from masked observations with the basic RSVD.

    Parameters
    ----------
    observed:
        ``X_B`` — the matrix of observed values; entries where ``mask`` is 0
        are ignored (conventionally 0).
    mask:
        The 0/1 index matrix ``B``.
    config:
        Solver configuration.
    rng:
        Seed or generator for the random initialisation of ``L``.
    """
    observed = check_2d(observed, "observed")
    mask = check_2d(mask, "mask")
    check_matching_shapes(observed, mask, "observed", "mask")
    check_binary_mask(mask)
    cfg = config or RSVDConfig()
    rng = make_rng(rng)

    m, n = observed.shape
    rank = cfg.rank if cfg.rank is not None else m
    rank = min(rank, m, n)

    left = cfg.init_scale * rng.standard_normal((m, rank))
    right = np.zeros((n, rank))
    lam = cfg.regularization
    identity = np.eye(rank)

    masked_observed = mask * observed

    previous_objective = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        # All n column systems (and then all m row systems) share the
        # structure lhs = lam I + L^T diag(w) L, so stack them into one
        # (batch, r, r) tensor and dispatch a single LAPACK call.
        lhs = lam * identity[None, :, :] + masked_gram_stack(left, mask)
        right = batched_safe_solve(lhs, masked_observed.T @ left)

        lhs = lam * identity[None, :, :] + masked_gram_stack(right, mask.T)
        left = batched_safe_solve(lhs, masked_observed @ right)

        objective = _objective(left, right, observed, mask, lam)
        if previous_objective < np.inf:
            change = abs(previous_objective - objective) / max(previous_objective, 1e-12)
            if change < cfg.tolerance:
                converged = True
                previous_objective = objective
                break
        previous_objective = objective

    estimate = left @ right.T
    return RSVDResult(
        estimate=estimate,
        left=left,
        right=right,
        objective=float(previous_objective),
        iterations=iterations,
        converged=converged,
    )
