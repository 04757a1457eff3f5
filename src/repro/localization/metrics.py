"""Localization evaluation metrics.

The paper's localization metric is the Euclidean distance between the true
and estimated grid locations.  These helpers compute per-trial errors,
summaries (mean / median / percentiles) and CDFs for the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.cdf import EmpiricalCDF, empirical_cdf

__all__ = ["LocalizationReport", "localization_errors", "summarize_errors"]


@dataclass(frozen=True)
class LocalizationReport:
    """Summary statistics of a batch of localization errors (metres)."""

    errors_m: np.ndarray
    mean_m: float
    median_m: float
    percentile_80_m: float
    percentile_90_m: float

    @property
    def cdf(self) -> EmpiricalCDF:
        """Empirical CDF of the errors (for CDF figures)."""
        return empirical_cdf(self.errors_m)


def localization_errors(
    true_points: np.ndarray, estimated_points: np.ndarray
) -> np.ndarray:
    """Euclidean errors (metres) between matched rows of two point arrays.

    Empty inputs yield an empty error array; non-finite coordinates are
    rejected (a NaN silently propagating into a CDF would corrupt every
    percentile downstream).
    """
    true_points = np.asarray(true_points, dtype=float)
    estimated_points = np.asarray(estimated_points, dtype=float)
    if true_points.size == 0 and estimated_points.size == 0:
        return np.zeros(0, dtype=float)
    true_points = np.atleast_2d(true_points)
    estimated_points = np.atleast_2d(estimated_points)
    if true_points.shape != estimated_points.shape:
        raise ValueError("true and estimated point arrays must share a shape")
    if not np.all(np.isfinite(true_points)):
        raise ValueError("true_points contains NaN or infinite coordinates")
    if not np.all(np.isfinite(estimated_points)):
        raise ValueError("estimated_points contains NaN or infinite coordinates")
    return np.linalg.norm(true_points - estimated_points, axis=1)


def summarize_errors(errors_m: Sequence[float]) -> LocalizationReport:
    """Build a :class:`LocalizationReport` from raw error samples.

    A single sample is a valid (degenerate) distribution; empty or
    non-finite inputs are rejected.
    """
    errors = np.asarray(list(errors_m), dtype=float).ravel()
    if errors.size == 0:
        raise ValueError("errors_m must be non-empty")
    if not np.all(np.isfinite(errors)):
        raise ValueError("errors_m contains NaN or infinite entries")
    cdf = empirical_cdf(errors)
    return LocalizationReport(
        errors_m=errors,
        mean_m=float(errors.mean()),
        median_m=cdf.percentile(0.5),
        percentile_80_m=cdf.percentile(0.8),
        percentile_90_m=cdf.percentile(0.9),
    )
